"""``python -m repro.runner`` — the experiment-suite command line.

Examples::

    python -m repro.runner table4 --workers 4
    python -m repro.runner table5 --seeds 11 12 --serial
    python -m repro.runner fig7 --workers 2 --compare-serial \\
        --attach-trace --attach-energy-timeline
    python -m repro.runner all --workers 8 --bench-out /tmp/bench.json
    python -m repro.runner --list

Every run (unless ``--no-bench``) writes ``BENCH_runner.json`` with the
per-cell and total wall-clock plus a digest of each cell's structured
result (and of each attached artifact), so two runs can be diffed for
determinism without re-serialising whole result objects.

With ``--compare-serial`` the run exits nonzero if any cell's result or
artifact digest differs between the parallel run and the serial replay —
the CI determinism gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.runner.engine import RunReport, run_experiment
from repro.runner.jobs import ATTACH_CAPABLE, EXPERIMENTS, jobs_for


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run the paper's experiment grids, serially or fanned "
        "out over a process pool, with deterministic results either way.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=[*EXPERIMENTS, "all"],
        help="which grid to run (or 'all' for every one)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="seeds to run the full grid at (default: the experiment's "
        "canonical seed)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size (default: CPU count)",
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="run every cell in this process, no pool",
    )
    parser.add_argument(
        "--compare-serial",
        action="store_true",
        help="after the parallel run, replay serially, report the speedup, "
        "and fail (exit 1) unless every result and artifact digest matches",
    )
    parser.add_argument(
        "--attach-trace",
        action="store_true",
        help="attach per-tick trace-event artifacts on the experiments that "
        f"support them ({', '.join(ATTACH_CAPABLE)})",
    )
    parser.add_argument(
        "--attach-energy-timeline",
        action="store_true",
        help="attach per-component energy-timeline artifacts on the "
        f"experiments that support them ({', '.join(ATTACH_CAPABLE)})",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="spatial partitions for the 'sharded' grid (default: "
        "repro.experiments.sharded_exp.DEFAULT_SHARDS); the delivery "
        "digest is shard-count invariant, so --compare-serial still gates",
    )
    parser.add_argument(
        "--bench-out",
        default="BENCH_runner.json",
        metavar="PATH",
        help="where to write the timing report (default: BENCH_runner.json)",
    )
    parser.add_argument(
        "--no-bench",
        action="store_true",
        help="skip writing the timing report",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiments and their cells, then exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-cell table",
    )
    return parser


def _print_listing() -> None:
    for name in [*EXPERIMENTS, "all"]:
        jobs = jobs_for(name)
        artifacts = " [artifact-capable]" if name in ATTACH_CAPABLE else ""
        print(f"{name}: {len(jobs)} cells{artifacts}")
        if name != "all":
            for job in jobs:
                print(f"  {job.cell} (seed {job.seed})")


def _artifact_summary(outcome) -> str:
    if not outcome.artifacts:
        return ""
    parts = [
        f"{key}={artifact.length}B"
        for key, artifact in outcome.artifacts.items()
    ]
    return "  " + ",".join(parts)


def _print_report(report: RunReport, quiet: bool) -> None:
    if not quiet:
        width = max((len(o.cell) for o in report.outcomes), default=4)
        print(f"{'cell':<{width}}  {'seed':>6}  {'wall':>9}  digest")
        for outcome in report.outcomes:
            print(
                f"{outcome.cell:<{width}}  {outcome.seed!s:>6}  "
                f"{outcome.wall_s * 1e3:>7.1f}ms  {outcome.result_digest}"
                f"{_artifact_summary(outcome)}"
            )
    mode = report.mode if report.workers == 0 else (
        f"{report.mode}, {report.workers} workers"
    )
    print(
        f"{report.experiment}: {len(report.outcomes)} cells in "
        f"{report.total_wall_s:.3f}s ({mode})"
    )
    if report.speedup is not None:
        print(
            f"serial replay: {report.serial_wall_s:.3f}s "
            f"→ speedup ×{report.speedup:.2f}"
        )
    if report.digest_match is not None:
        if report.digest_match:
            print("digests: parallel == serial (values and artifacts)")
        else:
            print("DIGEST MISMATCH between parallel and serial runs:")
            for line in report.digest_mismatches:
                print(f"  {line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        _print_listing()
        return 0
    if args.experiment is None:
        parser.error("an experiment name is required (or --list)")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1 (use --serial for in-process)")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    report = run_experiment(
        args.experiment,
        seeds=args.seeds,
        workers=args.workers,
        serial=args.serial,
        compare_serial=args.compare_serial,
        attach_trace=args.attach_trace,
        attach_energy_timeline=args.attach_energy_timeline,
        shards=args.shards,
    )
    _print_report(report, args.quiet)
    if not args.no_bench:
        with open(args.bench_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_bench_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.bench_out}")
    return 1 if report.digest_match is False else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
