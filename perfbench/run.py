"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats untraced units of the workload for ``--seconds`` (at
least ``RSS_UNITS`` of them), times the workload's imports in fresh
interpreters, and prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` repeats untraced units for half the budget, then runs the
workload's fixed set of traced units (one ``paper`` pass per derived seed,
one unit otherwise, so counts repeat exactly), and prints the per-layer
metrics, the per-layer tables (time inside no instrumented function is the
``unattributed`` row), the traffic shape and the tracing overhead (traced
minus untraced ``run_s`` per unit).

Every unit's digest is checked: against ``expected.json`` at the default
seed, against every other unit of the same key in this invocation (so a
traced unit must match the untraced ones), and on ``sharded`` against the
``city`` digest at the same seed, computed after the timed units.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when every
unit passed, 1 when one failed, and 2 when the simulator's sources are
missing.  Results and spans are also written under ``.perfbench/`` in the
repository root.  Every process the command starts has ended, and been
waited for, when it exits.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

#: The seed ``expected.json`` holds digests for.
DEFAULT_SEED = 1

#: ``peak_rss_mb`` is read once this many untraced units have ended, and a
#: measurement runs at least this many whatever ``--seconds`` says: a
#: fixed count, so memory a unit leaves behind shows, and the same amount
#: of it at every budget.
RSS_UNITS = 3

#: Fresh interpreters whose import time ``setup_s`` takes the median of.
IMPORT_SAMPLES = 5

#: Run by each of them: the import share of a workload's set-up.
IMPORT_PROBE = """
import importlib, sys, time
sys.path[:0] = sys.argv[1:3]
started = time.perf_counter()
from perfbench.workloads import WORKLOADS
for module in WORKLOADS[sys.argv[3]].modules:
    importlib.import_module(module)
print(time.perf_counter() - started)
"""

WORKLOAD_NAMES = ("paper", "dense", "city", "sharded")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds to keep repeating units for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checker:
    """Checks unit digests and counts the units that fail."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        #: Unit key -> the first digest seen for it in this invocation.
        self.seen: Dict[str, str] = {}
        #: Unit key -> how many of its units passed every check so far.
        self.passed: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, unit: Any, label: str) -> None:
        self.attempted += 1
        problem = unit.error
        if problem is None and self.expected is not None:
            want = self.expected.get(unit.key)
            if want != unit.digest:
                problem = f"digest {unit.digest} != expected {want}"
        if problem is None:
            first = self.seen.setdefault(unit.key, unit.digest)
            if first != unit.digest:
                problem = f"{label} digest {unit.digest} != earlier digest {first}"
        if problem is None:
            self.passed[unit.key] = self.passed.get(unit.key, 0) + 1
        else:
            self.failed += 1
            self.failures.append(f"{unit.key} ({label}): {problem}")

    def check_reference(self, name: str, digest: str) -> None:
        """Fail every passing unit whose digest is not ``digest`` (``name``'s)."""
        for key, count in self.passed.items():
            if self.seen[key] != digest:
                self.failed += count
                self.failures.append(
                    f"{key} ({count} units): digest {self.seen[key]} != "
                    f"{name} digest {digest}"
                )


class Samples:
    """Host times of the units one measurement loop ran."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.run_s: List[float] = []
        self.cell_s: List[float] = []
        #: ``sharded`` only: each run's ``SimOutcome``.
        self.outcomes: List[Any] = []
        #: Peak RSS once ``RSS_UNITS`` units have ended.
        self.peak_rss_mb = 0.0


def run_unit(workload: Any, seed: int, rep: int, checker: Checker,
             samples: Samples, tracer: Any = None) -> Optional[Any]:
    """Set up and run one rep; its ``RunResult``, or None when it raised."""
    from perfbench.workloads import Unit

    label = "traced" if tracer is not None else "untraced"
    # The previous unit's garbage is collected outside the timing.
    gc.collect()
    started = clock()
    try:
        if tracer is not None:
            tracer.reset()
            with tracer.root("setup"):
                state = workload.setup(seed, rep)
        else:
            state = workload.setup(seed, rep)
        setup_s = clock() - started
        result = workload.run(state, tracer)
    except Exception as error:
        checker.check(Unit(workload.name, None, f"{type(error).__name__}: {error}"),
                      label)
        return None
    for unit in result.units:
        checker.check(unit, label)
    samples.setup_s.append(setup_s)
    samples.run_s.append(result.run_s)
    samples.cell_s.extend(seconds for _, seconds in result.cells)
    if result.outcome is not None:
        samples.outcomes.append(result.outcome)
    return result


def measure(workload: Any, seed: int, seconds: float, checker: Checker) -> Samples:
    """Repeat untraced set-up + run of ``workload`` for ``seconds``.

    Runs at least ``RSS_UNITS`` units, and reads peak RSS after that many.
    """
    samples = Samples()
    deadline = clock() + seconds
    rep = 0
    while run_unit(workload, seed, rep, checker, samples) is not None:
        rep += 1
        if rep == RSS_UNITS:
            samples.peak_rss_mb = peak_rss_mb(workload.forks_workers)
        if rep >= RSS_UNITS and clock() >= deadline:
            break
    return samples


def trace(workload: Any, seed: int, checker: Checker) -> Tuple[Samples, Any]:
    """Run ``workload.traced_reps`` traced reps; return their samples and tally.

    Each rep's spans (this process's, then each shard worker's) are added
    to the tally and written to ``OUT_DIR`` once the rep has ended,
    replacing those of the workload's previous traced run.
    """
    from perfbench.layers import Instrumentation, Tally
    from perfbench.spans import Tracer

    samples, tally, tracer = Samples(), Tally(), Tracer()
    instrumentation = Instrumentation(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    instrumentation.install()
    tracer.capture_forked_workers(OUT_DIR / "workers")
    try:
        for rep in range(workload.traced_reps):
            result = run_unit(workload, seed, rep, checker, samples, tracer)
            if result is None:
                break
            span_sets = [tracer.snapshot(), *tracer.collect_workers()]
            for index, span_set in enumerate(span_sets):
                tally.add(span_set)
                process = "main" if index == 0 else f"worker{index}"
                span_set.dump(OUT_DIR / f"{workload.name}-rep{rep}.{process}.spans")
            tally.add_handler(result.handler_s)
    finally:
        tracer.stop_capturing_workers()
        instrumentation.uninstall()
    return samples, tally


def import_seconds(name: str) -> float:
    """Median host seconds a fresh interpreter takes to import ``name``'s modules.

    A process imports once, so this process's own import is one sample;
    these are ``IMPORT_SAMPLES``, taken after it has written the bytecode
    caches.  Run after the timed units, so the probes' memory is not
    counted in ``peak_rss_mb``.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        completed = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT), name],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(completed.stdout))
    return statistics.median(samples)


def peak_rss_mb(workers: bool) -> float:
    """Peak RSS of this process, plus that of its largest finished worker.

    The workers are ``sharded``'s two shard workers, which share the
    coordinator's pages up to the fork.  Other workloads start no child
    before this is read, and count none: a launcher such as a version
    manager's shim can leave its own children's peak in this process's
    ``RUSAGE_CHILDREN``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + children) / 1024.0


def quantile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile (0 < fraction < 1) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def start_resource_tracker() -> None:
    """Start ``multiprocessing``'s resource tracker as a child of this process.

    Shard workers hand their messages over in shared memory segments, which
    the tracker follows.  Started before the first worker forks, this one
    tracker serves every worker; otherwise each worker of the first run
    starts a tracker of its own, which outlives the worker and this process.
    """
    resource_tracker.ensure_running()


def stop_resource_tracker() -> None:
    """Stop the resource tracker if this process started one, and wait for it."""
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()


def environment(seed: int) -> Dict[str, Any]:
    from repro.util import array

    return {
        "python": platform.python_version(),
        "numpy": array.numpy_version() or "absent",
        "array_backend": array.backend_name(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(import_s: float, samples: Samples) -> Dict[str, Dict[str, Any]]:
    cells_ms = [seconds * 1000.0 for seconds in samples.cell_s]
    return {
        "setup_s": metric(import_s + statistics.median(samples.setup_s), "s"),
        "run_s": metric(statistics.median(samples.run_s), "s"),
        "cell_ms.p50": metric(quantile(cells_ms, 0.5), "ms"),
        "cell_ms.p90": metric(quantile(cells_ms, 0.9), "ms"),
        "peak_rss_mb": metric(samples.peak_rss_mb, "MB"),
    }


def per_layer_units() -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def print_table(title: str, rows: List[Any], base_s: float) -> List[Dict[str, Any]]:
    print(f"{title} (share of {base_s:.4f} s)")
    print(f"  {'layer':<16}{'calls':>10}{'events':>10}{'self_s':>12}{'share':>9}")
    table = []
    for layer, calls, events, self_s in rows:
        share = self_s / base_s if base_s else 0.0
        print(f"  {layer:<16}{calls:>10}{events:>10}{self_s:>12.4f}{share:>9.1%}")
        table.append({"layer": layer, "calls": calls, "events": events,
                      "self_s": self_s, "share": share})
    return table


def traced_report(untraced: Samples, traced: Samples, tally: Any) -> Dict[str, Any]:
    """Print the per-layer tables, overhead and traffic; return the record."""
    from perfbench.layers import traffic
    from perfbench.spans import UNATTRIBUTED

    outcomes = traced.outcomes
    layers = tally.metrics(outcomes)
    traced_run_s = sum(traced.run_s)
    tables = {
        "run": print_table("per-layer self time, run phase", tally.rows("run"),
                           traced_run_s),
        "setup": print_table("per-layer self time, set-up phase",
                             tally.rows("setup"), sum(traced.setup_s)),
    }
    if outcomes:
        walls = sum(r.wall_s for outcome in outcomes for r in outcome.shard_results)
        rows = tally.rows("worker")
        rows.append((UNATTRIBUTED, 0, 0, walls - sum(row[3] for row in rows)))
        tables["workers"] = print_table("per-layer self time, shard workers",
                                        rows, walls)
    unattributed_s = sum(row["self_s"] for row in tables["run"]
                         if row["layer"] == UNATTRIBUTED)
    layer_sum_s = sum(row["self_s"] for row in tables["run"]) - unattributed_s
    units = len(traced.run_s)
    overhead_s = statistics.median(traced.run_s) - statistics.median(untraced.run_s)
    print(f"tracing overhead per unit: traced run_s "
          f"{statistics.median(traced.run_s):.4f} s - untraced run_s "
          f"{statistics.median(untraced.run_s):.4f} s = {overhead_s:.4f} s")
    # One traced unit against a median of untraced ones: the overhead can
    # read a little below 0 where tracing costs less than the host's noise.
    within = unattributed_s / units <= max(overhead_s, 1e-3)
    print(f"layers' self times sum to {layer_sum_s:.4f} s of traced run_s "
          f"{traced_run_s:.4f} s over {units} unit(s); unattributed "
          f"{unattributed_s / units:.4f} s per unit "
          f"({unattributed_s / traced_run_s:.2%}), "
          f"{'within' if within else 'OVER'} the tracing overhead (floor 1 ms)")
    shape = traffic(layers)
    print("traffic: " + ", ".join(f"{key}={value:.4g}" for key, value in shape.items()))
    return {
        "layers": layers,
        "traffic": shape,
        "tables": tables,
        "layer_sum_s": layer_sum_s,
        "unattributed_s": unattributed_s,
        "traced_run_s": traced_run_s,
        "overhead_s": overhead_s,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return benchmark(args)
    finally:
        stop_resource_tracker()


def benchmark(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    for module in workload.modules:
        importlib.import_module(module)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    expected = None
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED) as handle:
            expected = json.load(handle)["workloads"].get(workload.name, {})
    checker = Checker(expected)
    if workload.forks_workers:
        start_resource_tracker()
    stamp = environment(args.seed)
    print("perfbench " + " ".join(
        [f"workload={workload.name}", f"trace={args.trace}"]
        + [f"{key}={value}" for key, value in stamp.items()]
    ))

    record: Dict[str, Any] = {"workload": workload.name, "trace": args.trace,
                              "environment": stamp}
    if args.trace:
        untraced = measure(workload, args.seed, args.seconds / 2, checker)
        traced, tally = trace(workload, args.seed, checker)
        metrics = {}
        if untraced.run_s and len(traced.run_s) == workload.traced_reps:
            record.update(traced_report(untraced, traced, tally))
            metrics = {name: metric(record["layers"][name], unit)
                       for name, unit in per_layer_units().items()}
    else:
        samples = measure(workload, args.seed, args.seconds, checker)
        import_s = import_seconds(workload.name)
        metrics = end_to_end(import_s, samples) if samples.run_s else {}
        for name, entry in metrics.items():
            print(f"{name:<14}{entry['value']:>12.4f} {entry['unit']}")
        print(f"samples: {len(samples.setup_s)} set-ups, {len(samples.run_s)} "
              f"runs, {len(samples.cell_s)} cells, {IMPORT_SAMPLES} imports "
              f"(median {import_s:.4f} s)")
    if hasattr(workload, "reference_digest"):
        # After the timed units, so the reference run adds nothing to them
        # (peak RSS included).
        checker.check_reference("city", workload.reference_digest(args.seed))
    failed = checker.failed
    print(f"error_rate    {failed / max(checker.attempted, 1):>12.4f} ratio "
          f"({failed} failed of {checker.attempted} units)")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    record.update({"metrics": metrics, "failures": checker.failures})
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as handle:
        json.dump(record, handle, indent=1)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
