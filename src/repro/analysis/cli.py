"""``python -m repro.analysis`` — the static analysis command line.

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --format github   # CI annotations
    python -m repro.analysis src/repro --write-baseline
    python -m repro.analysis --list-rules

Exit codes: 0 clean, 1 new findings, 2 stale waivers only (the baseline
lists waivers whose code has since been fixed — delete them), 3 bad
baseline file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline, BaselineError, format_baseline
from repro.analysis.report import render_github, render_rules, render_text
from repro.analysis.visitor import analyze_paths

#: Default baseline filename, looked up relative to the working directory.
DEFAULT_BASELINE = "DETERMINISM_BASELINE.txt"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_STALE = 2
EXIT_BAD_BASELINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically enforce the simulator invariants no runtime "
        "gate covers: determinism (DET: seeded RNG only, no wall clock, no "
        "hash()-derived seeds, no unsorted set iteration, ...), sim-time "
        "hygiene (SIM), and fork safety in the parallel runner (FRK).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro, else .)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="FILE",
        help=f"waiver file (default: {DEFAULT_BASELINE}; missing file "
        "means no waivers)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to waive every current finding "
        "(existing justifications are kept; new entries get a TODO marker)",
    )
    parser.add_argument(
        "--allow-stale",
        action="store_true",
        help="do not fail on stale waivers (still reported)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "github"],
        default="text",
        help="report format (default: text; github emits workflow-command "
        "annotations for CI)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _default_paths() -> List[str]:
    return ["src/repro"] if Path("src/repro").is_dir() else ["."]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return EXIT_CLEAN
    paths = args.paths or _default_paths()
    for path in paths:
        if not Path(path).exists():
            parser.error(f"no such path: {path}")
    findings = analyze_paths(paths)
    try:
        baseline = Baseline.load(args.baseline)
    except BaselineError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_BASELINE
    if args.write_baseline:
        text = format_baseline(findings, baseline)
        Path(args.baseline).write_text(text, encoding="utf-8")
        print(f"wrote {args.baseline} ({len(findings)} waiver(s))")
        return EXIT_CLEAN
    new, stale = baseline.apply(findings)
    waived_count = len(findings) - len(new)
    render = render_github if args.format == "github" else render_text
    print(render(new, stale, waived_count))
    if new:
        return EXIT_FINDINGS
    if stale and not args.allow_stale:
        return EXIT_STALE
    return EXIT_CLEAN
