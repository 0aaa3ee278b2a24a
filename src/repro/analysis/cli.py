"""``python -m repro.analysis`` — the static analysis command line.

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --format github   # CI annotations
    python -m repro.analysis --list-rules

Exit codes: 0 clean, 1 findings, 2 usage error or a file the lint cannot
parse (a syntax error, or bytes its declared encoding cannot decode).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import render_github, render_rules, render_text
from repro.analysis.visitor import analyze_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


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
    try:
        findings = analyze_paths(paths)
    except SyntaxError as error:
        # A non-UTF-8 byte arrives here too: the parser decodes the source.
        print(f"error: {error.filename}:{error.lineno}: cannot parse: "
              f"{error.msg}", file=sys.stderr)
        return EXIT_USAGE
    render = render_github if args.format == "github" else render_text
    print(render(findings))
    return EXIT_FINDINGS if findings else EXIT_CLEAN
