"""Tier-1 gate: the shipped tree has no analysis finding.

Mirrors `python -m repro.analysis src/repro` in CI.  A finding is fixed in
the code, or scoped out of its rule in `repro/analysis/rules.py` with the
reason written there.
"""

from pathlib import Path

from repro.analysis.visitor import analyze_paths

TREE = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_shipped_tree_has_no_findings():
    findings = analyze_paths([TREE])
    assert not findings, "analysis findings:\n" + "\n".join(
        f.render() for f in findings
    )
