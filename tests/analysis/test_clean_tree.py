"""Tier-1 gate: the shipped tree is clean against the checked-in baseline.

Any new finding — or any waiver whose code has since been fixed (stale) —
fails this test, mirroring `python -m repro.analysis src/repro` in CI.  The
scope-aware v2 pass also holds the baseline to at most two waivers: the
four seed-era waivers (DET004 in disseminate/prophet, DET005 in wifi) fell
to per-scope type tracking, commutative-accumulation detection, and
dedup-set recognition, and the budget stops them creeping back.
"""

from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.visitor import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "DETERMINISM_BASELINE.txt"
TREE = REPO_ROOT / "src" / "repro"

#: The waiver-shrink workflow's ceiling: fixes must outnumber
#: accepted findings from here on.
MAX_WAIVERS = 2


def test_shipped_tree_has_no_new_findings_and_no_stale_waivers():
    findings = analyze_paths([TREE])
    new, stale = Baseline.load(BASELINE).apply(findings)
    assert not new, "new analysis findings:\n" + "\n".join(
        f.render() for f in new
    )
    assert not stale, "stale waivers (delete from baseline):\n" + "\n".join(
        w.render() for w in stale
    )


def test_baseline_stays_small():
    baseline = Baseline.load(BASELINE)
    assert len(baseline.waivers) <= MAX_WAIVERS, (
        f"baseline grew past {MAX_WAIVERS} waiver(s); fix the findings "
        "instead:\n" + "\n".join(w.render() for w in baseline.waivers)
    )


def test_checked_in_waivers_carry_real_justifications():
    baseline = Baseline.load(BASELINE)
    for waiver in baseline.waivers:
        assert waiver.justification
        assert not waiver.justification.startswith("TODO"), waiver.render()

