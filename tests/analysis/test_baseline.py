"""The waiver mechanism: suppression, expiry, and the justification rule."""

from pathlib import Path

import pytest

from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    Waiver,
    format_baseline,
)
from repro.analysis.visitor import analyze_file, normalize_path

FIXTURES = Path(__file__).parent / "fixtures"


def _hash_fixture_findings():
    findings = analyze_file(FIXTURES / "det003_builtin_hash.py")
    assert len(findings) == 1
    return findings


def test_waiver_suppresses_matching_finding():
    findings = _hash_fixture_findings()
    finding = findings[0]
    baseline = Baseline.parse(
        f"{finding.path}:{finding.line}: {finding.code}  # legacy derivation\n"
    )
    new, stale = baseline.apply(findings)
    assert new == []
    assert stale == []


def test_waiver_expires_when_finding_disappears():
    findings = _hash_fixture_findings()
    path = findings[0].path
    baseline = Baseline.parse(
        f"{path}:{findings[0].line}: DET003  # legacy derivation\n"
        f"{path}:999: DET003  # covered a line that no longer exists\n"
    )
    new, stale = baseline.apply(findings)
    assert new == []
    assert [w.line for w in stale] == [999]


def test_waiver_mismatched_code_does_not_suppress():
    findings = _hash_fixture_findings()
    finding = findings[0]
    baseline = Baseline.parse(
        f"{finding.path}:{finding.line}: DET005  # wrong rule entirely\n"
    )
    new, stale = baseline.apply(findings)
    assert len(new) == 1 and len(stale) == 1


def test_waiver_requires_justification():
    with pytest.raises(BaselineError, match="justification"):
        Baseline.parse("repro/x.py:10: DET003\n")


def test_waiver_rejects_unknown_rule_code():
    with pytest.raises(BaselineError, match="unknown rule code"):
        Baseline.parse("repro/x.py:10: DET999  # mystery\n")


def test_waiver_rejects_malformed_line():
    with pytest.raises(BaselineError, match="expected"):
        Baseline.parse("not a waiver at all  # but justified\n")


def test_duplicate_waivers_rejected():
    with pytest.raises(BaselineError, match="duplicate"):
        Baseline.parse(
            "repro/x.py:10: DET003  # once\n"
            "repro/x.py:10: DET003  # twice\n"
        )


def test_comments_and_blanks_ignored():
    baseline = Baseline.parse("# header\n\n   \nrepro/x.py:1: DET001  # ok\n")
    assert len(baseline.waivers) == 1


def test_load_missing_file_is_empty_baseline(tmp_path):
    baseline = Baseline.load(tmp_path / "nope.txt")
    assert baseline.waivers == []


def test_format_baseline_keeps_justifications_and_marks_new():
    findings = analyze_file(FIXTURES / "det006_mutable_default.py")
    assert len(findings) == 2
    first, second = findings
    previous = Baseline(
        [Waiver(first.path, first.line, first.code, "intentional cache")]
    )
    text = format_baseline(findings, previous)
    assert "intentional cache" in text
    assert "TODO: justify" in text
    # The rendered file round-trips and waives everything it lists.
    reparsed = Baseline.parse(text)
    new, stale = reparsed.apply(findings)
    assert new == [] and stale == []
    assert second.key in {w.key for w in reparsed.waivers}


def test_normalize_path_roots_at_repro_package():
    assert normalize_path("/somewhere/src/repro/core/manager.py") == (
        "repro/core/manager.py"
    )
    assert normalize_path("src/repro/radio/wifi.py") == "repro/radio/wifi.py"
