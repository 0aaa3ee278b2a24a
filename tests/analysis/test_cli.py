"""The `python -m repro.analysis` command line: exit codes and baseline IO."""

import pytest

from repro.analysis.cli import (
    EXIT_BAD_BASELINE,
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_STALE,
    main,
)

BAD_SOURCE = "def seed_for(name):\n    return hash(name)\n"
CLEAN_SOURCE = "def seed_for(name):\n    return len(name)\n"


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    # The default baseline is CWD-relative; keep test runs from reading or
    # writing the repo checkout's DETERMINISM_BASELINE.txt.
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return path


def test_findings_exit_nonzero_with_code_and_location(bad_file, tmp_path, capsys):
    code = main([str(bad_file), "--baseline", str(tmp_path / "none.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "DET003" in out
    assert "bad.py:2" in out


def test_write_baseline_then_clean(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    assert main([str(bad_file), "--baseline", str(baseline),
                 "--write-baseline"]) == EXIT_CLEAN
    assert "TODO: justify" in baseline.read_text(encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad_file), "--baseline", str(baseline)]) == EXIT_CLEAN
    assert "1 waived" in capsys.readouterr().out


def test_stale_waiver_fails_unless_allowed(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        f"{clean.resolve()}:2: DET003  # covered code that was since fixed\n",
        encoding="utf-8",
    )
    assert main([str(clean), "--baseline", str(baseline)]) == EXIT_STALE
    assert main([str(clean), "--baseline", str(baseline),
                 "--allow-stale"]) == EXIT_CLEAN


def test_malformed_baseline_reports_distinct_exit(bad_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("x.py:1: DET003\n", encoding="utf-8")  # no justification
    assert main([str(bad_file), "--baseline", str(baseline)]) == EXIT_BAD_BASELINE
    assert "justification" in capsys.readouterr().err


def test_github_format_emits_workflow_annotations(bad_file, tmp_path, capsys):
    code = main([str(bad_file), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "github"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "::error file=" in out
    assert "line=2" in out
    assert "title=DET003" in out


def test_github_format_clean_tree_prints_verdict(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    code = main([str(clean), "--baseline", str(tmp_path / "none.txt"),
                 "--format", "github"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "::error" not in out
    assert "clean" in out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in ("DET001", "DET004", "DET007"):
        assert code in out


def test_missing_path_errors(tmp_path):
    with pytest.raises(SystemExit):
        main([str(tmp_path / "missing")])
