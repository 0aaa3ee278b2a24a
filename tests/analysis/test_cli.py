"""The `python -m repro.analysis` command line: exit codes and reports."""

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

BAD_SOURCE = "def seed_for(name):\n    return hash(name)\n"
CLEAN_SOURCE = "def seed_for(name):\n    return len(name)\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return path


def test_findings_exit_nonzero_with_code_and_location(bad_file, capsys):
    code = main([str(bad_file)])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "DET003" in out
    assert "bad.py:2" in out


def test_github_format_emits_workflow_annotations(bad_file, capsys):
    code = main([str(bad_file), "--format", "github"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "::error file=" in out
    assert "line=2" in out
    assert "title=DET003" in out


def test_github_format_clean_tree_prints_verdict(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    code = main([str(clean), "--format", "github"])
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
    with pytest.raises(SystemExit) as exit_info:
        main([str(tmp_path / "missing")])
    assert exit_info.value.code == EXIT_USAGE


def test_syntax_error_exits_usage_naming_the_file(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    assert main([str(broken)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{broken}:1:" in err


def test_undecodable_file_exits_usage_naming_the_file(tmp_path, capsys):
    latin = tmp_path / "latin.py"
    latin.write_bytes(b"x = 1\nname = 'caf\xe9'\n")  # latin-1, not UTF-8
    assert main([str(latin)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{latin}:2:" in err
    assert "utf-8" in err
