"""Rendering for analysis results: the text report and CI annotations."""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.rules import RULES, Finding


def _summary(findings: Sequence[Finding]) -> str:
    verdict = "FAILED" if findings else "clean"
    return f"determinism lint: {verdict} — {len(findings)} finding(s)"


def render_text(findings: Sequence[Finding]) -> str:
    """The human report: each finding with its rule, then a summary line."""
    lines: List[str] = []
    for finding in findings:
        lines.append(finding.render())
        lines.append(f"    rule: {RULES[finding.code].name} — "
                     f"{RULES[finding.code].suggestion}")
    lines.append(_summary(findings))
    return "\n".join(lines)


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions workflow-command annotations (``--format github``).

    One ``::error`` line per finding — the Action runner turns these into
    inline PR annotations — followed by the same summary line the text
    format ends with.  Normalized ``repro/...`` paths are re-rooted under
    ``src/`` so annotations anchor to checkout-relative files.
    """
    lines: List[str] = []
    for finding in findings:
        lines.append(
            f"::error file={_workspace_path(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={finding.code} {RULES[finding.code].name}::"
            f"{finding.message}"
        )
    lines.append(_summary(findings))
    return "\n".join(lines)


def _workspace_path(path: str) -> str:
    return f"src/{path}" if path.startswith("repro/") else path


def render_rules() -> str:
    """The catalogue listing for ``--list-rules``."""
    lines = []
    for rule in RULES.values():
        lines.append(f"{rule.code} {rule.name}: {rule.summary}")
        lines.append(f"    fix: {rule.suggestion}")
        if rule.only_paths:
            lines.append(f"    scoped to: {', '.join(rule.only_paths)}")
        if rule.exempt_paths:
            lines.append(f"    exempt by design: {', '.join(rule.exempt_paths)}")
    return "\n".join(lines)
