"""Rendering for analysis results: the text report and CI annotations."""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.baseline import Waiver
from repro.analysis.rules import RULES, Finding


def _summary(new: Sequence[Finding], stale: Sequence[Waiver],
             waived_count: int) -> str:
    verdict = "clean" if not new and not stale else "FAILED"
    return (
        f"determinism lint: {verdict} — {len(new)} new finding(s), "
        f"{waived_count} waived, {len(stale)} stale waiver(s)"
    )


def render_text(
    new: Sequence[Finding],
    stale: Sequence[Waiver],
    waived_count: int,
) -> str:
    """The human report: findings, then stale waivers, then a summary line."""
    lines: List[str] = []
    for finding in new:
        lines.append(finding.render())
        lines.append(f"    rule: {RULES[finding.code].name} — "
                     f"{RULES[finding.code].suggestion}")
    for waiver in stale:
        lines.append(
            f"{waiver.path}:{waiver.line}: stale waiver for {waiver.code} "
            f"— no finding matches any more; delete it from the baseline"
        )
    lines.append(_summary(new, stale, waived_count))
    return "\n".join(lines)


def render_github(
    new: Sequence[Finding],
    stale: Sequence[Waiver],
    waived_count: int,
) -> str:
    """GitHub Actions workflow-command annotations (``--format github``).

    One ``::error``/``::warning`` line per finding/stale waiver — the Action
    runner turns these into inline PR annotations — followed by the same
    summary line the text format ends with.  Normalized ``repro/...`` paths
    are re-rooted under ``src/`` so annotations anchor to checkout-relative
    files.
    """
    lines: List[str] = []
    for finding in new:
        lines.append(
            f"::error file={_workspace_path(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={finding.code} {RULES[finding.code].name}::"
            f"{finding.message}"
        )
    for waiver in stale:
        lines.append(
            f"::warning file={_workspace_path(waiver.path)},"
            f"line={waiver.line},title=stale {waiver.code} waiver::"
            "no finding matches any more; delete it from the baseline"
        )
    lines.append(_summary(new, stale, waived_count))
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
