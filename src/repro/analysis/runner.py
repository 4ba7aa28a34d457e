"""Orchestration: walk files, run rules, apply suppressions and baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, get_rule
from repro.analysis.source import Project, SourceModule, collect_modules

STALE_SUPPRESSION_RULE = "META001"
"""Meta-finding id for ``# repro: ignore[...]`` comments that no longer
suppress anything.  Not a registered rule: it is derived from the run's
own suppression accounting, so it cannot be selected or suppressed."""


@dataclass
class AnalysisReport:
    """Everything one run produced, pre-sorted and pre-partitioned.

    ``new_findings`` is what gates CI; ``baselined`` and
    ``stale_baseline_entries`` keep the accepted-debt ledger visible in
    every report instead of silently absorbed.  ``stale_suppressions``
    does the same for inline ``# repro: ignore`` comments whose rule no
    longer fires on the line -- informational by default, gating under
    ``--strict-suppressions``.
    """

    target: str
    rules_run: List[str]
    new_findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    stale_baseline_entries: List[BaselineEntry] = field(default_factory=list)
    stale_suppressions: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.new_findings


def resolve_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    if select is None:
        return all_rules()
    return [get_rule(rule_id) for rule_id in select]


def run_analysis(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    display_root: Optional[Path] = None,
) -> AnalysisReport:
    """Run the selected rules over ``paths`` and return the report.

    Findings are deterministic: files are visited in sorted order, rules
    in id order, and the result list is fully sorted -- two runs over
    the same tree always emit byte-identical reports.
    """
    root = display_root if display_root is not None else Path.cwd()
    project: Project = collect_modules(list(paths), root)
    rules = resolve_rules(select)

    raw: List[Finding] = []
    for rule in rules:
        for module in project:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(project))

    kept: List[Finding] = []
    suppressed = 0
    used_suppressions: Dict[Tuple[str, int], Set[str]] = {}
    modules_by_path = {m.display_path: m for m in project}
    for finding in raw:
        module = modules_by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.line, finding.rule):
            suppressed += 1
            used_suppressions.setdefault(
                (finding.path, finding.line), set()
            ).add(finding.rule.upper())
        else:
            kept.append(finding)
    kept.sort()

    if baseline is not None:
        new, matched, stale = baseline.partition(kept)
    else:
        new, matched, stale = kept, [], []

    return AnalysisReport(
        target=", ".join(str(p) for p in paths),
        rules_run=[rule.rule_id for rule in rules],
        new_findings=sorted(new),
        baselined=sorted(matched),
        suppressed_count=suppressed,
        stale_baseline_entries=stale,
        stale_suppressions=_stale_suppressions(
            project, [rule.rule_id for rule in rules],
            used_suppressions, full_rule_set=select is None,
        ),
        files_scanned=len(project.modules),
    )


def _stale_suppressions(
    project: Project,
    rules_run: Sequence[str],
    used: Dict[Tuple[str, int], Set[str]],
    *,
    full_rule_set: bool,
) -> List[Finding]:
    """``# repro: ignore`` comments that suppressed nothing this run.

    A named id is judged only when its rule actually ran; a bare (ruleless)
    comment only when the full rule set ran -- otherwise a ``--select``
    subset would mark every unrelated suppression stale.
    """
    active = {rule_id.upper() for rule_id in rules_run}
    findings: List[Finding] = []
    for module in project:
        for line, rule_ids in sorted(module.suppressions.items()):
            consumed = used.get((module.display_path, line), set())
            if rule_ids is None:
                if full_rule_set and not consumed:
                    findings.append(_stale_suppression_finding(
                        module, line,
                        "no rule fires on this line; remove the bare "
                        "'# repro: ignore'",
                    ))
                continue
            for rule_id in sorted(rule_ids):
                if rule_id in active and rule_id not in consumed:
                    findings.append(_stale_suppression_finding(
                        module, line,
                        f"{rule_id} no longer fires on this line; remove "
                        f"it from the '# repro: ignore[{rule_id}]' comment",
                    ))
    findings.sort()
    return findings


def _stale_suppression_finding(
    module: SourceModule, line: int, message: str
) -> Finding:
    return Finding(
        path=module.display_path,
        line=line,
        col=0,
        rule=STALE_SUPPRESSION_RULE,
        message=f"stale suppression: {message}",
        snippet=module.snippet_at(line),
    )


__all__ = [
    "AnalysisReport",
    "STALE_SUPPRESSION_RULE",
    "resolve_rules",
    "run_analysis",
]
