"""Text and JSON renderings of an :class:`AnalysisReport`.

The JSON schema is versioned and stable -- CI and editor integrations
parse it -- so additions bump ``REPORT_SCHEMA_VERSION`` and never rename
existing keys.  Version 2 added ``flow_path`` per finding (the
interprocedural evidence chain of the FLOW rules), the
``stale_suppressions`` section, and their counters.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.runner import AnalysisReport

REPORT_SCHEMA_VERSION = 2

def render_text(report: AnalysisReport) -> str:
    lines: List[str] = []
    for finding in report.new_findings:
        lines.append(finding.render())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
        for step in finding.flow_path:
            lines.append(f"    flow: {step}")
    if report.baselined:
        lines.append(
            f"{len(report.baselined)} baselined finding(s) suppressed "
            "(see analysis-baseline.json)"
        )
    for entry in report.stale_baseline_entries:
        lines.append(
            f"stale baseline entry: {entry.rule} {entry.path} "
            f"{entry.snippet!r} no longer matches anything -- remove it"
        )
    for finding in report.stale_suppressions:
        lines.append(f"{finding.render()}")
    status = "OK" if report.ok else "FAIL"
    lines.append(
        f"{status}: {len(report.new_findings)} finding(s), "
        f"{len(report.baselined)} baselined, "
        f"{report.suppressed_count} suppressed inline, "
        f"{len(report.stale_suppressions)} stale suppression(s), "
        f"{report.files_scanned} file(s), "
        f"{len(report.rules_run)} rule(s)"
    )
    return "\n".join(lines)


def report_to_dict(report: AnalysisReport) -> Dict[str, Any]:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "target": report.target,
        "ok": report.ok,
        "rules_run": report.rules_run,
        "files_scanned": report.files_scanned,
        "counts": {
            "new": len(report.new_findings),
            "baselined": len(report.baselined),
            "suppressed_inline": report.suppressed_count,
            "stale_baseline_entries": len(report.stale_baseline_entries),
            "stale_suppressions": len(report.stale_suppressions),
        },
        "findings": [f.to_dict() for f in report.new_findings],
        "baselined": [f.to_dict() for f in report.baselined],
        "stale_baseline_entries": [
            e.to_dict() for e in report.stale_baseline_entries
        ],
        "stale_suppressions": [
            f.to_dict() for f in report.stale_suppressions
        ],
    }


def render_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "render_json",
    "render_text",
    "report_to_dict",
]
