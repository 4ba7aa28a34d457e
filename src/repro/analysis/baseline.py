"""Checked-in baseline of accepted findings.

The baseline is the pressure valve that lets the pass ship strict rules:
a justified false positive gets an entry (with a mandatory human-written
``reason``) instead of a weakening of the rule.  Entries match findings
on ``(rule, path, snippet)`` -- content, not line numbers -- so edits
elsewhere in a file do not invalidate them.  Entries that no longer
match anything are reported as stale so the file can only shrink or be
deliberately grown, never rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.analysis.findings import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "analysis-baseline.json"


@dataclass
class BaselineEntry:
    rule: str
    path: str
    snippet: str
    reason: str
    flow_path: Tuple[str, ...] = ()
    """Interprocedural evidence chain captured with path-carrying (FLOW)
    findings at ``--write-baseline`` time.  Purely documentary: matching
    stays on ``(rule, path, snippet)`` so a refactor elsewhere in the
    chain does not invalidate the accepted entry."""

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "path": self.path,
            "snippet": self.snippet,
            "reason": self.reason,
        }
        if self.flow_path:
            payload["flow_path"] = list(self.flow_path)
        return payload


@dataclass
class Baseline:
    entries: List[BaselineEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or "findings" not in data:
            raise ValueError(f"{path}: not a baseline file")
        version = data.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"{path}: baseline version {version!r}, expected "
                f"{BASELINE_VERSION}"
            )
        entries = []
        for raw in data["findings"]:
            entries.append(BaselineEntry(
                rule=str(raw["rule"]),
                path=str(raw["path"]),
                snippet=str(raw["snippet"]),
                reason=str(raw.get("reason", "")),
                flow_path=tuple(
                    str(step) for step in raw.get("flow_path", ())
                ),
            ))
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        payload: Dict[str, Any] = {
            "version": BASELINE_VERSION,
            "findings": [
                entry.to_dict()
                for entry in sorted(self.entries, key=lambda e: e.key)
            ],
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def from_findings(
        cls, findings: List[Finding], reason: str
    ) -> "Baseline":
        entries = [
            BaselineEntry(
                rule=f.rule, path=f.path, snippet=f.snippet, reason=reason,
                flow_path=f.flow_path,
            )
            for f in findings
        ]
        return cls(entries=entries)

    def partition(
        self, findings: List[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Split findings into (new, baselined); also return stale entries.

        Matching is multiset-aware: one entry absorbs one finding, so a
        *second* occurrence of an already-baselined pattern still fails
        the run.
        """
        budget: Dict[Tuple[str, str, str], int] = {}
        for entry in self.entries:
            budget[entry.key] = budget.get(entry.key, 0) + 1
        new: List[Finding] = []
        matched: List[Finding] = []
        for finding in findings:
            key = finding.baseline_key
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                matched.append(finding)
            else:
                new.append(finding)
        stale = [e for e in self.entries if budget.get(e.key, 0) > 0]
        consumed: Dict[Tuple[str, str, str], int] = {}
        unused: List[BaselineEntry] = []
        for entry in stale:
            remaining = budget.get(entry.key, 0)
            used = consumed.get(entry.key, 0)
            if used < remaining:
                unused.append(entry)
                consumed[entry.key] = used + 1
        return new, matched, unused


__all__ = [
    "BASELINE_VERSION",
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
]
