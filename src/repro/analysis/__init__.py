"""repro.analysis -- static invariants for the reproduction.

An AST-based linter enforcing, at commit time, the properties the
runtime test suite can only spot-check:

* **determinism** (DET001-DET006) -- no global RNG state, wall-clock
  reads, hash-order iteration, worker environment reads, or mutable
  default arguments;
* **unit consistency** (UNIT001-UNIT003) -- physical quantities route
  through :mod:`repro.units` instead of hand-rolled power-of-ten
  factors;
* **API drift** (API001-API003) -- ``__all__`` declarations match
  definitions and the ``repro`` facade re-exports stay consistent;
* **worker safety** (WS001-WS002) -- payloads submitted to
  :class:`~repro.engine.ParallelChipRunner` are statically picklable;
* **whole-program flow** (FLOW001-FLOW005) -- interprocedural seed
  provenance (every RNG reaching sampling code derives from an explicit
  seed parameter) and process-boundary flow (values reaching worker
  payloads and pool initializers are worker-safe), built on the call
  graph in :mod:`repro.analysis.flow`.

Run it with ``python -m repro.analysis src/repro``.  Accepted findings
live in ``analysis-baseline.json`` (with reasons); one-off exemptions
use a ``# repro: ignore[RULE-ID]`` comment on the flagged line --
comments that no longer suppress anything are themselves reported
(META001, gating under ``--strict-suppressions``).
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    Rule,
    all_rules,
    get_rule,
    register_rule,
    rule_ids,
)
from repro.analysis.reporters import (
    REPORT_SCHEMA_VERSION,
    render_json,
    render_text,
    report_to_dict,
)
from repro.analysis.runner import (
    AnalysisReport,
    STALE_SUPPRESSION_RULE,
    run_analysis,
)
from repro.analysis.source import Project, SourceModule, collect_modules

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "Project",
    "REPORT_SCHEMA_VERSION",
    "Rule",
    "STALE_SUPPRESSION_RULE",
    "SourceModule",
    "all_rules",
    "collect_modules",
    "get_rule",
    "register_rule",
    "render_json",
    "render_text",
    "report_to_dict",
    "rule_ids",
    "run_analysis",
]
