"""repro.analysis.flow -- whole-program flow analysis.

The subpackage the interprocedural layer lives in:

* :mod:`~repro.analysis.flow.graph` -- module resolution, function
  indexing, and call-edge extraction (through facade re-exports) over a
  parsed :class:`~repro.analysis.Project`;
* :mod:`~repro.analysis.flow.taint` -- demand-driven seed-provenance
  proofs and forward value taint on top of the graph;
* :mod:`~repro.analysis.flow.rules` -- the FLOW001-005 rule families
  (seed provenance, process-boundary flow), registered with the stock
  rule registry on import.
"""

from repro.analysis.flow.graph import (
    CallEdge,
    CallGraph,
    FunctionInfo,
    MODULE_BODY,
    build_call_graph,
    get_call_graph,
)
from repro.analysis.flow.rules import SAMPLING_PACKAGES
from repro.analysis.flow.taint import (
    RngCreation,
    SeedProvenance,
    TaintHit,
    find_rng_creations,
    propagate_to_sinks,
)

__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "MODULE_BODY",
    "RngCreation",
    "SAMPLING_PACKAGES",
    "SeedProvenance",
    "TaintHit",
    "build_call_graph",
    "find_rng_creations",
    "get_call_graph",
    "propagate_to_sinks",
]
