"""Whole-program FLOW rules.

Three families on top of the call graph and taint engine:

* **FLOW001-003, seed provenance** -- every generator reaching the
  sampling layers (``repro.variation`` / ``repro.technology`` /
  ``repro.engine.faults``) must be derivable from an explicit seed
  parameter.  The paper reproduction's bit-identity rests on one rule:
  results are a pure function of config and seed.  An ambient or
  hard-coded generator anywhere upstream of the samplers silently forks
  that seed space.
* **FLOW004-006, process-boundary flow** -- values flowing into
  :class:`~repro.engine.ParallelChipRunner` task payloads, pool
  initializers, or durable-queue task envelopes must be picklable by
  module-level name.  WS001/WS002 check the direct argument
  expressions; these rules chase the *indirect* flows (a helper that
  returns a frame-local callable, a local bound to one) that the
  single-module rules cannot see, and FLOW006 applies both layers to
  the service queue where no fork-inheritance escape hatch exists.

All findings carry ``flow_path`` -- the interprocedural chain that
justifies the report -- rendered by every reporter and preserved by
``--write-baseline``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.graph import CallGraph, get_call_graph
from repro.analysis.flow.taint import (
    RngCreation,
    SeedProvenance,
    SinkPredicate,
    attr_chain,
    find_rng_creations,
    propagate_to_sinks,
)
from repro.analysis.registry import Rule, register_rule
from repro.analysis.source import Project, SourceModule
from repro.analysis.rules.worker_safety import POOL_METHODS, TASK_CONSTRUCTORS

#: Packages whose code performs the reproduction's seeded sampling.
SAMPLING_PACKAGES: Tuple[str, ...] = (
    "repro.variation",
    "repro.technology",
    "repro.engine.faults",
)

#: Legacy numpy.random factories that are explicitly seeded at the call
#: site (mirrors the DET002 set); everything else is ambient state.
_SEEDED_NUMPY_FACTORIES = {
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "SFC64", "BitGenerator",
}


def _in_sampling_package(module_name: str) -> bool:
    return any(
        module_name == pkg or module_name.startswith(pkg + ".")
        for pkg in SAMPLING_PACKAGES
    )


class _FlowRule(Rule):
    """Shared plumbing: graph access and path-carrying findings."""

    def _graph(self, project: Project) -> CallGraph:
        return get_call_graph(project)

    def _module_for(
        self, project: Project, module_name: str
    ) -> Optional[SourceModule]:
        return project.by_module_name(module_name)

    def _path_finding(
        self,
        module: SourceModule,
        line: int,
        col: int,
        message: str,
        flow_path: Tuple[str, ...],
    ) -> Finding:
        return Finding(
            path=module.display_path,
            line=line,
            col=col,
            rule=self.rule_id,
            message=message,
            snippet=module.snippet_at(line),
            flow_path=flow_path,
        )


class _SamplingSink(SinkPredicate):
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph

    def __call__(self, qualname: str) -> bool:
        info = self.graph.functions.get(qualname)
        return info is not None and _in_sampling_package(info.module)


def _creation_provenance_ok(
    provenance: SeedProvenance,
    creation: RngCreation,
    *,
    literal_ok: bool,
) -> bool:
    if not creation.seed_args:
        return False
    return any(
        provenance.seed_derived(
            argument, creation.qualname, literal_ok=literal_ok
        )
        for argument in creation.seed_args
    )


@register_rule
class UnseededRngReachesSamplerRule(_FlowRule):
    """FLOW001: an unprovable generator flows into sampling code."""

    rule_id = "FLOW001"
    name = "unseeded-rng-reaches-sampler"
    description = (
        "a numpy Generator / random.Random constructed without seed "
        "provenance flows (interprocedurally) into repro.variation / "
        "repro.technology / repro.engine.faults sampling code"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = self._graph(project)
        provenance = SeedProvenance(graph)
        sink = _SamplingSink(graph)
        findings: List[Finding] = []
        for creation in find_rng_creations(graph):
            if _in_sampling_package(creation.module):
                continue  # FLOW002's jurisdiction
            if _creation_provenance_ok(
                provenance, creation, literal_ok=True
            ):
                continue
            creation_node = self._creation_node(graph, creation)
            if creation_node is None:
                continue
            hits = propagate_to_sinks(
                graph, creation.qualname, creation_node, sink
            )
            module = self._module_for(project, creation.module)
            if module is None:
                continue
            for hit in hits:
                findings.append(self._path_finding(
                    module, creation.lineno, creation.col,
                    f"{creation.factory}() without seed provenance flows "
                    f"into sampling code {hit.sink_qualname}",
                    hit.path,
                ))
        return findings

    @staticmethod
    def _creation_node(
        graph: CallGraph, creation: RngCreation
    ) -> Optional[ast.AST]:
        module = graph.project.by_module_name(creation.module)
        if module is None:
            return None
        for node in ast.walk(module.tree):
            if id(node) == creation.node_id:
                return node
        return None


@register_rule
class SamplingRngProvenanceRule(_FlowRule):
    """FLOW002: RNG construction inside sampling code must thread the
    experiment's explicit seed."""

    rule_id = "FLOW002"
    name = "sampling-rng-without-seed-parameter"
    description = (
        "generators constructed inside repro.variation / repro.technology "
        "/ repro.engine.faults must derive their seed from an explicit "
        "seed parameter or attribute; hard-coded and absent seeds fork "
        "the run's seed space"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = self._graph(project)
        provenance = SeedProvenance(graph)
        findings: List[Finding] = []
        for creation in find_rng_creations(graph):
            if not _in_sampling_package(creation.module):
                continue
            if _creation_provenance_ok(
                provenance, creation, literal_ok=False
            ):
                continue
            module = self._module_for(project, creation.module)
            if module is None:
                continue
            detail = (
                "no seed argument" if not creation.seed_args
                else "seed is not derived from an explicit seed parameter"
            )
            findings.append(self._path_finding(
                module, creation.lineno, creation.col,
                f"{creation.factory}() in sampling code: {detail}",
                (f"{creation.path}:{creation.lineno} in {creation.qualname}",),
            ))
        return findings


@register_rule
class AmbientRngReachableFromSamplerRule(_FlowRule):
    """FLOW003: ambient global RNG reachable from sampling code."""

    rule_id = "FLOW003"
    name = "ambient-rng-reachable-from-sampler"
    description = (
        "a helper reachable from repro.variation / repro.technology / "
        "repro.engine.faults draws from interpreter-global RNG state "
        "(stdlib random.* or legacy numpy.random.*) -- the whole-program "
        "complement of DET001/DET002"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = self._graph(project)
        # Forward closure of every sampling-package function, with a
        # parent pointer so findings can print the witness chain.
        parent: Dict[str, Optional[str]] = {}
        stack: List[str] = []
        for qualname, info in graph.functions.items():
            if _in_sampling_package(info.module):
                parent[qualname] = None
                stack.append(qualname)
        while stack:
            current = stack.pop()
            for edge in graph.callees(current):
                if edge.callee not in parent:
                    parent[edge.callee] = current
                    stack.append(edge.callee)

        findings: List[Finding] = []
        for module in project:
            for owner, node, label in _ambient_rng_calls(graph, module):
                if owner not in parent:
                    continue
                chain: List[str] = []
                cursor: Optional[str] = owner
                while cursor is not None:
                    info = graph.functions[cursor]
                    chain.append(f"{info.path} in {cursor}")
                    cursor = parent[cursor]
                chain.reverse()
                entry = chain[0].split(" in ", 1)[1]
                findings.append(self._path_finding(
                    module, node.lineno, node.col_offset,
                    f"ambient RNG call {label} is reachable from "
                    f"sampling code {entry}",
                    tuple(chain),
                ))
        return findings


def _ambient_rng_calls(
    graph: CallGraph, module: SourceModule
) -> Iterable[Tuple[str, ast.Call, str]]:
    """(owner, call node, label) for every global-state RNG call."""
    random_aliases: Set[str] = set()
    numpy_aliases: Set[str] = set()
    from_random: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                from_random[alias.asname or alias.name] = alias.name
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        owner = graph.owner_of(node)
        if owner is None:
            continue
        chain = attr_chain(node.func)
        if chain is None:
            continue
        if len(chain) == 2 and chain[0] in random_aliases:
            if chain[1] != "Random":
                yield owner, node, f"random.{chain[1]}()"
        elif len(chain) == 1 and chain[0] in from_random:
            original = from_random[chain[0]]
            if original != "Random":
                yield owner, node, f"random.{original}()"
        elif (
            len(chain) == 3
            and chain[0] in numpy_aliases
            and chain[1] == "random"
            and chain[2] not in _SEEDED_NUMPY_FACTORIES
        ):
            yield owner, node, f"numpy.random.{chain[2]}()"


# ----------------------------------------------------------------------
# process-boundary flow
# ----------------------------------------------------------------------


def _frame_local_callables(
    graph: CallGraph, owner: str
) -> Dict[str, str]:
    """Names bound to frame-local callables inside ``owner``."""
    table: Dict[str, str] = {}
    node = graph.function_nodes.get(owner)
    if node is None:
        return table
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if graph.owner_of(sub) == owner:
                table[sub.name] = f"frame-local def {sub.name!r}"
        elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Lambda):
            if graph.owner_of(sub) != owner:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    table[target.id] = f"lambda bound to {target.id!r}"
    return table


def _helper_returns_frame_local(
    graph: CallGraph, helper: str
) -> Optional[str]:
    """A reason string when ``helper`` returns a frame-local callable."""
    node = graph.function_nodes.get(helper)
    if node is None:
        return None
    locals_table = _frame_local_callables(graph, helper)
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Return) or sub.value is None:
            continue
        if graph.owner_of(sub) != helper:
            continue
        if isinstance(sub.value, ast.Lambda):
            return f"{helper}() returns a lambda"
        if isinstance(sub.value, ast.Name) and sub.value.id in locals_table:
            return f"{helper}() returns {locals_table[sub.value.id]}"
    return None


class _BoundaryFlowRule(_FlowRule):
    """Shared machinery for FLOW004/FLOW005."""

    def _indirect_unpicklable(
        self,
        graph: CallGraph,
        module: SourceModule,
        owner: str,
        argument: ast.AST,
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """(reason, flow path) when ``argument`` indirectly carries a
        frame-local callable."""

        def resolve_call(call: ast.Call) -> Optional[str]:
            if isinstance(call.func, ast.Name):
                return graph.resolve_local_name(
                    module.module_name, call.func.id
                )
            return None

        # helper() directly in argument position (incl. inside containers)
        for sub in ast.walk(argument):
            if isinstance(sub, ast.Call):
                helper = resolve_call(sub)
                if helper is not None:
                    reason = _helper_returns_frame_local(graph, helper)
                    if reason is not None:
                        info = graph.functions[helper]
                        return reason, (
                            f"{info.path}:{info.lineno} in {helper}",
                            f"{module.display_path}:{sub.lineno} in {owner}",
                        )
            elif isinstance(sub, ast.Name):
                # A local previously bound from such a helper call.
                provenance = SeedProvenance(graph)
                for value in provenance.assignments_of(owner).get(sub.id, []):
                    if isinstance(value, ast.Call):
                        helper = resolve_call(value)
                        if helper is None:
                            continue
                        reason = _helper_returns_frame_local(graph, helper)
                        if reason is not None:
                            info = graph.functions[helper]
                            return reason, (
                                f"{info.path}:{info.lineno} in {helper}",
                                f"{module.display_path}:{value.lineno} "
                                f"in {owner}",
                                f"{module.display_path}:{sub.lineno} "
                                f"in {owner}",
                            )
        return None


@register_rule
class TaintedTaskPayloadRule(_BoundaryFlowRule):
    """FLOW004: indirect frame-local callables in worker task payloads."""

    rule_id = "FLOW004"
    name = "tainted-task-payload"
    description = (
        "values flowing into ChipBuildTask/EvaluatorSpec/EvalTask "
        "payloads or pool submission calls must be picklable by "
        "module-level name; helpers returning frame-local callables are "
        "caught here even when WS001/WS002 cannot see them"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = self._graph(project)
        findings: List[Finding] = []
        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee_name(node)
                is_payload = callee in TASK_CONSTRUCTORS
                is_pool = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in POOL_METHODS
                )
                if not (is_payload or is_pool):
                    continue
                owner = graph.owner_of(node)
                if owner is None:
                    continue
                what = (
                    "a worker task payload" if is_payload
                    else "a process-pool call"
                )
                arguments: List[ast.AST] = list(node.args)
                arguments.extend(kw.value for kw in node.keywords)
                for argument in arguments:
                    verdict = self._indirect_unpicklable(
                        graph, module, owner, argument
                    )
                    if verdict is not None:
                        reason, path = verdict
                        findings.append(self._path_finding(
                            module, argument.lineno, argument.col_offset,
                            f"{reason}; the result flows into {what} and "
                            "cannot be pickled into a worker process",
                            path,
                        ))
        return findings


#: Queue-payload sites: envelope construction and durable enqueueing.
#: Everything in an envelope is pickled to disk and unpickled by fleet
#: workers in *other* processes (possibly other hosts), so the WS001
#: constraints apply with no fork-inheritance escape hatch.
QUEUE_CONSTRUCTORS: Tuple[str, ...] = ("TaskEnvelope",)
QUEUE_METHODS: Tuple[str, ...] = ("enqueue",)


@register_rule
class TaintedQueuePayloadRule(_BoundaryFlowRule):
    """FLOW006: queue job payloads must pickle across process boundaries.

    The durable task queue (``repro.service.queue``) writes envelopes to
    disk for fleet workers that share no memory with the producer --
    unlike a forked pool, nothing frame-local can ever resolve.  This
    rule applies the WS001 direct checks (lambdas, frame-local
    definitions) plus the FLOW004 indirect chase (helpers returning
    frame-local callables) at every ``TaskEnvelope(...)`` construction
    and ``queue.enqueue(...)`` call.
    """

    rule_id = "FLOW006"
    name = "tainted-queue-payload"
    description = (
        "values flowing into TaskEnvelope(...) or DurableTaskQueue."
        "enqueue(...) are pickled to disk for workers in other "
        "processes; lambdas, frame-local callables, and helper-returned "
        "closures cannot cross that boundary"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = self._graph(project)
        findings: List[Finding] = []
        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee_name(node)
                is_envelope = callee in QUEUE_CONSTRUCTORS
                is_enqueue = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in QUEUE_METHODS
                )
                if not (is_envelope or is_enqueue):
                    continue
                owner = graph.owner_of(node)
                if owner is None:
                    continue
                what = (
                    "a queue task envelope" if is_envelope
                    else "a durable-queue enqueue"
                )
                locals_table = _frame_local_callables(graph, owner)
                arguments: List[ast.AST] = list(node.args)
                arguments.extend(kw.value for kw in node.keywords)
                for argument in arguments:
                    finding = self._check_queue_argument(
                        graph, module, owner, argument, locals_table, what
                    )
                    if finding is not None:
                        findings.append(finding)
        return findings

    def _check_queue_argument(
        self,
        graph: CallGraph,
        module: SourceModule,
        owner: str,
        argument: ast.AST,
        locals_table: Dict[str, str],
        what: str,
    ) -> Optional[Finding]:
        reason: Optional[str] = None
        path: Tuple[str, ...] = (
            f"{module.display_path}:{argument.lineno} in {owner}",
        )
        for sub in ast.walk(argument):
            if isinstance(sub, ast.Lambda):
                reason = "a lambda"
                break
        if reason is None and isinstance(argument, ast.Name):
            if argument.id in locals_table:
                reason = locals_table[argument.id]
        if reason is None:
            verdict = self._indirect_unpicklable(
                graph, module, owner, argument
            )
            if verdict is not None:
                reason, path = verdict
        if reason is None:
            return None
        return self._path_finding(
            module, argument.lineno, argument.col_offset,
            f"{reason} flows into {what} and cannot be unpickled by a "
            "fleet worker process",
            path,
        )


@register_rule
class TaintedPoolInitializerRule(_BoundaryFlowRule):
    """FLOW005: pool initializers must be module-level callables."""

    rule_id = "FLOW005"
    name = "tainted-pool-initializer"
    description = (
        "initializer=/initargs= values handed to a process pool run in "
        "every worker before any task; lambdas, frame-local callables, "
        "and helper-returned closures cannot cross that boundary"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = self._graph(project)
        findings: List[Finding] = []
        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                keywords = {
                    kw.arg: kw.value for kw in node.keywords
                    if kw.arg is not None
                }
                if "initializer" not in keywords:
                    continue
                owner = graph.owner_of(node)
                if owner is None:
                    continue
                locals_table = _frame_local_callables(graph, owner)
                targets: List[ast.AST] = [keywords["initializer"]]
                initargs = keywords.get("initargs")
                if isinstance(initargs, (ast.Tuple, ast.List)):
                    targets.extend(initargs.elts)
                elif initargs is not None:
                    targets.append(initargs)
                for target in targets:
                    finding = self._check_initializer_value(
                        graph, module, owner, target, locals_table
                    )
                    if finding is not None:
                        findings.append(finding)
        return findings

    def _check_initializer_value(
        self,
        graph: CallGraph,
        module: SourceModule,
        owner: str,
        value: ast.AST,
        locals_table: Dict[str, str],
    ) -> Optional[Finding]:
        reason: Optional[str] = None
        path: Tuple[str, ...] = (
            f"{module.display_path}:{value.lineno} in {owner}",
        )
        if isinstance(value, ast.Lambda):
            reason = "a lambda"
        elif isinstance(value, ast.Name):
            if value.id in locals_table:
                reason = locals_table[value.id]
            else:
                resolved = graph.resolve_local_name(
                    module.module_name, value.id
                )
                if resolved is not None:
                    fn_node = graph.function_nodes.get(resolved)
                    if fn_node is not None:
                        enclosing = graph.owner_of(fn_node)
                        enclosing_info = (
                            graph.functions.get(enclosing)
                            if enclosing is not None else None
                        )
                        if (
                            enclosing_info is not None
                            and not enclosing_info.is_module_body
                        ):
                            reason = f"nested function {value.id!r}"
        if reason is None:
            verdict = self._indirect_unpicklable(
                graph, module, owner, value
            )
            if verdict is not None:
                reason, path = verdict
        if reason is None:
            return None
        return self._path_finding(
            module, value.lineno, value.col_offset,
            f"{reason} handed to a pool initializer cannot be pickled "
            "into worker processes",
            path,
        )


def _callee_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


__all__ = [
    "AmbientRngReachableFromSamplerRule",
    "QUEUE_CONSTRUCTORS",
    "QUEUE_METHODS",
    "SAMPLING_PACKAGES",
    "SamplingRngProvenanceRule",
    "TaintedPoolInitializerRule",
    "TaintedQueuePayloadRule",
    "TaintedTaskPayloadRule",
    "UnseededRngReachesSamplerRule",
]
