"""API-drift rules (API).

``__all__`` is the contract between the packages and the ``repro``
facade; PR 1 and PR 2 both widened it.  These rules keep the contract
honest statically: every exported name must exist, every public
definition must be exported, and the facade's re-export list must agree
with what the subpackages actually declare.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.source import Project, SourceModule

#: Symbols the top-level facade must keep re-exporting: the evaluation
#: entry points (PR 2) and the engine surface (PR 1).
REQUIRED_FACADE_EXPORTS: Tuple[str, ...] = (
    "evaluate",
    "evaluate_many",
    "Evaluator",
    "ParallelChipRunner",
    "EvaluatorSpec",
    "EvalTask",
    "Experiment",
    "ResultCache",
    "RunObserver",
    "ExecutionService",
)

FACADE_MODULE = "repro"

#: The cell-backend protocol (PR 7).  A backend subclass that skips one
#: of these methods would only fail at sampling/evaluation time; the
#: static rule moves that failure to lint time.  Kept in sync with
#: ``repro.technology.backends.BACKEND_PROTOCOL_METHODS`` by a test.
BACKEND_BASE_NAME = "TechnologyBackend"
BACKEND_HOME = "repro.technology.backends"
BACKEND_REQUIRED_METHODS: Tuple[str, ...] = (
    "cell_timing",
    "cell_energy",
    "leakage_power",
    "nominal_retention_time",
    "sample_retention_map",
    "refresh_cost",
    "latency_model",
)


def declared_all(tree: ast.Module) -> Optional[List[Tuple[str, int]]]:
    """``__all__`` entries with line numbers, or None when undeclared.

    Handles plain assignment and ``__all__ += [...]`` / ``__all__ =
    __all__ + [...]`` extension, which is how conditional exports are
    usually spelled.
    """
    entries: List[Tuple[str, int]] = []
    found = False

    def harvest(value: ast.AST) -> None:
        nonlocal found
        if isinstance(value, (ast.List, ast.Tuple)):
            found = True
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    entries.append((element.value, element.lineno))
        elif isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
            harvest(value.left)
            harvest(value.right)

    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                harvest(node.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                harvest(node.value)
    return entries if found else None


def module_bindings(tree: ast.Module) -> Set[str]:
    """Names statically bound at module top level (defs, imports, assigns)."""
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional imports/definitions still bind on some path.
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                    bound.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name.split(".")[0])
    return bound


def getattr_provided_names(tree: ast.Module) -> Set[str]:
    """Names a module-level ``__getattr__`` serves lazily.

    Two idioms count as legitimate exports without a top-level binding:
    string compares (``if name == "ExperimentContext": ...``) and a
    lookup in a module-level registry dict (``_LAZY_EXPORTS[name]``),
    whose string keys are harvested.
    """
    provided: Set[str] = set()
    dict_keys: Dict[str, Set[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        keys = {
            key.value
            for key in node.value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        for target in node.targets:
            if isinstance(target, ast.Name):
                dict_keys[target.id] = keys
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name == "__getattr__"):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                operands = [sub.left] + list(sub.comparators)
                names = {o.id for o in operands if isinstance(o, ast.Name)}
                if "name" not in names:
                    continue
                for operand in operands:
                    if isinstance(operand, ast.Constant) and isinstance(
                        operand.value, str
                    ):
                        provided.add(operand.value)
            elif isinstance(sub, ast.Subscript):
                if not isinstance(sub.value, ast.Name):
                    continue
                registry = dict_keys.get(sub.value.id)
                if registry is None:
                    continue
                if any(
                    isinstance(part, ast.Name) and part.id == "name"
                    for part in ast.walk(sub.slice)
                ):
                    provided.update(registry)
    return provided


@register_rule
class ExportedNameUndefinedRule(Rule):
    """API001: ``__all__`` lists a name the module never binds."""

    rule_id = "API001"
    name = "exported-name-undefined"
    description = (
        "a name in __all__ with no top-level binding breaks "
        "'from pkg import name' and wildcard imports"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        exported = declared_all(module.tree)
        if exported is None:
            return ()
        bound = module_bindings(module.tree) | getattr_provided_names(module.tree)
        findings: List[Finding] = []
        for name, line in exported:
            if name not in bound:
                findings.append(self.finding(
                    module, line, 0,
                    f"__all__ exports {name!r} but the module never binds it",
                ))
        return findings


@register_rule
class PublicNameUnexportedRule(Rule):
    """API002: public top-level defs/classes missing from ``__all__``."""

    rule_id = "API002"
    name = "public-name-unexported"
    description = (
        "a public def/class absent from a declared __all__ silently "
        "drops out of the package surface and wildcard imports"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        exported = declared_all(module.tree)
        if exported is None:
            return ()
        exported_names = {name for name, _ in exported}
        findings: List[Finding] = []
        for node in module.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if node.name not in exported_names:
                findings.append(self.finding(
                    module, node.lineno, node.col_offset,
                    f"public {node.name!r} is defined here but missing "
                    "from __all__",
                ))
        return findings


@register_rule
class FacadeDriftRule(Rule):
    """API003: the ``repro`` facade vs. subpackage ``__all__`` contracts.

    Three checks, all cross-file:

    * every ``from repro.X import name`` in the facade must name something
      ``repro.X.__all__`` actually declares;
    * every name the facade binds via those imports must appear in the
      facade's own ``__all__`` (a re-export that is not exported is
      drift waiting to be noticed);
    * the required evaluation/engine symbols stay in the facade surface.
    """

    rule_id = "API003"
    name = "facade-drift"
    description = (
        "repro/__init__.py re-exports must match subpackage __all__ "
        "declarations and keep the evaluate/evaluate_many/engine surface"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        facade = project.by_module_name(FACADE_MODULE)
        if facade is None:
            return ()
        findings: List[Finding] = []
        facade_all = declared_all(facade.tree)
        facade_names = {name for name, _ in facade_all} if facade_all else set()

        subpackage_alls: Dict[str, Set[str]] = {}
        for imp in facade.tree.body:
            if not isinstance(imp, ast.ImportFrom) or imp.module is None:
                continue
            if not imp.module.startswith(FACADE_MODULE + "."):
                continue
            source = project.by_module_name(imp.module)
            if source is not None and imp.module not in subpackage_alls:
                source_all = declared_all(source.tree)
                if source_all is not None:
                    subpackage_alls[imp.module] = {n for n, _ in source_all}
            declared = subpackage_alls.get(imp.module)
            for alias in imp.names:
                if alias.name == "*":
                    continue
                if declared is not None and alias.name not in declared:
                    findings.append(self.finding(
                        facade, imp.lineno, imp.col_offset,
                        f"facade imports {alias.name!r} from {imp.module} "
                        "but that package does not export it in __all__",
                    ))
                local = alias.asname or alias.name
                if facade_all is not None and local not in facade_names:
                    findings.append(self.finding(
                        facade, imp.lineno, imp.col_offset,
                        f"facade binds {local!r} from {imp.module} but "
                        "omits it from repro.__all__",
                    ))
        if facade_all is not None:
            for required in REQUIRED_FACADE_EXPORTS:
                if required not in facade_names:
                    findings.append(self.finding(
                        facade, 1, 0,
                        f"required facade export {required!r} is missing "
                        "from repro.__all__",
                    ))
        return findings


@register_rule
class TechnologyBackendConformanceRule(Rule):
    """API005: backend subclasses must satisfy the whole protocol.

    Every class that derives from
    :class:`repro.technology.backends.TechnologyBackend` (directly, by
    plain or attribute-qualified base name) must define all of the
    protocol's methods.  A partial backend imports cleanly and only
    explodes once a chip is sampled or an evaluator configured; this
    rule surfaces the gap statically, next to API001-003 in the same
    baseline/CI gate.
    """

    rule_id = "API005"
    name = "technology-backend-conformance"
    description = (
        "a TechnologyBackend subclass missing protocol methods defers "
        "its failure to chip-sampling time; implement the full "
        "cell_timing/.../latency_model surface"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == BACKEND_BASE_NAME:
                # The ABC itself declares the protocol.
                continue
            if not any(
                (isinstance(base, ast.Name) and base.id == BACKEND_BASE_NAME)
                or (isinstance(base, ast.Attribute)
                    and base.attr == BACKEND_BASE_NAME)
                for base in node.bases
            ):
                continue
            defined = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            missing = [
                method
                for method in BACKEND_REQUIRED_METHODS
                if method not in defined
            ]
            if missing:
                findings.append(self.finding(
                    module, node.lineno, node.col_offset,
                    f"backend {node.name!r} does not implement protocol "
                    f"method(s) {', '.join(repr(m) for m in missing)}; "
                    "every TechnologyBackend subclass must define the "
                    "full cell/retention/refresh/latency surface",
                ))
        return findings


__all__ = [
    "BACKEND_BASE_NAME",
    "BACKEND_HOME",
    "BACKEND_REQUIRED_METHODS",
    "ExportedNameUndefinedRule",
    "FacadeDriftRule",
    "PublicNameUnexportedRule",
    "REQUIRED_FACADE_EXPORTS",
    "TechnologyBackendConformanceRule",
    "declared_all",
    "getattr_provided_names",
    "module_bindings",
]
