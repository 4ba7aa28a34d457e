"""Whole-program import/call graph over a parsed :class:`Project`.

The graph is the substrate under the interprocedural FLOW rules: one
:class:`FunctionInfo` per function, method, and module body, connected by
:class:`CallEdge` s.

An edge is recorded only where the callee resolves precisely: through
the module's imports (including facade re-export chains such as ``from
repro import evaluate_many``), a module-level definition, or a
``self.method()`` call on the enclosing class.  Calls through receivers
the analysis cannot type get no edge, trading recall for a tolerable
false-positive rate in the taint engine that walks the graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.source import Project, SourceModule

MODULE_BODY = "<module>"
"""Pseudo-function name covering a module's top-level statements."""


@dataclass(frozen=True)
class FunctionInfo:
    """One node of the call graph: a function, method, or module body."""

    qualname: str
    """Fully dotted name (``repro.core.batcheval.evaluate`` or
    ``repro.variation.montecarlo.VariationSampler.sample_chip``); module
    bodies use the ``<module>`` suffix."""
    module: str
    path: str
    name: str
    lineno: int
    class_name: Optional[str] = None

    @property
    def is_module_body(self) -> bool:
        return self.name == MODULE_BODY


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller -> callee edge."""

    caller: str
    callee: str
    lineno: int


@dataclass
class CallGraph:
    """The whole-program function index plus its call edges."""

    project: Project
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    edges: Dict[str, List[CallEdge]] = field(default_factory=dict)
    reverse_edges: Dict[str, List[CallEdge]] = field(default_factory=dict)
    imports: Dict[str, Dict[str, str]] = field(default_factory=dict)
    """Per module: local name -> dotted target it was imported as."""
    function_nodes: Dict[str, ast.AST] = field(default_factory=dict)
    """qualname -> defining AST node (absent for module bodies)."""
    owner_of_node: Dict[int, str] = field(default_factory=dict)
    """id(ast node) -> qualname of the innermost enclosing function."""

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        return self.reverse_edges.get(qualname, [])

    def owner_of(self, node: ast.AST) -> Optional[str]:
        return self.owner_of_node.get(id(node))

    def resolve_local_name(self, module: str, name: str) -> Optional[str]:
        """What dotted target ``name`` means at module scope, if known."""
        candidate = f"{module}.{name}"
        if candidate in self.functions:
            return candidate
        imported = self.imports.get(module, {}).get(name)
        if imported is None:
            return None
        return self._resolve_export(imported)

    def _resolve_export(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Follow facade re-export chains to a defining function."""
        if _depth > 16:
            return None
        if dotted in self.functions:
            return dotted
        head, _, leaf = dotted.rpartition(".")
        if not head:
            return None
        forwarded = self.imports.get(head, {}).get(leaf)
        if forwarded is not None and forwarded != dotted:
            return self._resolve_export(forwarded, _depth + 1)
        return None


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def _module_imports(module: SourceModule) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                # Relative imports: resolve against the package path.
                package_parts = module.module_name.split(".")
                # ``from . import x`` inside repro/engine/__init__ has
                # module_name repro.engine, level 1 -> base repro.engine.
                if module.path.name == "__init__.py":
                    base_parts = package_parts[: len(package_parts) - node.level + 1]
                else:
                    base_parts = package_parts[: len(package_parts) - node.level]
                base = ".".join(
                    part for part in base_parts if part
                )
                prefix = f"{base}.{node.module}" if node.module else base
            else:
                prefix = node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{prefix}.{alias.name}"
    return table


class _FunctionIndexer(ast.NodeVisitor):
    """First pass: one FunctionInfo per def/class-method/module body."""

    def __init__(self, module: SourceModule, graph: CallGraph) -> None:
        self.module = module
        self.graph = graph
        self.scope: List[str] = []
        self.class_stack: List[str] = []

    def _add(self, node: ast.AST, name: str) -> str:
        qualname = ".".join([self.module.module_name, *self.scope, name])
        info = FunctionInfo(
            qualname=qualname,
            module=self.module.module_name,
            path=self.module.display_path,
            name=name,
            lineno=node.lineno,
            class_name=self.class_stack[-1] if self.class_stack else None,
        )
        self.graph.functions[qualname] = info
        self.graph.function_nodes[qualname] = node
        return qualname

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node: ast.AST) -> None:
        name = getattr(node, "name")
        self._add(node, name)
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()


def _index_module(module: SourceModule, graph: CallGraph) -> None:
    body_qualname = f"{module.module_name}.{MODULE_BODY}"
    graph.functions[body_qualname] = FunctionInfo(
        qualname=body_qualname,
        module=module.module_name,
        path=module.display_path,
        name=MODULE_BODY,
        lineno=1,
    )
    _FunctionIndexer(module, graph).visit(module.tree)


def _assign_owners(module: SourceModule, graph: CallGraph) -> None:
    """Map every AST node to the innermost enclosing function qualname."""
    body_qualname = f"{module.module_name}.{MODULE_BODY}"

    def walk(node: ast.AST, owner: str, scope: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_qual = ".".join(
                    [module.module_name, *scope, child.name]
                )
                graph.owner_of_node[id(child)] = owner
                scope.append(child.name)
                # Decorators and defaults evaluate in the outer frame.
                for outer_part in [
                    *child.decorator_list,
                    *child.args.defaults,
                    *[d for d in child.args.kw_defaults if d is not None],
                ]:
                    graph.owner_of_node[id(outer_part)] = owner
                    walk(outer_part, owner, scope)
                walk_body(child, child_qual, scope)
                scope.pop()
            elif isinstance(child, ast.ClassDef):
                graph.owner_of_node[id(child)] = owner
                scope.append(child.name)
                walk(child, owner, scope)
                scope.pop()
            else:
                graph.owner_of_node[id(child)] = owner
                walk(child, owner, scope)

    def walk_body(fn: ast.AST, qualname: str, scope: List[str]) -> None:
        for stmt in getattr(fn, "body", []):
            graph.owner_of_node[id(stmt)] = qualname
            walk(stmt, qualname, scope)

    graph.owner_of_node[id(module.tree)] = body_qualname
    walk(module.tree, body_qualname, [])


def _class_of(graph: CallGraph, module: str, owner_qualname: str) -> Optional[str]:
    info = graph.functions.get(owner_qualname)
    if info is None or info.class_name is None:
        return None
    # qualname = module.Class.method -> module.Class
    head, _, _ = owner_qualname.rpartition(".")
    return head


def _extract_edges(module: SourceModule, graph: CallGraph) -> None:
    imports = graph.imports[module.module_name]

    def add_edge(caller: str, callee: str, lineno: int) -> None:
        edge = CallEdge(caller=caller, callee=callee, lineno=lineno)
        graph.edges.setdefault(caller, []).append(edge)
        graph.reverse_edges.setdefault(callee, []).append(edge)

    def resolve_dotted(chain: List[str]) -> Optional[str]:
        """``mod.sub.func`` through the import table, re-export aware."""
        root = chain[0]
        target = imports.get(root)
        if target is None:
            return None
        dotted = ".".join([target, *chain[1:]])
        return graph._resolve_export(dotted)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        owner = graph.owner_of(node)
        if owner is None:
            continue
        func = node.func
        resolved = None
        if isinstance(func, ast.Name):
            resolved = graph.resolve_local_name(module.module_name, func.id)
        elif isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain is not None:
                if (
                    chain[0] == "self"
                    and len(chain) == 2
                    and (cls := _class_of(graph, module.module_name, owner))
                ):
                    method = f"{cls}.{chain[1]}"
                    if method in graph.functions:
                        resolved = method
                if resolved is None:
                    resolved = resolve_dotted(chain)
        if resolved is not None:
            add_edge(owner, resolved, node.lineno)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.insert(0, node.id)
        return parts
    return None


def build_call_graph(project: Project) -> CallGraph:
    """Build the whole-program graph for ``project`` (deterministic)."""
    graph = CallGraph(project=project)
    for module in project:
        graph.imports[module.module_name] = _module_imports(module)
        _index_module(module, graph)
    for module in project:
        _assign_owners(module, graph)
    for module in project:
        _extract_edges(module, graph)
    return graph


_GRAPH_ATTR = "_flow_call_graph"


def get_call_graph(project: Project) -> CallGraph:
    """The memoised call graph for ``project`` (built once per run)."""
    cached = getattr(project, _GRAPH_ATTR, None)
    if cached is None:
        cached = build_call_graph(project)
        setattr(project, _GRAPH_ATTR, cached)
    return cached


__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "MODULE_BODY",
    "build_call_graph",
    "get_call_graph",
]
