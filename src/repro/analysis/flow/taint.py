"""Interprocedural taint and seed-provenance engine.

Two analyses share the :class:`~repro.analysis.flow.graph.CallGraph`:

* **seed provenance** -- every RNG construction site
  (``numpy.random.default_rng`` / ``numpy.random.Generator`` /
  ``random.Random``) is classified by where its seed argument comes
  from.  The check is *demand-driven and interprocedural*: a seed that
  is a plain parameter of the enclosing function is proven by walking
  the (direct) call sites and checking the argument each one passes,
  recursively, so ``chip_from_seed(chip_id, chip_seed)`` is proven by
  the ``reserve_chip_seeds`` draw feeding it two frames up.

* **value taint** -- a tainted value (an unseeded RNG, a frame-local
  callable) is propagated forward through local assignments, argument
  binding at direct call edges, and function returns, until it reaches
  a sink or the frontier is exhausted.  Paths are recorded so findings
  can print the full call chain.

Both walks follow only the graph's resolved call edges; calls through
untyped receivers have no edge, so the walks trade recall for findings
that are not drowned in false positives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.graph import CallGraph
from repro.analysis.source import SourceModule

#: Parameter / attribute names accepted as explicit seed carriers.
SEED_NAME_RE = re.compile(r"seed", re.IGNORECASE)

#: Methods on an already-seeded generator whose result is itself
#: seed-derived (the serial seed-reservation idiom).
DERIVED_DRAW_METHODS = {
    "integers", "spawn", "random", "normal", "choice", "bit_generator",
    "bytes", "jumped",
}

#: Pure transforms through which seed-derivation is preserved.
SEED_TRANSPARENT_CALLS = {"int", "abs", "hash", "crc32", "adler32", "round"}

MAX_PROVENANCE_DEPTH = 24


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.insert(0, node.id)
        return parts
    return None


@dataclass(frozen=True)
class RngCreation:
    """One RNG construction site."""

    qualname: str
    """Function whose body constructs the generator."""
    module: str
    path: str
    lineno: int
    col: int
    factory: str
    """Human-readable factory (``default_rng`` / ``Generator`` /
    ``random.Random``)."""
    node_id: int
    seed_args: Tuple[ast.AST, ...]


def _rng_factory(call: ast.Call, module: SourceModule,
                 numpy_aliases: Set[str], random_aliases: Set[str],
                 from_names: Dict[str, str]) -> Optional[str]:
    chain = attr_chain(call.func)
    if chain is None:
        return None
    if len(chain) == 3 and chain[0] in numpy_aliases and chain[1] == "random":
        if chain[2] in ("default_rng", "Generator"):
            return chain[2]
        return None
    if len(chain) == 2 and chain[0] in random_aliases and chain[1] == "Random":
        return "random.Random"
    if len(chain) == 1:
        original = from_names.get(chain[0])
        if original in ("default_rng", "Generator"):
            return original
        if original == "Random":
            return "random.Random"
    return None


def _module_rng_aliases(
    module: SourceModule,
) -> Tuple[Set[str], Set[str], Dict[str, str]]:
    numpy_aliases: Set[str] = set()
    random_aliases: Set[str] = set()
    from_names: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "random":
                    random_aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("numpy.random", "random"):
                for alias in node.names:
                    from_names[alias.asname or alias.name] = alias.name
    return numpy_aliases, random_aliases, from_names


def find_rng_creations(graph: CallGraph) -> List[RngCreation]:
    """Every RNG construction site in the project, in file order."""
    creations: List[RngCreation] = []
    for module in graph.project:
        numpy_aliases, random_aliases, from_names = _module_rng_aliases(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            factory = _rng_factory(
                node, module, numpy_aliases, random_aliases, from_names
            )
            if factory is None:
                continue
            owner = graph.owner_of(node)
            if owner is None:
                continue
            args: List[ast.AST] = list(node.args)
            args.extend(kw.value for kw in node.keywords)
            creations.append(RngCreation(
                qualname=owner,
                module=module.module_name,
                path=module.display_path,
                lineno=node.lineno,
                col=node.col_offset,
                factory=factory,
                node_id=id(node),
                seed_args=tuple(args),
            ))
    return creations


# ----------------------------------------------------------------------
# seed provenance
# ----------------------------------------------------------------------


class SeedProvenance:
    """Demand-driven interprocedural seed-derivation proofs."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._assignments: Dict[str, Dict[str, List[ast.AST]]] = {}
        self._params: Dict[str, List[str]] = {}

    # -- per-function tables -------------------------------------------

    def _function_node(self, qualname: str) -> Optional[ast.AST]:
        return self.graph.function_nodes.get(qualname)

    def params_of(self, qualname: str) -> List[str]:
        if qualname not in self._params:
            node = self._function_node(qualname)
            names: List[str] = []
            if node is not None and hasattr(node, "args"):
                arguments = node.args
                names = [a.arg for a in (
                    *arguments.posonlyargs, *arguments.args,
                    *arguments.kwonlyargs,
                )]
            self._params[qualname] = names
        return self._params[qualname]

    def assignments_of(self, qualname: str) -> Dict[str, List[ast.AST]]:
        """Local name -> expressions assigned to it inside ``qualname``."""
        if qualname not in self._assignments:
            table: Dict[str, List[ast.AST]] = {}
            node = self._function_node(qualname)
            if node is not None:
                for sub in ast.walk(node):
                    if self.graph.owner_of(sub) != qualname:
                        continue
                    targets: List[ast.AST] = []
                    value: Optional[ast.AST] = None
                    if isinstance(sub, ast.Assign):
                        targets, value = sub.targets, sub.value
                    elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                        targets, value = [sub.target], sub.value
                    elif isinstance(sub, ast.NamedExpr):
                        targets, value = [sub.target], sub.value
                    if value is None:
                        continue
                    for target in targets:
                        if isinstance(target, ast.Name):
                            table.setdefault(target.id, []).append(value)
            self._assignments[qualname] = table
        return self._assignments[qualname]

    def _returns_of(self, qualname: str) -> List[ast.AST]:
        node = self._function_node(qualname)
        if node is None:
            return []
        return [
            sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Return) and sub.value is not None
            and self.graph.owner_of(sub) == qualname
        ]

    # -- the proof ------------------------------------------------------

    def seed_derived(
        self,
        expr: ast.AST,
        owner: str,
        *,
        literal_ok: bool,
        _stack: Optional[Set[Tuple[str, str]]] = None,
        _depth: int = 0,
    ) -> bool:
        """Can ``expr`` (evaluated inside ``owner``) be proven to derive
        from an explicit seed?

        ``literal_ok`` distinguishes the two policies: reproducibility
        (FLOW001: a constant literal is a fixed seed, fine) and
        provenance (FLOW002: sampling code must thread the *experiment's*
        seed parameter; a hard-coded literal silently forks the seed
        space).
        """
        if _depth > MAX_PROVENANCE_DEPTH:
            return False
        stack = _stack if _stack is not None else set()

        if isinstance(expr, ast.Constant):
            return literal_ok
        if isinstance(expr, ast.Name):
            return self._name_seed_derived(
                expr.id, owner, literal_ok=literal_ok,
                _stack=stack, _depth=_depth,
            )
        if isinstance(expr, ast.Attribute):
            if SEED_NAME_RE.search(expr.attr):
                return True
            chain = attr_chain(expr)
            if chain is not None and chain[0] == "self":
                return self._self_attribute_seed_derived(
                    chain, owner, literal_ok=literal_ok,
                    _stack=stack, _depth=_depth,
                )
            return False
        if isinstance(expr, (ast.Tuple, ast.List)):
            return any(
                self.seed_derived(
                    element, owner, literal_ok=literal_ok,
                    _stack=stack, _depth=_depth + 1,
                )
                for element in expr.elts
            )
        if isinstance(expr, ast.BinOp):
            return any(
                self.seed_derived(
                    side, owner, literal_ok=literal_ok,
                    _stack=stack, _depth=_depth + 1,
                )
                for side in (expr.left, expr.right)
            )
        if isinstance(expr, ast.UnaryOp):
            return self.seed_derived(
                expr.operand, owner, literal_ok=literal_ok,
                _stack=stack, _depth=_depth + 1,
            )
        if isinstance(expr, ast.Call):
            return self._call_seed_derived(
                expr, owner, literal_ok=literal_ok,
                _stack=stack, _depth=_depth,
            )
        if isinstance(expr, ast.Subscript):
            return self.seed_derived(
                expr.value, owner, literal_ok=literal_ok,
                _stack=stack, _depth=_depth + 1,
            )
        return False

    def _name_seed_derived(
        self, name: str, owner: str, *, literal_ok: bool,
        _stack: Set[Tuple[str, str]], _depth: int,
    ) -> bool:
        key = (owner, name)
        if key in _stack:
            return False
        _stack.add(key)
        try:
            if SEED_NAME_RE.search(name):
                return True
            assigned = self.assignments_of(owner).get(name)
            if assigned:
                return any(
                    self.seed_derived(
                        value, owner, literal_ok=literal_ok,
                        _stack=_stack, _depth=_depth + 1,
                    )
                    for value in assigned
                )
            if name in self.params_of(owner):
                return self._param_seed_derived(
                    owner, name, literal_ok=literal_ok,
                    _stack=_stack, _depth=_depth,
                )
            # Module-level constant?
            module_body = f"{self.graph.functions[owner].module}.<module>"
            if owner != module_body and module_body in self.graph.functions:
                assigned = self.assignments_of(module_body).get(name)
                if assigned:
                    return any(
                        self.seed_derived(
                            value, module_body, literal_ok=literal_ok,
                            _stack=_stack, _depth=_depth + 1,
                        )
                        for value in assigned
                    )
            return False
        finally:
            _stack.discard(key)

    def _param_seed_derived(
        self, owner: str, param: str, *, literal_ok: bool,
        _stack: Set[Tuple[str, str]], _depth: int,
    ) -> bool:
        """Prove a parameter by checking every known (direct) call site."""
        params = self.params_of(owner)
        index = params.index(param)
        skip_self = bool(params) and params[0] in ("self", "cls")
        call_sites = self.graph.callers(owner)
        if not call_sites:
            return False
        node = self._function_node(owner)
        default_expr: Optional[ast.AST] = None
        if node is not None and hasattr(node, "args"):
            arguments = node.args
            positional = [*arguments.posonlyargs, *arguments.args]
            defaults = list(arguments.defaults)
            offset = len(positional) - len(defaults)
            for i, arg in enumerate(positional):
                if arg.arg == param and i >= offset:
                    default_expr = defaults[i - offset]
            for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                if arg.arg == param and default is not None:
                    default_expr = default
        checked_any = False
        for edge in call_sites:
            call = self._call_at(edge.caller, edge.lineno, owner)
            if call is None:
                continue
            argument = self._bound_argument(
                call, index - (1 if skip_self else 0), param
            )
            if argument is None:
                argument = default_expr
            if argument is None:
                continue
            checked_any = True
            if not self.seed_derived(
                argument, edge.caller, literal_ok=literal_ok,
                _stack=_stack, _depth=_depth + 1,
            ):
                return False
        return checked_any

    def _call_at(
        self, caller: str, lineno: int, callee: str
    ) -> Optional[ast.Call]:
        node = self.graph.function_nodes.get(caller)
        search_root: Optional[ast.AST] = node
        if node is None:
            info = self.graph.functions.get(caller)
            if info is None or not info.is_module_body:
                return None
            module = self.graph.project.by_module_name(info.module)
            if module is None:
                return None
            search_root = module.tree
        candidates = [
            sub for sub in ast.walk(search_root)
            if isinstance(sub, ast.Call) and sub.lineno == lineno
            and self.graph.owner_of(sub) == caller
        ]
        # Chained calls share a line (``make_rng(seed).integers(0, 10)``):
        # prefer the call whose callee name matches.
        leaf = callee.rsplit(".", 1)[-1]
        for sub in candidates:
            name = _call_name(sub)
            if name == leaf:
                return sub
        return candidates[0] if candidates else None

    @staticmethod
    def _bound_argument(
        call: ast.Call, index: int, param: str
    ) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == param:
                return keyword.value
        if 0 <= index < len(call.args):
            candidate = call.args[index]
            if isinstance(candidate, ast.Starred):
                return None
            return candidate
        return None

    def _self_attribute_seed_derived(
        self, chain: List[str], owner: str, *, literal_ok: bool,
        _stack: Set[Tuple[str, str]], _depth: int,
    ) -> bool:
        if len(chain) != 2:
            return False
        attr = chain[1]
        class_prefix, _, _ = owner.rpartition(".")
        key = (class_prefix, f"self.{attr}")
        if key in _stack:
            return False
        _stack.add(key)
        try:
            for suffix in ("__init__", "__post_init__"):
                ctor = f"{class_prefix}.{suffix}"
                node = self.graph.function_nodes.get(ctor)
                if node is None:
                    continue
                for sub in ast.walk(node):
                    value: Optional[ast.AST] = None
                    if isinstance(sub, ast.Assign):
                        targets, value = sub.targets, sub.value
                    elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                        targets, value = [sub.target], sub.value
                    else:
                        continue
                    for target in targets:
                        target_chain = attr_chain(target)
                        if target_chain == ["self", attr]:
                            if self.seed_derived(
                                value, ctor, literal_ok=literal_ok,
                                _stack=_stack, _depth=_depth + 1,
                            ):
                                return True
            return False
        finally:
            _stack.discard(key)

    def _call_seed_derived(
        self, call: ast.Call, owner: str, *, literal_ok: bool,
        _stack: Set[Tuple[str, str]], _depth: int,
    ) -> bool:
        chain = attr_chain(call.func)
        if chain is not None and chain[-1] in DERIVED_DRAW_METHODS:
            receiver = call.func
            assert isinstance(receiver, ast.Attribute)
            return self._receiver_is_seeded_rng(
                receiver.value, owner,
                _stack=_stack, _depth=_depth,
            )
        if chain is not None and chain[-1] == "SeedSequence":
            if not call.args and not call.keywords:
                return False
            return any(
                self.seed_derived(
                    a, owner, literal_ok=literal_ok,
                    _stack=_stack, _depth=_depth + 1,
                )
                for a in (*call.args, *[k.value for k in call.keywords])
            )
        if chain is not None and chain[-1] in SEED_TRANSPARENT_CALLS:
            return any(
                self.seed_derived(
                    a, owner, literal_ok=literal_ok,
                    _stack=_stack, _depth=_depth + 1,
                )
                for a in call.args
            )
        # A project function: its return value is seed-derived when every
        # return expression is.
        if isinstance(call.func, ast.Name):
            info = self.graph.functions.get(owner)
            if info is not None:
                resolved = self.graph.resolve_local_name(
                    info.module, call.func.id
                )
                if resolved is not None:
                    key = (resolved, "<return>")
                    if key in _stack:
                        return False
                    _stack.add(key)
                    try:
                        returns = self._returns_of(resolved)
                        return bool(returns) and all(
                            self.seed_derived(
                                value, resolved, literal_ok=literal_ok,
                                _stack=_stack, _depth=_depth + 1,
                            )
                            for value in returns
                        )
                    finally:
                        _stack.discard(key)
        return False

    def _receiver_is_seeded_rng(
        self, receiver: ast.AST, owner: str, *,
        _stack: Set[Tuple[str, str]], _depth: int,
    ) -> bool:
        """Is ``receiver`` (of a draw method) itself a seeded generator?"""
        if _depth > MAX_PROVENANCE_DEPTH:
            return False
        info = self.graph.functions.get(owner)
        module = (
            self.graph.project.by_module_name(info.module)
            if info is not None else None
        )
        if isinstance(receiver, ast.Call) and module is not None:
            numpy_aliases, random_aliases, from_names = _module_rng_aliases(
                module
            )
            factory = _rng_factory(
                receiver, module, numpy_aliases, random_aliases, from_names
            )
            if factory is not None:
                args = [*receiver.args, *[k.value for k in receiver.keywords]]
                return bool(args) and any(
                    self.seed_derived(
                        a, owner, literal_ok=True,
                        _stack=_stack, _depth=_depth + 1,
                    )
                    for a in args
                )
        if isinstance(receiver, ast.Name):
            if SEED_NAME_RE.search(receiver.id) or "rng" in receiver.id.lower():
                assigned = self.assignments_of(owner).get(receiver.id)
                if assigned:
                    return any(
                        self._receiver_is_seeded_rng(
                            value, owner, _stack=_stack, _depth=_depth + 1,
                        )
                        or self.seed_derived(
                            value, owner, literal_ok=True,
                            _stack=_stack, _depth=_depth + 1,
                        )
                        for value in assigned
                    )
                # An rng-named parameter: trust the caller seeded it --
                # unseeded construction is flagged at its creation site.
                return True
        if isinstance(receiver, ast.Attribute):
            chain = attr_chain(receiver)
            if chain is not None and (
                "rng" in chain[-1].lower() or SEED_NAME_RE.search(chain[-1])
            ):
                if chain[0] == "self":
                    return True
                return True
        return False


# ----------------------------------------------------------------------
# forward value taint
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaintHit:
    """A tainted value reaching a sink, with the call path that got it
    there."""

    sink_qualname: str
    path: Tuple[str, ...]
    lineno: int
    col: int
    source_path: str


def propagate_to_sinks(
    graph: CallGraph,
    source_owner: str,
    source_node: ast.AST,
    is_sink: "SinkPredicate",
    *,
    max_depth: int = 12,
) -> List[TaintHit]:
    """Follow ``source_node``'s value from ``source_owner`` to sinks.

    Tracks: direct use as a call argument, assignment to locals, and
    returns (the caller's call-site result becomes tainted).  Direct
    edges only.
    """
    source_info = graph.functions.get(source_owner)
    if source_info is None:
        return []
    hits: List[TaintHit] = []
    seen: Set[Tuple[str, str]] = set()

    # frontier entries: (owner, tainted local names, path so far)
    frontier: List[Tuple[str, Set[str], Tuple[str, ...]]] = []

    def describe(owner: str, lineno: int) -> str:
        info = graph.functions[owner]
        return f"{info.path}:{lineno} in {owner}"

    initial_names = _names_bound_to(graph, source_owner, source_node)
    frontier.append((
        source_owner,
        initial_names,
        (describe(source_owner, getattr(source_node, "lineno", 1)),),
    ))

    while frontier:
        owner, names, path = frontier.pop()
        if len(path) > max_depth:
            continue
        marker = (owner, ",".join(sorted(names)))
        if marker in seen:
            continue
        seen.add(marker)
        root = _search_root(graph, owner)
        if root is None:
            continue
        for node in ast.walk(root):
            if graph.owner_of(node) != owner:
                continue
            if isinstance(node, ast.Call):
                tainted_args = _tainted_arguments(node, names, source_node)
                if not tainted_args:
                    continue
                callees = graph.callees(owner)
                matches = [e for e in callees if e.lineno == node.lineno]
                for edge in matches:
                    step = describe(owner, node.lineno)
                    if is_sink(edge.callee):
                        hits.append(TaintHit(
                            sink_qualname=edge.callee,
                            path=(*path, step, f"sink {edge.callee}"),
                            lineno=node.lineno,
                            col=node.col_offset,
                            source_path=graph.functions[owner].path,
                        ))
                        continue
                    bound = _bind_parameters(
                        graph, edge.callee, node, tainted_args
                    )
                    if bound:
                        frontier.append((edge.callee, bound, (*path, step)))
            elif isinstance(node, ast.Return) and node.value is not None:
                if _expr_tainted(node.value, names, source_node):
                    for edge in graph.callers(owner):
                        caller_call = _call_on_line(
                            graph, edge.caller, edge.lineno, callee=owner
                        )
                        if caller_call is None:
                            continue
                        bound = _names_bound_to(
                            graph, edge.caller, caller_call
                        )
                        if bound:
                            frontier.append((
                                edge.caller, bound,
                                (*path, describe(owner, node.lineno)),
                            ))
    hits.sort(key=lambda h: (h.source_path, h.lineno, h.col, h.sink_qualname))
    return hits


class SinkPredicate:
    """Callable deciding whether a qualname is a taint sink."""

    def __call__(self, qualname: str) -> bool:  # pragma: no cover
        raise NotImplementedError


def _search_root(graph: CallGraph, owner: str) -> Optional[ast.AST]:
    node = graph.function_nodes.get(owner)
    if node is not None:
        return node
    info = graph.functions.get(owner)
    if info is None or not info.is_module_body:
        return None
    module = graph.project.by_module_name(info.module)
    return module.tree if module is not None else None


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _call_on_line(
    graph: CallGraph, owner: str, lineno: int,
    callee: Optional[str] = None,
) -> Optional[ast.Call]:
    root = _search_root(graph, owner)
    if root is None:
        return None
    candidates = [
        sub for sub in ast.walk(root)
        if isinstance(sub, ast.Call)
        and sub.lineno == lineno
        and graph.owner_of(sub) == owner
    ]
    if callee is not None:
        leaf = callee.rsplit(".", 1)[-1]
        for sub in candidates:
            if _call_name(sub) == leaf:
                return sub
    return candidates[0] if candidates else None


def _names_bound_to(
    graph: CallGraph, owner: str, value_node: ast.AST
) -> Set[str]:
    """Local names assigned (directly) from ``value_node``."""
    names: Set[str] = set()
    root = _search_root(graph, owner)
    if root is None:
        return names
    for sub in ast.walk(root):
        if graph.owner_of(sub) != owner:
            continue
        targets: List[ast.AST] = []
        if isinstance(sub, ast.Assign) and sub.value is value_node:
            targets = sub.targets
        elif isinstance(sub, ast.AnnAssign) and sub.value is value_node:
            targets = [sub.target]
        elif isinstance(sub, ast.NamedExpr) and sub.value is value_node:
            targets = [sub.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _expr_tainted(
    expr: ast.AST, names: Set[str], source_node: ast.AST
) -> bool:
    for sub in ast.walk(expr):
        if sub is source_node:
            return True
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
    return False


def _tainted_arguments(
    call: ast.Call, names: Set[str], source_node: ast.AST
) -> List[Tuple[Optional[int], Optional[str]]]:
    """Which of ``call``'s arguments carry taint.

    Returns ``(positional index, keyword name)`` pairs.
    """
    tainted: List[Tuple[Optional[int], Optional[str]]] = []
    for index, argument in enumerate(call.args):
        if _expr_tainted(argument, names, source_node):
            tainted.append((index, None))
    for keyword in call.keywords:
        if _expr_tainted(keyword.value, names, source_node):
            tainted.append((None, keyword.arg))
    return tainted


def _bind_parameters(
    graph: CallGraph,
    callee: str,
    call: ast.Call,
    tainted_args: Sequence[Tuple[Optional[int], Optional[str]]],
) -> Set[str]:
    node = graph.function_nodes.get(callee)
    if node is None or not hasattr(node, "args"):
        return set()
    arguments = node.args
    positional = [a.arg for a in (*arguments.posonlyargs, *arguments.args)]
    keyword_only = [a.arg for a in arguments.kwonlyargs]
    offset = 1 if positional and positional[0] in ("self", "cls") else 0
    bound: Set[str] = set()
    for index, keyword in tainted_args:
        if keyword is not None:
            if keyword in positional or keyword in keyword_only:
                bound.add(keyword)
        elif index is not None:
            shifted = index + offset
            if shifted < len(positional):
                bound.add(positional[shifted])
    return bound


__all__ = [
    "DERIVED_DRAW_METHODS",
    "RngCreation",
    "SEED_NAME_RE",
    "SeedProvenance",
    "SinkPredicate",
    "TaintHit",
    "attr_chain",
    "find_rng_creations",
    "propagate_to_sinks",
]
