"""Lightweight type & dataflow inference over the scope tree.

This module answers the semantic questions the rule pass asks about the
symbol table :mod:`repro.analysis.scopes` builds:

- **container types** — is this symbol set-typed *in this scope*?  Evidence
  is annotations (``Set[int]``), literal/comprehension/constructor RHSs, and
  nothing else: a ``List[int]`` parameter that merely shares its name with a
  set in another function stays a list (the per-scope fix ROADMAP asked for);
- **time domains** — does this expression carry *sim-time* (``kernel.now``
  and values assigned from it) or *wall-clock* (``time.time()`` & friends)?
  SIM002 is built on these tags;
- **dedup sets** — a set used *only* for ``x in s`` / ``s.add(x)`` inside a
  scope that also sorts its output is a dedup accumulator: ``id()`` keys fed
  exclusively into it cannot leak address order (DET005 precision);
- **commutative loops** — a ``for`` over a set whose body only does bitwise
  accumulation (``|=``, ``&=``, ``^=``) is order-insensitive (DET004
  precision);
- **module state** — which module-level containers a function mutates
  (FRK001).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.scopes import AttributeBinding, Scope, Symbol

__all__ = [
    "SIM_TIME",
    "WALL_CLOCK",
    "attribute_set_names",
    "call_name",
    "classify_annotation",
    "classify_value",
    "dedup_suppressed_id_calls",
    "dotted_name",
    "expr_time_domain",
    "is_commutative_accumulation_loop",
    "sim_time_accumulations",
    "symbol_types",
    "walk_scope_body",
]

#: Time-domain tags.
SIM_TIME = "sim"
WALL_CLOCK = "wall"

#: Annotation heads that denote a set type.
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet",
                    "AbstractSet"}
_LIST_ANNOTATIONS = {"list", "List", "MutableSequence", "Sequence", "Tuple",
                     "tuple"}
_DICT_ANNOTATIONS = {"dict", "Dict", "MutableMapping", "Mapping",
                     "DefaultDict", "OrderedDict", "Counter"}

#: Dotted-name suffixes that read the host clock.
WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Methods that mutate the container they are called on (FRK001 sinks).
MUTATING_METHODS = {
    "append", "add", "update", "extend", "insert", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The trailing identifier of the called object (``sorted``, ``list``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _annotation_head(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1] or None
    dotted = dotted_name(node)
    if dotted is None:
        return None
    return dotted.rsplit(".", 1)[-1]


# -- container-type evidence --------------------------------------------------


def classify_annotation(annotation: Optional[ast.AST]) -> Optional[str]:
    """'set' | 'list' | 'dict' | None for a type annotation."""
    if annotation is None:
        return None
    head = _annotation_head(annotation)
    if head in _SET_ANNOTATIONS:
        return "set"
    if head in _LIST_ANNOTATIONS:
        return "list"
    if head in _DICT_ANNOTATIONS:
        return "dict"
    return None


def classify_value(value: Optional[ast.AST]) -> Optional[str]:
    """'set' | 'list' | 'dict' | None for an RHS expression."""
    if value is None:
        return None
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.Call):
        name = call_name(value)
        if name in {"set", "frozenset"}:
            return "set"
        if name in {"list", "sorted", "tuple"}:
            return "list"
        if name in {"dict", "defaultdict", "OrderedDict", "Counter"}:
            return "dict"
    return None


def symbol_types(symbol: Symbol) -> Set[str]:
    """The union of container-type evidence across the symbol's bindings."""
    types: Set[str] = set()
    for binding in symbol.bindings:
        for tag in (classify_annotation(binding.annotation),
                    classify_value(binding.value)):
            if tag is not None:
                types.add(tag)
    return types


def attribute_set_names(bindings: Iterable[AttributeBinding]) -> Set[str]:
    """Attribute names bound to sets anywhere in the module.

    Attributes live on objects, not in lexical scopes, so set-ness stays
    module-wide for them — ``self._engaged = set()`` in ``__init__`` makes
    every ``self._engaged`` iteration in the class a DET004 candidate.
    """
    names: Set[str] = set()
    for binding in bindings:
        if (classify_annotation(binding.annotation) == "set"
                or classify_value(binding.value) == "set"):
            names.add(binding.attr)
    return names


# -- time domains -------------------------------------------------------------


def expr_time_domain(expr: ast.AST, scope: Scope,
                     _depth: int = 0) -> Optional[str]:
    """SIM_TIME, WALL_CLOCK, or None for an expression in ``scope``.

    ``kernel.now`` (any bare ``.now`` attribute read — the kernel exposes
    simulated time as a property) tags sim-time; calls into the host clock
    (``time.time()`` & friends) tag wall-clock; names follow their bindings
    one level deep; arithmetic on a tagged value stays tagged.
    """
    if _depth > 4:
        return None
    if isinstance(expr, ast.Call):
        dotted = dotted_name(expr.func)
        if dotted is not None and any(
            dotted == s or dotted.endswith("." + s) for s in WALL_CLOCK_SUFFIXES
        ):
            return WALL_CLOCK
        return None
    if isinstance(expr, ast.Attribute):
        if expr.attr == "now":
            return SIM_TIME
        return None
    if isinstance(expr, ast.Name):
        resolved = scope.resolve(expr.id)
        if resolved is None:
            return None
        bind_scope, symbol = resolved
        for binding in symbol.bindings:
            if binding.value is None:
                continue
            domain = expr_time_domain(binding.value, bind_scope, _depth + 1)
            if domain is not None:
                return domain
        return None
    if isinstance(expr, ast.BinOp):
        left = expr_time_domain(expr.left, scope, _depth + 1)
        right = expr_time_domain(expr.right, scope, _depth + 1)
        if left == right:
            return left
        return left or right
    return None


def sim_time_accumulations(scope: Scope) -> List[ast.AST]:
    """AugAssign(+=) nodes that integrate a sim-time-seeded name (SIM002).

    A name first bound from ``kernel.now`` and then advanced with ``+=``
    accumulates float rounding the kernel's event clock does not have;
    reading ``kernel.now`` again is exact and free.
    """
    nodes: List[ast.AST] = []
    for symbol in scope.symbols.values():
        seeded = any(
            binding.kind in {"assign", "annassign", "walrus"}
            and binding.value is not None
            and expr_time_domain(binding.value, scope) == SIM_TIME
            for binding in symbol.bindings
        )
        if not seeded:
            continue
        for binding in symbol.bindings:
            if binding.kind == "augassign" and isinstance(binding.op, ast.Add):
                nodes.append(binding.node)
    return nodes


# -- scope-local AST walking --------------------------------------------------


def walk_scope_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested scopes.

    Yields every node lexically inside the given function/module body while
    stopping at nested FunctionDef/AsyncFunctionDef/ClassDef/Lambda
    boundaries (their bodies belong to other scopes).  Comprehensions are
    *not* boundaries here: their generators read enclosing locals.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


# -- DET005 precision: dedup sets + sorted output -----------------------------


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and bool(node.args))


def dedup_suppressed_id_calls(scope_node: ast.AST, scope: Scope) -> Set[int]:
    """``id(...)`` Call nodes (by ``id()`` of the node) that are dedup-safe.

    An ``id()`` key is safe when (a) every one of its uses feeds a local set
    used *only* as ``key in seen`` / ``seen.add(key)`` — pure membership, so
    address order never reaches any output — and (b) the same scope sorts a
    result (``x.sort(...)`` or ``sorted(...)``), the idiom ``radio/wifi.py``
    uses.
    """
    if scope.kind not in {"function", "module"}:
        return set()
    # Which locals have set evidence?
    set_locals = {
        name for name, symbol in scope.symbols.items()
        if "set" in symbol_types(symbol)
    }
    if not set_locals:
        return set()
    has_sort = False
    membership_ids: Dict[str, List[ast.AST]] = {}  # set name -> id-call nodes
    disqualified: Set[str] = set()
    for node in walk_scope_body(scope_node):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "sorted":
                has_sort = True
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sort"):
                has_sort = True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in set_locals):
                for argument in node.args:
                    if _is_id_call(argument):
                        membership_ids.setdefault(
                            node.func.value.id, []).append(argument)
        elif isinstance(node, ast.Compare):
            if (len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                    and isinstance(node.comparators[0], ast.Name)
                    and node.comparators[0].id in set_locals):
                if _is_id_call(node.left):
                    membership_ids.setdefault(
                        node.comparators[0].id, []).append(node.left)
    # Disqualify sets with any load beyond membership/add: collect the Name
    # nodes those two contexts account for, then flag any other load.
    allowed_loads: Set[int] = set()
    for node in walk_scope_body(scope_node):
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and isinstance(node.func.value, ast.Name)):
                allowed_loads.add(id(node.func.value))
        elif isinstance(node, ast.Compare):
            if (len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                    and isinstance(node.comparators[0], ast.Name)):
                allowed_loads.add(id(node.comparators[0]))
    for node in walk_scope_body(scope_node):
        if (isinstance(node, ast.Name) and node.id in set_locals
                and isinstance(node.ctx, ast.Load)
                and id(node) not in allowed_loads):
            disqualified.add(node.id)
    if not has_sort:
        return set()
    suppressed: Set[int] = set()
    for name, id_nodes in membership_ids.items():
        if name in disqualified:
            continue
        suppressed.update(id(node) for node in id_nodes)
    return suppressed


# -- DET004 precision: commutative accumulation loops -------------------------


def is_commutative_accumulation_loop(node: ast.For) -> bool:
    """True when the loop body only does bitwise accumulation.

    ``for index in have: bitmap |= 1 << index`` builds the same bitmap in
    any iteration order — ``|``, ``&``, and ``^`` on integers are commutative
    and associative (float ``+`` is *not*: its rounding is order-dependent,
    so it stays flagged).
    """
    if node.orelse:
        return False
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if not isinstance(statement, ast.AugAssign):
            return False
        if not isinstance(statement.op, (ast.BitOr, ast.BitAnd, ast.BitXor)):
            return False
        if not isinstance(statement.target, (ast.Name, ast.Attribute)):
            return False
    return True


# -- FRK001: module-level mutable state ---------------------------------------


def module_mutable_names(module_scope: Scope) -> Set[str]:
    """Module-scope names bound to mutable containers."""
    names: Set[str] = set()
    for name, symbol in module_scope.symbols.items():
        for binding in symbol.bindings:
            if binding.kind not in {"assign", "annassign"}:
                continue
            if classify_value(binding.value) is not None:
                names.add(name)
    return names


def mutates_module_state(node: ast.AST, scope: Scope,
                         module_names: Set[str]) -> Optional[str]:
    """The module-level name ``node`` mutates from inside a function, if any.

    Recognises ``NAME.append(...)``-style mutating method calls,
    ``NAME[...] = ...`` subscript stores, and ``NAME += ...`` /
    ``NAME[...] += ...`` augmented assignment, when ``NAME`` resolves to a
    module-scope mutable and the mutation happens below module scope (where
    a forked/spawned worker holds a diverging copy).
    """
    if scope.kind == "module":
        return None

    def _module_name(name_node: ast.AST) -> Optional[str]:
        if not isinstance(name_node, ast.Name):
            return None
        if name_node.id not in module_names:
            return None
        resolved = scope.resolve(name_node.id)
        if resolved is None or resolved[0].kind != "module":
            return None
        return name_node.id

    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS):
            return _module_name(node.func.value)
        return None
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                found = _module_name(target.value)
                if found:
                    return found
        return None
    if isinstance(node, ast.AugAssign):
        target = node.target
        if isinstance(target, ast.Subscript):
            return _module_name(target.value)
        return _module_name(target)
    return None
