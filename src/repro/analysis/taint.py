"""Interprocedural taint summaries over the project call graph.

Four determinism taints and one sharded-engine taint flow through
function summaries:

========  =======  ====================================================
kind      rule     primitive sources
========  =======  ====================================================
rng       DET001   ``random.*`` / ``numpy.random.*`` calls, names
                   imported from ``random``
wall      DET002   :data:`repro.analysis.dataflow.WALL_CLOCK_SUFFIXES`
environ   DET007   ``os.environ`` reads, ``os.getenv()``
hash      DET003   builtin ``hash()``
mirror    SHD001   ``move_to``/``set_mobility`` calls and
                   ``.mobility``/``.owner_shard`` assignment
========  =======  ====================================================

A function's summary maps each taint kind to the **shortest** chain of
hops explaining how calling it reaches a primitive — function hops
first, the primitive (with its file:line) last.  Ties break on the
rendered hop strings, so summaries are deterministic regardless of
iteration order.

**Absorption:** a function defined in a file listed in the matching
rule's ``exempt_paths`` has a clean summary for that kind — exempt
modules *own* their hazard (``repro/util/rng.py`` may touch ``random``;
``boundary.py`` may mutate mirrors) and must not taint their callers.
Because the tree is per-file clean, every direct source in the repo
lives in an exempt file, which is what keeps the whole-program pass
finding-free on a healthy tree.

**The parity-sensitive domain** (VEC family) flows the *other way*:
instead of a primitive tainting its callers, a delivery-log root
(``Medium.broadcast``, ``PropagationModel.delivery_probabilities``,
``Position.distance_to``, the trace/energy payload writers, ...) marks
its transitive *callees* — any float computed under one of these frames
can reach a delivery log, so the numpy bit-parity ground rules from the
``repro.util.array`` docstring apply there.
:func:`compute_parity_chains` computes that closure with the shortest
root-to-function chain for each member, which VEC001/VEC004/VEC005 put
in their messages.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis import dataflow
from repro.analysis.callgraph import (
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
)
from repro.analysis.dataflow import _dotted_name
from repro.analysis.rules import RULES, _path_matches_prefix

__all__ = [
    "PARITY_ROOT_CLASSES",
    "PARITY_ROOT_NAMES",
    "SHIM_BACKEND",
    "TAINT_RULES",
    "Chain",
    "compute_parity_chains",
    "compute_summaries",
    "direct_sources",
    "is_parity_root",
    "numpy_alias_names",
    "vec_effective_dotted",
]

#: taint kind -> rule code the interprocedural finding fires under.
TAINT_RULES = {
    "rng": "DET001",
    "wall": "DET002",
    "environ": "DET007",
    "hash": "DET003",
    "mirror": "SHD001",
}

#: Attribute calls that mutate mirror-sensitive WorldNode state (FRK004's
#: sink set, reused for the interprocedural SHD001).
MIRROR_MUTATING_CALLS = {"move_to", "set_mobility"}
MIRROR_MUTATED_ATTRS = {"mobility", "owner_shard"}

#: Chains longer than this are not tracked (prevents pathological growth;
#: real chains are 2-4 hops).
_MAX_CHAIN_HOPS = 12


@dataclass(frozen=True)
class Chain:
    """How a function reaches a taint primitive: hop strings, nearest first.

    The last hop is always the primitive itself, rendered as
    ``label [path:line]``; earlier hops are ``module:qualname [path:line]``
    naming the next callee and the call site that reaches it.
    """

    hops: Tuple[str, ...]
    terminal_label: str
    terminal_path: str
    terminal_line: int

    @property
    def sort_key(self) -> Tuple[int, Tuple[str, ...]]:
        return (len(self.hops), self.hops)

    def render(self) -> str:
        return " -> ".join(self.hops)

    def prepend(self, hop: str) -> "Chain":
        return Chain(
            hops=(hop,) + self.hops,
            terminal_label=self.terminal_label,
            terminal_path=self.terminal_path,
            terminal_line=self.terminal_line,
        )

    def append(self, hop: str) -> "Chain":
        """Extend the chain away from the terminal (parity chains grow
        root → callee, so the terminal stays the delivery-log root)."""
        return Chain(
            hops=self.hops + (hop,),
            terminal_label=self.terminal_label,
            terminal_path=self.terminal_path,
            terminal_line=self.terminal_line,
        )


def _effective_dotted(info: ModuleInfo, dotted: str) -> str:
    """Rewrite a dotted name's root through the module's import aliases.

    ``np.random.random`` becomes ``numpy.random.random`` when the module
    did ``import numpy as np``; an unknown root passes through unchanged.
    """
    root, _, rest = dotted.partition(".")
    target = info.imports.get(root)
    if target is None:
        return dotted
    if target.kind == "module":
        base = target.module
    else:
        base = f"{target.module}.{target.symbol}"
    return f"{base}.{rest}" if rest else base


def _body_nodes(function: FunctionInfo) -> Iterator[ast.AST]:
    """Every node lexically inside the function, nested defs included.

    Nested functions and lambdas count toward the *enclosing* summary —
    a factory whose closure reads the clock still hands nondeterminism
    to its caller.  The implicit ``<module>`` body stops at definition
    statements (those are their own summaries).
    """
    if function.qualname == "<module>":
        for statement in function.node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            yield from ast.walk(statement)
    else:
        yield from ast.walk(function.node)


def direct_sources(
    info: ModuleInfo, function: FunctionInfo
) -> List[Tuple[str, str, int]]:
    """``(kind, label, line)`` primitives lexically inside ``function``."""
    sources: List[Tuple[str, str, int]] = []
    for node in _body_nodes(function):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is not None:
                effective = _effective_dotted(info, dotted)
                root = effective.split(".", 1)[0]
                if (effective.startswith("random.")
                        or (root in {"random", "numpy"}
                            and ".random." in f".{effective}.")):
                    sources.append(("rng", f"{dotted}()", node.lineno))
                if any(effective == s or effective.endswith("." + s)
                       for s in dataflow.WALL_CLOCK_SUFFIXES):
                    sources.append(("wall", f"{dotted}()", node.lineno))
                if effective == "os.getenv":
                    sources.append(("environ", "os.getenv()", node.lineno))
            if (isinstance(node.func, ast.Name) and node.func.id == "hash"
                    and node.args
                    and "hash" not in info.functions
                    and "hash" not in info.imports):
                sources.append(("hash", "hash()", node.lineno))
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in MIRROR_MUTATING_CALLS):
                sources.append((
                    "mirror", f".{node.func.attr}()", node.lineno))
        elif isinstance(node, ast.Attribute):
            if _dotted_name(node) == "os.environ":
                sources.append(("environ", "os.environ", node.lineno))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in MIRROR_MUTATED_ATTRS):
                    sources.append((
                        "mirror", f".{target.attr} = ...", node.lineno))
    return sources


def _absorbed(path: str, kind: str) -> bool:
    """True when the matching rule exempts the defining file: the module
    owns this hazard, so taint stops here instead of flowing to callers."""
    rule = RULES[TAINT_RULES[kind]]
    return any(_path_matches_prefix(path, p) for p in rule.exempt_paths)


Summaries = Dict[FunctionInfo, Dict[str, Chain]]


def _offer(summary: Dict[str, Chain], kind: str,
           chain: Chain) -> bool:
    """Keep ``chain`` if it beats the current one; report whether it did."""
    if len(chain.hops) > _MAX_CHAIN_HOPS:
        return False
    current = summary.get(kind)
    if current is None or chain.sort_key < current.sort_key:
        summary[kind] = chain
        return True
    return False


def compute_summaries(graph: ProjectGraph) -> Summaries:
    """Fixpoint taint summaries for every function in the graph.

    Deterministic: functions are seeded and propagated in sorted
    (module, qualname) order, and a chain only ever replaces a strictly
    worse one, so the result is independent of work order.
    """
    ordered: List[Tuple[ModuleInfo, FunctionInfo]] = []
    for name in sorted(graph.modules):
        info = graph.modules[name]
        ordered.append((info, info.module_body))
        for qualname in sorted(info.functions):
            ordered.append((info, info.functions[qualname]))

    summaries: Summaries = {function: {} for _, function in ordered}
    for info, function in ordered:
        for kind, label, line in sorted(direct_sources(info, function)):
            if _absorbed(function.path, kind):
                continue
            _offer(summaries[function], kind, Chain(
                hops=(f"{label} [{function.path}:{line}]",),
                terminal_label=label,
                terminal_path=function.path,
                terminal_line=line,
            ))

    changed = True
    while changed:
        changed = False
        for info, function in ordered:
            summary = summaries[function]
            for site in function.calls:
                callee = site.callee
                if callee is None or callee is function:
                    continue
                for kind in sorted(summaries[callee]):
                    if _absorbed(function.path, kind):
                        continue
                    hop = (f"{callee.display} "
                           f"[{function.path}:{site.line}]")
                    if _offer(summary, kind,
                              summaries[callee][kind].prepend(hop)):
                        changed = True
    return summaries


# -- the parity-sensitive domain (VEC family) ---------------------------------

#: Function/method names whose frames originate delivery-log-reaching
#: floats: the broadcast pipeline, the propagation batch/scalar surface,
#: exact geometry, and the trace/energy artifact payload writers.
PARITY_ROOT_NAMES = frozenset({
    "broadcast",
    "delivery_probabilities",
    "delivery_probability",
    "in_range_mask",
    "distance_to",
    "frame_delivered",
    "to_payload",
    "timeline_payload",
    # The acceptance and rebucketing surfaces feed the same delivery
    # logs — one banned ufunc or bulk draw in any of them breaks byte
    # identity with the scalar reference.
    "accepts_mask",
    "_acceptance_mask",
    "_delivery_mask",
    "positions_at",
    "positions_for",
    "_rebucket",
    "insert_batch",
})

#: Classes every method of which is a root (the delivery record writers:
#: their fields are the delivery log).
PARITY_ROOT_CLASSES = frozenset({"_BatchDelivery"})


def is_parity_root(function: FunctionInfo) -> bool:
    """True when ``function`` originates parity-sensitive floats."""
    if function.qualname == "<module>":
        return False
    cls, _, leaf = function.qualname.rpartition(".")
    return leaf in PARITY_ROOT_NAMES or cls in PARITY_ROOT_CLASSES


def _ordered_functions(
    graph: ProjectGraph,
) -> List[Tuple[ModuleInfo, FunctionInfo]]:
    ordered: List[Tuple[ModuleInfo, FunctionInfo]] = []
    for name in sorted(graph.modules):
        info = graph.modules[name]
        ordered.append((info, info.module_body))
        for qualname in sorted(info.functions):
            ordered.append((info, info.functions[qualname]))
    return ordered


def compute_parity_chains(graph: ProjectGraph) -> Dict[FunctionInfo, Chain]:
    """function → shortest chain from a delivery-log root down to it.

    The parity-sensitive set is the roots plus every function reachable
    from a root through resolved call edges (caller → callee: a helper a
    broadcast frame calls computes floats that land in the delivery
    log).  Chains carry the root as their terminal and grow by
    :meth:`Chain.append`; fixpoint order and strict-improvement offers
    make the result deterministic, mirroring :func:`compute_summaries`.
    """
    ordered = _ordered_functions(graph)
    chains: Dict[FunctionInfo, Chain] = {}
    for info, function in ordered:
        if is_parity_root(function):
            chains[function] = Chain(
                hops=(f"{function.display} "
                      f"[{function.path}:{function.line}]",),
                terminal_label=function.display,
                terminal_path=function.path,
                terminal_line=function.line,
            )

    changed = True
    while changed:
        changed = False
        for info, function in ordered:
            chain = chains.get(function)
            if chain is None:
                continue
            for site in function.calls:
                callee = site.callee
                if callee is None or callee is function:
                    continue
                candidate = chain.append(
                    f"{callee.display} [{function.path}:{site.line}]")
                if len(candidate.hops) > _MAX_CHAIN_HOPS:
                    continue
                current = chains.get(callee)
                if current is None or candidate.sort_key < current.sort_key:
                    chains[callee] = candidate
                    changed = True
    return chains


def numpy_alias_names(info: ModuleInfo, function: FunctionInfo) -> frozenset:
    """Local names bound to the numpy module inside ``function``.

    ``np = numpy`` makes ``np`` a numpy handle for the rest of the
    function, so ``np.hypot(...)`` must count as ``numpy.hypot``.
    Module-scope bindings are collected off the module body and apply
    everywhere in the file.
    """
    names = set()
    bodies = [info.module_body, function]
    for body in bodies:
        if body is None:
            continue
        for node in _body_nodes(body):
            if not isinstance(node, ast.Assign):
                continue
            dotted = _dotted_name(node.value)
            if dotted is None:
                continue
            effective = _effective_dotted(info, dotted)
            if effective != "numpy":
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def vec_effective_dotted(
    info: ModuleInfo, aliases: frozenset, dotted: str
) -> str:
    """Like :func:`_effective_dotted`, but numpy-aware.

    Names bound to the numpy module (``aliases``) are rewritten to the
    plain ``numpy.*`` spelling so one banned-name set matches every way
    of reaching it.
    """
    root, _, rest = dotted.partition(".")
    if root in aliases:
        return f"numpy.{rest}" if rest else "numpy"
    return _effective_dotted(info, dotted)
