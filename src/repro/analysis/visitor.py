"""The rule pass behind ``python -m repro.analysis``.

Analysis of one module is three passes:

1. :class:`~repro.analysis.scopes.ScopeBuilder` builds the scope tree — a
   symbol table per module/class/function/lambda/comprehension scope with
   every binding site recorded;
2. :mod:`repro.analysis.dataflow` interprets those bindings — which symbols
   are set-typed *in their own scope*, which values carry sim-time, which
   sets are pure dedup accumulators, which module state a function
   mutates;
3. :class:`AnalysisVisitor` (this module) walks the tree with a scope stack
   and emits :class:`~repro.analysis.rules.Finding` objects for the DET,
   SIM, and FRK rule families.

Scope-accuracy is the point: a ``List[int]`` parameter that shares a name
with a set in another function is a list here, shadowing works, and the
safe idioms stay quiet —

- **reducer suppression** (DET004): iteration *inside* an order-insensitive
  consumer (``sorted``, ``min``/``max``, ``sum``, ``len``, ``any``/``all``,
  ``set``/``frozenset``) is not a hazard;
- **commutative accumulation** (DET004): a loop body of pure bitwise
  ``|=``/``&=``/``^=`` builds the same value in any order;
- **dedup sets** (DET005): ``id()`` keys that only feed an in-scope
  membership set whose surrounding result is sorted cannot leak address
  order.

False negatives are the thing to minimise.  A false positive is fixed
in these passes, or scoped out of its rule in :mod:`repro.analysis.rules`
with the reason written there.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Sequence, Set, Union

from repro.analysis import dataflow
from repro.analysis.rules import RULES, Finding
from repro.analysis.scopes import Scope, ScopeBuilder, build_scopes

#: Module-level callables whose defaults must not be mutable (DET006).
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
}

#: Consumers for which iteration order cannot matter (DET004 suppression).
_ORDER_INSENSITIVE_CALLS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
    "Counter",
}

#: Ordering-sensitive materialisers of an iterable (DET004 sinks).
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate"}


def normalize_path(path) -> str:
    """A stable posix path key, rooted at the ``repro`` package when inside it.

    ``/root/repo/src/repro/radio/wifi.py`` → ``repro/radio/wifi.py`` whatever
    the checkout location or working directory, so a rule's ``exempt_paths``
    and ``only_paths`` scope it, and reports name it, the same on every
    machine.  Files outside the package (test fixtures) fall back to a
    cwd-relative posix path.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index:])
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


class AnalysisVisitor(ast.NodeVisitor):
    """Emit findings for one module, resolving names through its scope tree."""

    def __init__(self, path: str, builder: ScopeBuilder) -> None:
        self.path = path
        self.builder = builder
        self.attr_set_names = dataflow.attribute_set_names(
            builder.attribute_bindings)
        self.module_mutables = dataflow.module_mutable_names(
            builder.module_scope)
        self.findings: List[Finding] = []
        self._scope_stack: List[Scope] = [builder.module_scope]
        self._reducer_depth = 0  # inside an order-insensitive call's args
        self._dedup_suppressed: Set[int] = set()
        self._enter_scope_checks(builder.module_scope)

    # -- plumbing -------------------------------------------------------------

    @property
    def scope(self) -> Scope:
        return self._scope_stack[-1]

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                code=code,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _push(self, node: ast.AST) -> bool:
        scope = self.builder.scopes.get(node)
        if scope is None:
            return False
        self._scope_stack.append(scope)
        self._enter_scope_checks(scope)
        return True

    def _pop(self) -> None:
        self._scope_stack.pop()

    def _enter_scope_checks(self, scope: Scope) -> None:
        """Per-scope dataflow findings, computed once on scope entry."""
        for node in dataflow.sim_time_accumulations(scope):
            self._emit(
                "SIM002", node,
                "this name was seeded from kernel.now but is advanced with "
                "+=; re-read kernel.now instead of integrating floats",
            )
        self._dedup_suppressed |= dataflow.dedup_suppressed_id_calls(
            scope.node, scope)

    # -- DET001: global RNG ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("numpy.random"):
                self._emit(
                    "DET001", node,
                    f"import of {alias.name!r} (global RNG state); "
                    "use repro.util.rng.SeededRng",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random" or module.startswith("numpy.random"):
            self._emit(
                "DET001", node,
                f"import from {module!r} (global RNG state); "
                "use repro.util.rng.SeededRng",
            )
        elif module == "numpy" and any(a.name == "random" for a in node.names):
            self._emit(
                "DET001", node,
                "import of numpy.random (global RNG state); "
                "use repro.util.rng.SeededRng",
            )
        self.generic_visit(node)

    # -- call-shaped rules ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dataflow.dotted_name(node.func)
        if dotted is not None:
            if dotted.startswith("random.") or ".random." in f".{dotted}.":
                root = dotted.split(".", 1)[0]
                if root in {"random", "numpy", "np"}:
                    self._emit(
                        "DET001", node,
                        f"call to {dotted}() draws from the process-global "
                        "RNG; use a SeededRng stream",
                    )
            if any(dotted == s or dotted.endswith("." + s)
                   for s in dataflow.WALL_CLOCK_SUFFIXES):
                self._emit(
                    "DET002", node,
                    f"{dotted}() reads the host clock; simulation code must "
                    "use kernel.now",
                )
            if dotted == "os.getenv":
                self._emit(
                    "DET007", node,
                    "os.getenv() makes results depend on the host "
                    "environment; pass configuration explicitly",
                )
            if dotted == "time.sleep" or dotted.endswith(".time.sleep"):
                self._emit(
                    "SIM001", node,
                    "time.sleep() blocks the host thread without advancing "
                    "simulated time; use kernel.call_in or a sim-process "
                    "sleep",
                )
        if isinstance(node.func, ast.Name):
            if node.func.id == "hash" and node.args:
                self._emit(
                    "DET003", node,
                    "builtin hash() is salted per process; use derive_seed "
                    "or hashlib for stable derivation",
                )
            if (node.func.id == "id" and node.args
                    and id(node) not in self._dedup_suppressed):
                self._emit(
                    "DET005", node,
                    "id() yields per-process object addresses; key on a "
                    "stable attribute instead",
                )
            if node.func.id == "sleep" and self._resolves_to_time_sleep(node):
                self._emit(
                    "SIM001", node,
                    "sleep() (imported from time) blocks the host thread "
                    "without advancing simulated time; use kernel.call_in "
                    "or a sim-process sleep",
                )
            if (
                node.func.id in _ORDER_SENSITIVE_CALLS
                and node.args
                and self._reducer_depth == 0
                and self._is_set_expr(node.args[0])
            ):
                self._emit(
                    "DET004", node,
                    f"{node.func.id}() materialises a set in arbitrary "
                    "order; use sorted(...)",
                )
        mutated = dataflow.mutates_module_state(
            node, self.scope, self.module_mutables)
        if mutated is not None:
            self._emit_frk001(node, mutated)
        call_name = dataflow.call_name(node)
        if call_name in _ORDER_INSENSITIVE_CALLS:
            self._reducer_depth += 1
            self.generic_visit(node)
            self._reducer_depth -= 1
        else:
            self.generic_visit(node)

    def _resolves_to_time_sleep(self, node: ast.Call) -> bool:
        resolved = self.scope.resolve(node.func.id)
        if resolved is None:
            return False
        return resolved[1].import_origin == "time.sleep"

    def _emit_frk001(self, node: ast.AST, name: str) -> None:
        self._emit(
            "FRK001", node,
            f"module-level mutable {name!r} mutated inside a function; "
            "forked/spawned workers hold diverging copies — carry per-run "
            "state on Job/engine objects",
        )

    # -- DET007: attribute reads ----------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = dataflow.dotted_name(node)
        if dotted == "os.environ":
            self._emit(
                "DET007", node,
                "os.environ read makes results depend on the host "
                "environment; pass configuration explicitly",
            )
        self.generic_visit(node)

    # -- FRK001: module-state mutation sinks ----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        mutated = dataflow.mutates_module_state(
            node, self.scope, self.module_mutables)
        if mutated is not None:
            self._emit_frk001(node, mutated)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        mutated = dataflow.mutates_module_state(
            node, self.scope, self.module_mutables)
        if mutated is not None:
            self._emit_frk001(node, mutated)
        self.generic_visit(node)

    # -- DET006: mutable defaults + scope entry -------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_literal(default):
                self._emit(
                    "DET006", default,
                    f"mutable default argument in {node.name}(); default to "
                    "None and construct inside the body",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and dataflow.call_name(node) in _MUTABLE_CONSTRUCTORS)

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        # Decorators and defaults evaluate in the enclosing scope.
        for decorator in node.decorator_list:
            self.visit(decorator)
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        if self._push(node):
            for statement in node.body:
                self.visit(statement)
            self._pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self._push(node):
            self.visit(node.body)
            self._pop()
        else:  # pragma: no cover - builder always maps lambdas
            self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        for base in node.bases + [kw.value for kw in node.keywords]:
            self.visit(base)
        if self._push(node):
            for statement in node.body:
                self.visit(statement)
            self._pop()

    # -- DET004: unsorted set iteration ---------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dataflow.call_name(node) in {"set", "frozenset"}
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            resolved = self.scope.resolve(node.id)
            if resolved is None:
                return False
            return "set" in dataflow.symbol_types(resolved[1])
        if isinstance(node, ast.Attribute):
            return node.attr in self.attr_set_names
        return False

    def _check_iteration(self, iterable: ast.AST, node: ast.AST) -> None:
        if self._reducer_depth == 0 and self._is_set_expr(iterable):
            self._emit(
                "DET004", node,
                "iteration over a set in an ordering-sensitive position; "
                "wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        if not dataflow.is_commutative_accumulation_loop(node):
            self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        pushed = self._push(node)
        for generator in node.generators:
            self._check_iteration(generator.iter, node)
        self.generic_visit(node)
        if pushed:
            self._pop()

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict insertion order follows iteration order, so a DictComp over a
        # set bakes arbitrary order into the result.
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # The result is a set again: iteration order cannot escape unless the
        # element expression has side effects, which the pass does not model.
        self._reducer_depth += 1
        self._visit_comprehension(node)
        self._reducer_depth -= 1


def analyze_source(source: Union[str, bytes], path: str) -> List[Finding]:
    """Lint one module's source; ``path`` is used for reporting and scoping.

    Bytes are decoded by the parser, as the interpreter decodes a module
    (PEP 263), so undecodable input is a :class:`SyntaxError` naming
    ``path`` and the line, like any other source the parser rejects.
    """
    normalized = normalize_path(path)
    tree = ast.parse(source, filename=str(path))
    builder = build_scopes(tree)
    visitor = AnalysisVisitor(normalized, builder)
    visitor.visit(tree)
    findings = [
        finding
        for finding in visitor.findings
        if RULES[finding.code].applies_to(finding.path)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def analyze_file(path) -> List[Finding]:
    """Lint one file from disk."""
    return analyze_source(Path(path).read_bytes(), str(path))


def iter_python_files(root) -> Iterable[Path]:
    """Every ``.py`` under ``root`` (or ``root`` itself), sorted for stability."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def analyze_paths(paths: Sequence) -> List[Finding]:
    """Lint files/trees; findings sorted by (path, line, col, code).

    The one entry point: the CLI and the clean-tree test both call it.
    """
    findings: List[Finding] = []
    for path in paths:
        for file_path in iter_python_files(path):
            findings.extend(analyze_file(file_path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
