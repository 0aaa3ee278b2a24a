"""Symbol-table pass: Python's real lookup semantics, asserted directly.

Each test parses a small module, builds the scope tree, and asserts where
names bind — shadowing, nested functions, class-body invisibility,
comprehension scopes, and the ``global``/``nonlocal`` redirects the rule
passes rely on.
"""

import ast

from repro.analysis.scopes import Scope, build_scopes
from repro.analysis.visitor import analyze_source


def scopes_of(source):
    tree = ast.parse(source)
    builder = build_scopes(tree)
    return builder, builder.module_scope


def child(scope, name):
    for candidate in scope.children:
        if candidate.name == name:
            return candidate
    raise AssertionError(f"no child scope {name!r} in {scope!r}")


def test_module_scope_records_top_level_bindings():
    _, module = scopes_of(
        "import time\n"
        "from os.path import join as j\n"
        "LIMIT = 10\n"
        "def run():\n"
        "    pass\n"
        "class Box:\n"
        "    pass\n"
    )
    assert set(module.symbols) == {"time", "j", "LIMIT", "run", "Box"}
    assert module.symbols["time"].import_origin == "time"
    assert module.symbols["j"].import_origin == "os.path.join"
    assert [b.kind for b in module.symbols["run"].bindings] == ["function"]
    assert [b.kind for b in module.symbols["Box"].bindings] == ["class"]


def test_shadowed_name_resolves_locally():
    _, module = scopes_of(
        "items = set()\n"
        "def consume(items):\n"
        "    return items\n"
    )
    function = child(module, "consume")
    scope, symbol = function.resolve("items")
    assert scope is function
    assert [b.kind for b in symbol.bindings] == ["param"]
    # The module's set binding is a different symbol entirely.
    module_symbol = module.symbols["items"]
    assert module_symbol is not symbol


def test_nested_function_reads_enclosing_locals():
    _, module = scopes_of(
        "def outer():\n"
        "    counter = 0\n"
        "    def inner():\n"
        "        return counter\n"
        "    return inner\n"
    )
    outer = child(module, "outer")
    inner = child(outer, "inner")
    scope, _ = inner.resolve("counter")
    assert scope is outer


def test_class_body_is_invisible_to_methods():
    # Python skips class bodies during name lookup from nested functions:
    # `limit` inside the method resolves to the module, not the class body.
    _, module = scopes_of(
        "limit = 1\n"
        "class Box:\n"
        "    limit = 2\n"
        "    def read(self):\n"
        "        return limit\n"
    )
    box = child(module, "Box")
    read = child(box, "read")
    scope, symbol = read.resolve("limit")
    assert scope is module
    # ... but code *in* the class body sees the class binding first.
    scope, _ = box.resolve("limit")
    assert scope is box
    assert symbol.bindings[0].lineno == 1


def test_comprehension_gets_its_own_scope():
    builder, module = scopes_of(
        "def render(rows):\n"
        "    return [row.strip() for row in rows]\n"
    )
    render = child(module, "render")
    comp = child(render, "<listcomp>")
    assert comp.kind == "comprehension"
    # `row` binds in the comprehension, not in render.
    assert "row" in comp.symbols
    assert "row" not in render.symbols
    # `rows` read from the comprehension resolves to the parameter.
    scope, symbol = comp.resolve("rows")
    assert scope is render
    assert symbol.bindings[0].kind == "param"


def test_walrus_binds_in_the_enclosing_function_not_the_comprehension():
    _, module = scopes_of(
        "def scan(rows):\n"
        "    hits = [y for row in rows if (y := row.strip())]\n"
        "    return y\n"
    )
    scan = child(module, "scan")
    assert "y" in scan.symbols
    assert scan.symbols["y"].bindings[0].kind == "walrus"
    comp = child(scan, "<listcomp>")
    assert "y" not in comp.symbols


def test_global_redirects_resolution_to_module():
    _, module = scopes_of(
        "total = 0\n"
        "def bump():\n"
        "    global total\n"
        "    total = 1\n"
    )
    bump = child(module, "bump")
    scope, symbol = bump.resolve("total")
    assert scope is module
    assert symbol is module.symbols["total"]


def test_nonlocal_skips_to_the_enclosing_function():
    _, module = scopes_of(
        "count = -1\n"
        "def outer():\n"
        "    count = 0\n"
        "    def inner():\n"
        "        nonlocal count\n"
        "        count = 1\n"
        "    return inner\n"
    )
    outer = child(module, "outer")
    inner = child(outer, "inner")
    scope, _ = inner.resolve("count")
    assert scope is outer  # not inner (nonlocal), not module


def test_lambda_parameters_bind_in_the_lambda_scope():
    builder, module = scopes_of("key = lambda mesh: mesh.name\n")
    lam = child(module, "<lambda>")
    assert lam.kind == "lambda"
    assert "mesh" in lam.symbols
    assert "mesh" not in module.symbols


def test_qualname_walks_the_scope_chain():
    _, module = scopes_of(
        "class Box:\n"
        "    def read(self):\n"
        "        def helper():\n"
        "            pass\n"
    )
    helper = child(child(child(module, "Box"), "read"), "helper")
    assert helper.qualname() == "Box.read.helper"
    assert module.qualname() == "<module>"


def test_default_values_evaluate_in_the_enclosing_scope():
    # `fallback` in the default expression must resolve at module level;
    # the parameter of the same name is a different symbol.
    builder, module = scopes_of(
        "fallback = [1]\n"
        "def pick(fallback=fallback):\n"
        "    return fallback\n"
    )
    pick = child(module, "pick")
    assert [b.kind for b in pick.symbols["fallback"].bindings] == ["param"]


def test_tuple_unpacking_binds_every_element():
    _, module = scopes_of("a, (b, *c) = value\n")
    for name in ("a", "b", "c"):
        assert name in module.symbols, name
        # Unpacked elements record no RHS (the tuple split is not tracked).
        assert module.symbols[name].bindings[0].value is None


def test_scope_repr_and_module_accessor():
    _, module = scopes_of("def run():\n    x = 1\n")
    run = child(module, "run")
    assert run.module() is module
    assert "run" in repr(run)
    assert isinstance(run, Scope)


# -- the regression the ROADMAP asked for -------------------------------------


def test_det004_does_not_cross_scopes_on_shared_names():
    # Seed-era behaviour: `bundle_ids` anywhere became set-typed because
    # decode() binds a set under that name.  Scope-aware v2 keeps the
    # List[int] parameter a list, so iterating it is clean, while iterating
    # the actual set still fires.
    source = (
        "from typing import List, Set\n"
        "def encode(bundle_ids: List[int]):\n"
        "    return [i for i in bundle_ids]\n"
        "def decode() -> Set[int]:\n"
        "    bundle_ids = {1, 2}\n"
        "    return [i for i in bundle_ids]\n"
    )
    findings = analyze_source(source, "example.py")
    assert [(f.code, f.line) for f in findings] == [("DET004", 6)]
