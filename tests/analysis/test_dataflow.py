"""Unit coverage for the inference layer the rule pass is built on."""

import ast

from repro.analysis.dataflow import (
    SIM_TIME,
    WALL_CLOCK,
    attribute_set_names,
    classify_annotation,
    classify_value,
    dedup_suppressed_id_calls,
    expr_time_domain,
    is_commutative_accumulation_loop,
    sim_time_accumulations,
    symbol_types,
    walk_scope_body,
)
from repro.analysis.scopes import build_scopes


def built(source):
    tree = ast.parse(source)
    return tree, build_scopes(tree)


def annotation(text):
    return ast.parse(text, mode="eval").body


def rhs(text):
    return ast.parse(text, mode="eval").body


# -- container classification -------------------------------------------------


def test_classify_annotation():
    assert classify_annotation(annotation("Set[int]")) == "set"
    assert classify_annotation(annotation("typing.FrozenSet[str]")) == "set"
    assert classify_annotation(annotation("List[int]")) == "list"
    assert classify_annotation(annotation("Sequence[float]")) == "list"
    assert classify_annotation(annotation("Dict[str, int]")) == "dict"
    assert classify_annotation(annotation("'Set[int]'")) == "set"  # string form
    assert classify_annotation(annotation("int")) is None
    assert classify_annotation(None) is None


def test_classify_value():
    assert classify_value(rhs("{1, 2}")) == "set"
    assert classify_value(rhs("set(xs)")) == "set"
    assert classify_value(rhs("{x for x in xs}")) == "set"
    assert classify_value(rhs("[1]")) == "list"
    assert classify_value(rhs("sorted(xs)")) == "list"
    assert classify_value(rhs("{}")) == "dict"
    assert classify_value(rhs("dict(a=1)")) == "dict"
    assert classify_value(rhs("make()")) is None
    assert classify_value(None) is None


def test_symbol_types_union_per_scope():
    _, builder = built(
        "def f():\n"
        "    xs = set()\n"
        "    xs = sorted(xs)\n"
    )
    function = builder.module_scope.children[0]
    assert symbol_types(function.symbols["xs"]) == {"set", "list"}


def test_attribute_set_names_are_module_wide():
    _, builder = built(
        "class T:\n"
        "    def __init__(self):\n"
        "        self._engaged = set()\n"
        "        self._order = []\n"
    )
    assert attribute_set_names(builder.attribute_bindings) == {"_engaged"}


# -- time domains -------------------------------------------------------------


def test_expr_time_domain_tags():
    source = (
        "start = kernel.now\n"
        "wall = time.time()\n"
        "delta = start + 1.0\n"
    )
    tree, builder = built(source)
    module = builder.module_scope
    values = {node.targets[0].id: node.value for node in tree.body}
    assert expr_time_domain(values["start"], module) == SIM_TIME
    assert expr_time_domain(values["wall"], module) == WALL_CLOCK
    # Arithmetic on a sim-tagged name stays sim-tagged (through the binding).
    assert expr_time_domain(values["delta"], module) == SIM_TIME


def test_sim_time_accumulation_detection():
    _, builder = built(
        "def poll(kernel):\n"
        "    t = kernel.now\n"
        "    t += 0.1\n"
        "    steps = 0\n"
        "    steps += 1\n"
    )
    function = builder.module_scope.children[0]
    nodes = sim_time_accumulations(function)
    assert [node.lineno for node in nodes] == [3]  # t += only, not steps


# -- scope-local walking ------------------------------------------------------


def test_walk_scope_body_stops_at_nested_scopes():
    tree, _ = built(
        "def outer():\n"
        "    a = 1\n"
        "    def inner():\n"
        "        hidden = 2\n"
        "    b = [x for x in range(3)]\n"
    )
    outer = tree.body[0]
    names = {n.id for n in walk_scope_body(outer) if isinstance(n, ast.Name)}
    assert "a" in names and "b" in names
    assert "hidden" not in names          # nested function is a boundary
    assert "x" in names                   # comprehensions are not


# -- DET004/DET005 precision helpers ------------------------------------------


def test_commutative_loop_classification():
    def loop(source):
        return ast.parse(source).body[0]

    assert is_commutative_accumulation_loop(
        loop("for i in xs:\n    mask |= 1 << i\n"))
    assert is_commutative_accumulation_loop(
        loop("for i in xs:\n    mask ^= i\n    mask &= i\n"))
    assert not is_commutative_accumulation_loop(
        loop("for i in xs:\n    total += i\n"))       # float + is ordered
    assert not is_commutative_accumulation_loop(
        loop("for i in xs:\n    out.append(i)\n"))    # arbitrary statement
    assert not is_commutative_accumulation_loop(
        loop("for i in xs:\n    mask |= i\nelse:\n    mask = 0\n"))


def test_dedup_suppression_requires_membership_only_and_sort():
    source = (
        "def visible(rs):\n"
        "    seen = set()\n"
        "    out = []\n"
        "    for r in rs:\n"
        "        if id(r) in seen:\n"
        "            continue\n"
        "        seen.add(id(r))\n"
        "        out.append(r)\n"
        "    out.sort()\n"
        "    return out\n"
    )
    tree, builder = built(source)
    function_node = tree.body[0]
    function = builder.scopes[function_node]
    suppressed = dedup_suppressed_id_calls(function_node, function)
    id_calls = [n for n in ast.walk(function_node)
                if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "id"]
    assert suppressed == {id(n) for n in id_calls}

    # Remove the sort: nothing is suppressed.
    no_sort = source.replace("    out.sort()\n", "")
    tree, builder = built(no_sort)
    function_node = tree.body[0]
    assert not dedup_suppressed_id_calls(
        function_node, builder.scopes[function_node])

    # Iterate the set afterwards: the extra load disqualifies it.
    leaky = source.replace("    return out\n",
                           "    return [k for k in seen]\n")
    tree, builder = built(leaky)
    function_node = tree.body[0]
    assert not dedup_suppressed_id_calls(
        function_node, builder.scopes[function_node])
