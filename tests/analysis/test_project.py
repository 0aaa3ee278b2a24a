"""The whole-program pass: cross-module taint, SHD rules, absorption.

The ``fixtures/xmod/`` tree is analyzed with the xmod directory itself as
the root, so ``import helpers`` resolves among the fixture files; the SHD
fixtures live under ``fixtures/repro/...`` so path normalization roots
them at the ``repro`` package and the path-scoped rules apply.
"""

from pathlib import Path

from repro.analysis import analyze_paths, analyze_project
from repro.analysis.callgraph import (
    build_project_graph,
    module_meta,
    module_name_for,
)

FIXTURES = Path(__file__).parent / "fixtures"
XMOD = FIXTURES / "xmod"


def keys(findings):
    return [(f.code, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


# -- cross-module taint -------------------------------------------------------


def test_taint_fires_at_the_caller_site_with_the_chain():
    findings = analyze_project([XMOD])
    assert keys(findings) == [
        ("DET002", "caller.py", 8),    # helpers.now_ms() via plain import
        ("DET002", "caller.py", 12),   # clock() via from-import alias
        ("DET002", "caller.py", 16),   # helpers.jittered() — two hops deep
    ]
    direct, alias, deep = findings
    # The chain names the callee, the primitive, and both files.
    assert "helpers:now_ms" in direct.message
    assert "time.time()" in direct.message
    assert "helpers.py:7" in direct.message
    assert "chain:" in direct.message
    # The alias call site still resolves to the same helper.
    assert "helpers:now_ms" in alias.message
    # The two-hop chain lists the intermediate function.
    assert "helpers:jittered" in deep.message
    assert "helpers:now_ms" in deep.message


def test_clean_wrapped_rng_helper_does_not_fire():
    findings = analyze_paths([XMOD])
    files = {f.path.rsplit("/", 1)[-1] for f in findings}
    assert "wrapped_rng.py" not in files
    assert "clean_caller.py" not in files
    # The tainted helper itself still carries its per-file DET002.
    assert ("DET002", "helpers.py", 7) in keys(findings)


def test_combined_analyze_paths_merges_both_passes():
    combined = analyze_paths([XMOD])
    project_only = analyze_project([XMOD])
    assert set(keys(project_only)) <= set(keys(combined))
    assert len(combined) == len(project_only) + 1  # + per-file DET002


def test_absorption_at_the_exemption_boundary(tmp_path):
    # The same helper taints its caller from an ordinary path but is
    # absorbed when it lives in the file that owns the invariant
    # (DET001 exempts repro/util/rng.py): exempt modules own their hazard.
    helper = "import random\n\n\ndef draw():\n    return random.random()\n"

    owned = tmp_path / "owned" / "repro"
    (owned / "util").mkdir(parents=True)
    (owned / "apps").mkdir()
    (owned / "util" / "rng.py").write_text(helper, encoding="utf-8")
    (owned / "apps" / "game.py").write_text(
        "from repro.util import rng\n\n\ndef roll():\n"
        "    return rng.draw()\n",
        encoding="utf-8",
    )
    assert analyze_project([owned.parent]) == []

    leaked = tmp_path / "leaked" / "repro"
    (leaked / "util").mkdir(parents=True)
    (leaked / "apps").mkdir()
    (leaked / "util" / "dice.py").write_text(helper, encoding="utf-8")
    (leaked / "apps" / "game.py").write_text(
        "from repro.util import dice\n\n\ndef roll():\n"
        "    return dice.draw()\n",
        encoding="utf-8",
    )
    findings = analyze_project([leaked.parent])
    assert [(f.code, f.path, f.line) for f in findings] == [
        ("DET001", "repro/apps/game.py", 5),
    ]
    assert "repro.util.dice:draw" in findings[0].message


# -- the SHD family -----------------------------------------------------------


def test_shd_fixture_tree_findings_are_exact():
    findings = analyze_project([FIXTURES])
    # Sorted comparison: the SHD fixtures normalize under the repro
    # package root while the xvec tree stays cwd-relative, so their
    # relative order depends on where pytest is invoked from.
    assert sorted(keys(findings)) == sorted([
        ("SHD001", "shd001_cross_module_path.py", 8),    # force_position
        ("SHD001", "shd001_cross_module_path.py", 12),   # adopt
        ("SHD002", "shd002_unbounded_schedule.py", 5),   # call_at unguarded
        ("SHD002", "shd002_unbounded_schedule.py", 9),   # call_in unguarded
        ("SHD003", "shd003_unpicklable_capture.py", 9),  # Carrier captured
        ("SHD004", "shd004_unordered_merge.py", 7),      # .items() loop
        ("SHD004", "shd004_unordered_merge.py", 13),     # .values() comp
        ("VEC001", "acceptance.py", 14),                 # np.exp in mask
        ("VEC004", "acceptance.py", 18),                 # bulk acceptance draw
        ("VEC004", "bulk_draw.py", 10),                  # rng.random(n)
        ("VEC004", "bulk_draw.py", 14),                  # draw in set loop
        ("VEC001", "rebucket.py", 18),                   # np.power in rebucket
        ("VEC001", "direct_ban.py", 12),                 # np.hypot
        ("VEC005", "reduction.py", 11),                  # np.sum
    ])
    # The guarded schedule (line 13-14), the min() clamp (line 18), the
    # Plain payload, and the sorted() merge idiom all stay silent —
    # asserted by the exactness of the list above.


def test_shd001_chain_names_the_out_of_package_sink():
    findings = [f for f in analyze_project([FIXTURES])
                if f.code == "SHD001"]
    assert "repro/util/mirror_helpers.py" in findings[0].message
    assert ".move_to()" in findings[0].message


def test_shd001_stays_quiet_for_in_package_sinks(tmp_path):
    # A sharded module calling another sharded module's mutator is FRK004's
    # per-file territory (it fires at the mutation site); SHD001 only adds
    # the cross-module finding when the sink hides outside the package.
    root = tmp_path / "tree" / "repro" / "sim" / "sharded"
    root.mkdir(parents=True)
    (root / "mutator.py").write_text(
        "def shove(node, position):\n    node.move_to(position)\n",
        encoding="utf-8",
    )
    (root / "caller.py").write_text(
        "from repro.sim.sharded.mutator import shove\n\n\n"
        "def rebalance(node, position):\n    shove(node, position)\n",
        encoding="utf-8",
    )
    findings = analyze_project([tmp_path / "tree"])
    assert [f.code for f in findings] == []


def test_shd003_chain_walks_the_attribute_graph():
    findings = [f for f in analyze_project([FIXTURES])
                if f.code == "SHD003"]
    message = findings[0].message
    assert "Carrier" in message
    assert "LockBox" in message
    assert "threading.Lock()" in message


# -- graph plumbing -----------------------------------------------------------


def test_module_names_root_at_the_repro_package(tmp_path):
    assert module_name_for(
        "src/repro/sim/sharded/shard.py", "src/repro"
    ) == "repro.sim.sharded.shard"
    assert module_name_for(
        "src/repro/util/__init__.py", "src"
    ) == "repro.util"
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "helpers.py").write_text("", encoding="utf-8")
    assert module_name_for(tree / "helpers.py", tree) == "helpers"


def test_module_meta_reports_import_candidates(tmp_path):
    module, deps = module_meta(
        "import os.path\nfrom a.b import c\n\n\ndef f():\n"
        "    from x import y\n",
        tmp_path / "m.py", tmp_path,
    )
    assert module == "m"
    assert "os" in deps and "os.path" in deps
    assert "a.b" in deps and "a.b.c" in deps
    assert "x" in deps  # function-local imports still count as deps


def test_resolution_follows_re_export_chains(tmp_path):
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "impl.py").write_text(
        "def work():\n    return 1\n", encoding="utf-8")
    (tree / "api.py").write_text(
        "from impl import work\n", encoding="utf-8")
    (tree / "app.py").write_text(
        "from api import work\n\n\ndef go():\n    return work()\n",
        encoding="utf-8",
    )
    entries = [(str(p), str(tree), p.read_text(encoding="utf-8"))
               for p in sorted(tree.glob("*.py"))]
    graph = build_project_graph(entries)
    app = graph.modules["app"]
    site = app.functions["go"].calls[0]
    assert site.callee is graph.modules["impl"].functions["work"]
