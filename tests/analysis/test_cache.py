"""The incremental cache: hits, busts, corruption, and parallel identity."""

import json

from repro.analysis import AnalysisCache, analyze_paths
from repro.analysis.cache import CACHE_SCHEMA, analyze_paths_incremental


BAD_SOURCE = (
    "import random\n"
    "\n"
    "\n"
    "def pick(options):\n"
    "    return random.choice(options)\n"
)


def write_tree(root):
    tree = root / "pkg"
    tree.mkdir()
    (tree / "bad.py").write_text(BAD_SOURCE, encoding="utf-8")
    (tree / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    return tree


def test_cold_then_warm_runs_are_identical(tmp_path):
    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    cold, cold_stats = analyze_paths_incremental([tree], cache=cache)
    warm, warm_stats = analyze_paths_incremental([tree], cache=cache)
    assert cold == warm == analyze_paths([tree])
    assert cold_stats.analyzed == 2 and cold_stats.cached == 0
    assert warm_stats.analyzed == 0 and warm_stats.cached == 2
    assert [f.code for f in cold] == ["DET001", "DET001"]


def test_source_change_busts_only_that_file(tmp_path):
    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze_paths_incremental([tree], cache=cache)
    (tree / "clean.py").write_text("VALUE = 2\n", encoding="utf-8")
    findings, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 1 and stats.cached == 1
    assert findings == analyze_paths([tree])


def test_ruleset_version_change_busts_everything(tmp_path, monkeypatch):
    from repro.analysis import rules

    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze_paths_incremental([tree], cache=cache)
    monkeypatch.setattr(rules, "RULESET_VERSION",
                        rules.RULESET_VERSION + ":bumped")
    _, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 2 and stats.cached == 0


def test_analysis_version_bump_busts_everything(tmp_path, monkeypatch):
    # The version was bumped (to 7) when the batch-pipeline surfaces
    # joined the VEC parity roots; RULESET_VERSION embeds it, so a bump
    # alone — same rules digest, same sources — must invalidate every
    # cached entry, or stale findings from the narrower root set would
    # survive the rule change.
    from repro.analysis import rules

    assert rules.ANALYSIS_VERSION >= 7
    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze_paths_incremental([tree], cache=cache)
    digest = rules.RULESET_VERSION.split(":", 1)[1]
    monkeypatch.setattr(
        rules, "RULESET_VERSION", f"{rules.ANALYSIS_VERSION + 1}:{digest}"
    )
    findings, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 2 and stats.cached == 0
    assert findings == analyze_paths([tree])


def test_corrupt_entry_is_a_cache_miss(tmp_path):
    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze_paths_incremental([tree], cache=cache)
    for entry in cache.root.glob("*.json"):
        entry.write_text("{not json", encoding="utf-8")
    findings, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 2 and stats.cached == 0
    assert findings == analyze_paths([tree])
    # ... and the re-store repaired the entries.
    _, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.cached == 2


def test_parallel_and_serial_findings_are_identical(tmp_path):
    tree = write_tree(tmp_path)
    for extra in range(4):
        (tree / f"extra_{extra}.py").write_text(
            f"import random  # {extra}\n", encoding="utf-8")
    serial, _ = analyze_paths_incremental([tree], jobs=1)
    parallel, stats = analyze_paths_incremental([tree], jobs=3)
    assert parallel == serial == analyze_paths([tree])
    assert stats.jobs == 3


def test_entries_are_self_describing(tmp_path):
    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze_paths_incremental([tree], cache=cache)
    entries = sorted(cache.root.glob("*.json"))
    assert len(entries) == 2
    for entry_path in entries:
        entry = json.loads(entry_path.read_text(encoding="utf-8"))
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["path"].endswith(".py")
        assert "digest" in entry and "findings" in entry


def test_stats_render_mentions_hits_and_jobs(tmp_path):
    tree = write_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    _, stats = analyze_paths_incremental([tree], jobs=2, cache=cache)
    text = stats.render()
    assert "2 file(s)" in text
    assert "jobs=2" in text


# -- dependency-aware invalidation (cache.v2) --------------------------------

HELPER_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def now():\n"
    "    return time.time()\n"
)

CALLER_SOURCE = (
    "from helper import now\n"
    "\n"
    "\n"
    "def run():\n"
    "    return now()\n"
)


def write_linked_tree(root):
    tree = root / "proj"
    tree.mkdir()
    (tree / "helper.py").write_text(HELPER_SOURCE, encoding="utf-8")
    (tree / "caller.py").write_text(CALLER_SOURCE, encoding="utf-8")
    (tree / "other.py").write_text("VALUE = 1\n", encoding="utf-8")
    return tree


def entries_by_file(cache):
    out = {}
    for entry_path in cache.root.glob("*.json"):
        raw = entry_path.read_text(encoding="utf-8")
        entry = json.loads(raw)
        out[entry["path"].rsplit("/", 1)[-1]] = raw
    return out


def test_cross_module_findings_flow_through_the_cache(tmp_path):
    tree = write_linked_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    cold, cold_stats = analyze_paths_incremental([tree], cache=cache)
    warm, warm_stats = analyze_paths_incremental([tree], cache=cache)
    assert cold == warm == analyze_paths([tree])
    assert not cold_stats.project_cached
    assert warm_stats.project_cached
    # The interprocedural DET002 lands at the *caller* call site.
    assert any(f.code == "DET002" and f.path.endswith("caller.py")
               for f in cold)


def test_leaf_edit_invalidates_exactly_its_dependents(tmp_path):
    tree = write_linked_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    analyze_paths_incremental([tree], cache=cache)
    before = entries_by_file(cache)

    # The leaf loses its taint; only the leaf re-analyzes per-file, but
    # its dependent's project section must be refreshed too.
    (tree / "helper.py").write_text(
        "def now():\n    return 0.0\n", encoding="utf-8")
    findings, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 1 and stats.cached == 2
    assert not stats.project_cached
    assert not any(f.code == "DET002" for f in findings)

    after = entries_by_file(cache)
    changed = {name for name in before if before[name] != after[name]}
    assert changed == {"helper.py", "caller.py"}
    # The bystander's entry file is byte-identical — its cache was
    # neither invalidated nor rewritten.
    assert before["other.py"] == after["other.py"]


def write_parity_tree(root):
    """A miniature src layout: the array leaf plus a parity dependent."""
    tree = root / "tree"
    (tree / "repro" / "util").mkdir(parents=True)
    (tree / "repro" / "net").mkdir(parents=True)
    (tree / "repro" / "util" / "array.py").write_text(
        "SCALE = 1.0\n", encoding="utf-8")
    (tree / "repro" / "net" / "prop.py").write_text(
        "import numpy as np\n"
        "\n"
        "from repro.util import array\n"
        "\n"
        "\n"
        "def delivery_probabilities(distances):\n"
        "    return np.hypot(distances, distances) * array.SCALE\n",
        encoding="utf-8",
    )
    (tree / "repro" / "idle.py").write_text("VALUE = 1\n", encoding="utf-8")
    return tree


def test_shim_leaf_edit_invalidates_exactly_its_vec_dependents(tmp_path):
    tree = write_parity_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    cold, _ = analyze_paths_incremental([tree], cache=cache)
    assert any(f.code == "VEC001" and f.path.endswith("prop.py")
               for f in cold)
    before = entries_by_file(cache)

    # Touch the array leaf only: the dependent's per-file findings stay
    # cached, but its project key (which folds in the leaf's digest)
    # moves, so its VEC section is recomputed — the bystander's is not.
    (tree / "repro" / "util" / "array.py").write_text(
        "SCALE = 1.0\nBACKEND_GENERATION = 2\n", encoding="utf-8")
    findings, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 1 and stats.cached == 2
    assert not stats.project_cached
    assert any(f.code == "VEC001" and f.path.endswith("prop.py")
               for f in findings)

    after = entries_by_file(cache)
    changed = {name for name in before if before[name] != after[name]}
    assert changed == {"array.py", "prop.py"}
    assert before["idle.py"] == after["idle.py"]


def test_caller_edit_repairs_the_callees_stale_vec_section(tmp_path):
    # The parity domain flows caller-ward: a VEC001 finding lands at the
    # callee, but exists only because of a *caller* elsewhere.  Editing
    # that caller leaves the callee's import-derived project key intact,
    # so the store pass must repair the callee's section by content —
    # otherwise the next fully-warm run resurrects the dead finding.
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "entry.py").write_text(
        "import loss\n\n\ndef broadcast(frame, candidates):\n"
        "    return loss.attenuate(candidates)\n",
        encoding="utf-8",
    )
    (tree / "loss.py").write_text(
        "import numpy as np\n\n\ndef attenuate(gains):\n"
        "    return np.power(10.0, gains)\n",
        encoding="utf-8",
    )
    cache = AnalysisCache(tmp_path / "cache")
    cold, _ = analyze_paths_incremental([tree], cache=cache)
    assert [(f.code, f.line) for f in cold
            if f.path.endswith("loss.py")] == [("VEC001", 5)]

    # Rename the root: broadcast() stops being a delivery path, so the
    # callee's VEC001 dies even though loss.py itself never changed.
    (tree / "entry.py").write_text(
        "import loss\n\n\ndef prepare(frame, candidates):\n"
        "    return loss.attenuate(candidates)\n",
        encoding="utf-8",
    )
    edited, stats = analyze_paths_incremental([tree], cache=cache)
    assert stats.analyzed == 1 and stats.cached == 1
    assert not any(f.code == "VEC001" for f in edited)

    warm, warm_stats = analyze_paths_incremental([tree], cache=cache)
    assert warm_stats.project_cached
    assert warm == edited  # no resurrection from the stale section


def test_dependency_cache_output_is_byte_identical(tmp_path):
    tree = write_linked_tree(tmp_path)

    def render(findings):
        return "\n".join(f.render() for f in findings)

    serial_cache = AnalysisCache(tmp_path / "serial")
    parallel_cache = AnalysisCache(tmp_path / "parallel")
    serial_cold, _ = analyze_paths_incremental([tree], cache=serial_cache)
    parallel_cold, _ = analyze_paths_incremental(
        [tree], jobs=4, cache=parallel_cache)
    serial_warm, _ = analyze_paths_incremental([tree], cache=serial_cache)
    parallel_warm, _ = analyze_paths_incremental(
        [tree], jobs=4, cache=parallel_cache)
    texts = {render(f) for f in (
        serial_cold, parallel_cold, serial_warm, parallel_warm)}
    assert len(texts) == 1
    assert "DET002" in texts.pop()


def test_stats_render_mentions_the_project_stage(tmp_path):
    tree = write_linked_tree(tmp_path)
    cache = AnalysisCache(tmp_path / "cache")
    _, cold = analyze_paths_incremental([tree], cache=cache)
    _, warm = analyze_paths_incremental([tree], cache=cache)
    assert "project analyzed" in cold.render()
    assert "project hit" in warm.render()
