"""Tests of the benchmark itself: output contract, span arithmetic, checks.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
test drives ``perfbench/run.py`` as the benchmark's users do, with the
smallest budget (``RSS_UNITS`` untraced units): on the ``dense`` workload,
and on ``sharded`` for the processes it starts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.spans import SpanSet  # noqa: E402
from perfbench.workloads import Scene  # noqa: E402

SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(completed: subprocess.CompletedProcess) -> Dict[str, Any]:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def declared(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


@pytest.fixture(scope="module")
def untraced() -> subprocess.CompletedProcess:
    return bench("--workload", "dense", "--seed", str(SEED), "--seconds", "0.1",
                 "--trace", "0")


@pytest.fixture(scope="module")
def traced() -> subprocess.CompletedProcess:
    return bench("--workload", "dense", "--seed", str(SEED), "--seconds", "0.1",
                 "--trace", "1")


def test_untraced_run_prints_end_to_end_metrics_with_declared_units(untraced):
    assert untraced.returncode == 0, untraced.stderr
    result = result_line(untraced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared("end_to_end")
    for name, unit in units.items():
        assert f"{name}" in untraced.stdout and unit in untraced.stdout


def test_traced_run_prints_per_layer_metrics_with_declared_units(traced):
    assert traced.returncode == 0, traced.stderr
    result = result_line(traced)
    assert result["correct"] is True and result["failed"] == 0
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared("per_layer")
    assert "tracing overhead" in traced.stdout


def test_no_self_time_is_negative(traced):
    assert traced.returncode == 0, traced.stderr
    metrics = result_line(traced)["metrics"]
    for name, entry in metrics.items():
        if entry["unit"] == "s":
            assert entry["value"] >= 0.0, name
    span_set = SpanSet.load(ROOT / ".perfbench" / "dense-rep0.main.spans")
    assert span_set.spans
    # Float subtraction may leave a child-covered span a few ulps below 0.
    assert min(span_set.self_s) > -1e-9


def test_layer_self_times_sum_to_traced_run_s_within_overhead(traced):
    assert traced.returncode == 0, traced.stderr
    record = json.loads(
        (ROOT / ".perfbench" / f"dense-seed{SEED}-trace1.json").read_text()
    )
    rows: List[Dict[str, Any]] = record["tables"]["run"]
    self_s = {row["layer"]: row["self_s"] for row in rows}
    assert {"radio", "radio.medium", "sim", "harness", "unattributed"} <= set(self_s)
    # Time inside no instrumented function is the part the layers miss:
    # within the tracing overhead, and (the overhead being a difference of
    # two noisy medians) under 1% of the run, which an unwrapped layer
    # would exceed.
    assert record["unattributed_s"] == pytest.approx(self_s["unattributed"])
    assert record["unattributed_s"] <= max(record["overhead_s"], 1e-3)
    assert record["unattributed_s"] <= 0.01 * record["traced_run_s"]
    assert record["layer_sum_s"] + record["unattributed_s"] == pytest.approx(
        record["traced_run_s"], abs=1e-3
    )
    # The scan callbacks are harness time, measured apart and not radio's.
    handler_s = record["layers"]["harness.handler_s"]
    assert 0.0 < handler_s <= self_s["harness"]


def session_processes(session: int) -> List[str]:
    """``pid state command`` of every process left in ``session``, zombies too."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended while we looked
            continue
        command, _, rest = stat.partition("(")[2].rpartition(")")
        state, _ppid, _group, sid = rest.split()[:4]
        if int(sid) == session:
            found.append(f"{entry.name} {state} {command}")
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_sharded_leaves_no_process_behind(trace):
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "sharded",
         "--seed", str(SEED), "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=600)
    assert process.returncode == 0, stderr
    assert json.loads(stdout.strip().splitlines()[-1])["correct"] is True
    # The command led its own session: whatever it started and left behind
    # (an orphan, or a zombie nobody reaped) is still in that session.
    assert session_processes(process.pid) == []


def copy_benchmark(to: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", to / "BENCHMARK.json")
    shutil.copytree(HERE, to / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_expected_digest_is_a_failed_unit(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["workloads"]["dense"]["scene"] = "0" * 16
    path.write_text(json.dumps(expected))
    completed = bench("--workload", "dense", "--seed", str(expected["seed"]),
                      "--seconds", "0.1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode == 1
    assert "Traceback" not in completed.stderr
    result = result_line(completed)
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "FAILED scene" in completed.stdout


def test_without_simulator_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path)
    completed = bench("--workload", "dense", "--seconds", "0.1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_scene_reproduces_the_serial_reference_log():
    from repro.sim.sharded import ScenarioSpec, run_serial

    spec = ScenarioSpec(name="small", arena_m=120.0, node_count=300, rounds=2,
                        beacon_period_s=10.0, horizon_s=10.0, seed=SEED)
    result = Scene(spec).run()
    assert [key for key, _ in result.cells] == ["round0", "round1"]
    assert result.units[0].digest == run_serial(spec).digest
