"""End-to-end digest equality: serial vs sharded, inline vs processes.

The serial run on the production medium must also match the serial run
on the scalar reference medium, and a shard worker that dies mid-run must
fail the run at once.
"""

import multiprocessing
import os
import time

import pytest

from repro.phy.geometry import Position
from repro.phy.mobility import MobilityModel
from repro.runner import artifacts
from repro.sim.sharded import ScenarioSpec, engine, run_serial, run_sharded
from repro.sim.sharded.engine import canonical_records, delivery_digest
from repro.sim.sharded.shard import ShardRuntime
from repro.sim.sharded.spec import build_models, population_speed_cap
from tests.reference_medium import ReferenceMedium

SPEC = ScenarioSpec(
    name="engine-eq",
    arena_m=400.0,
    node_count=70,
    rounds=4,
    beacon_period_s=5.0,
    horizon_s=5.0,
    seed=97,
)


@pytest.fixture(scope="module")
def serial_outcome():
    return run_serial(SPEC)


def test_serial_run_delivers_and_digests(serial_outcome):
    assert serial_outcome.mode == "serial"
    assert serial_outcome.record_count > 0
    assert serial_outcome.record_count == serial_outcome.frames_delivered
    assert len(serial_outcome.digest) == 16


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_inline_sharded_matches_serial(serial_outcome, shards):
    outcome = run_sharded(SPEC, shards, processes=False)
    assert outcome.digest == serial_outcome.digest
    assert outcome.record_count == serial_outcome.record_count
    assert outcome.frames_delivered == serial_outcome.frames_delivered
    assert len(outcome.shard_results) == shards


def test_process_sharded_matches_serial(serial_outcome):
    outcome = run_sharded(SPEC, 3, processes=True)
    assert outcome.mode == "sharded-processes"
    assert outcome.digest == serial_outcome.digest
    assert outcome.record_count == serial_outcome.record_count


def test_serial_matches_the_scalar_reference(serial_outcome, monkeypatch):
    monkeypatch.setattr(engine, "Medium", ReferenceMedium)
    reference = run_serial(SPEC)
    assert reference.digest == serial_outcome.digest
    assert reference.record_count == serial_outcome.record_count
    assert (reference.frames_sent, reference.frames_dropped) == (
        serial_outcome.frames_sent, serial_outcome.frames_dropped)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the monkeypatched shard code reaches workers only via fork",
)
def test_dead_shard_worker_fails_fast_without_leaking_segments(monkeypatch):
    token = f"radead{os.getpid():x}"
    monkeypatch.setattr(artifacts, "make_run_token", lambda: token)
    original = ShardRuntime.run_window

    def run_window(self, t1):
        if self.shard_index == 1:
            os._exit(1)  # no message, no cleanup: a crashed worker
        return original(self, t1)

    monkeypatch.setattr(ShardRuntime, "run_window", run_window)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="shard 1 died mid-run"):
        run_sharded(SPEC, 3, processes=True)
    assert time.monotonic() - started < 10.0
    if os.path.isdir("/dev/shm"):
        assert [name for name in os.listdir("/dev/shm")
                if name.startswith(token)] == []


def test_process_sharded_inline_artifacts_match_serial(serial_outcome):
    outcome = run_sharded(SPEC, 2, processes=True, use_shared_memory=False)
    assert outcome.digest == serial_outcome.digest


def test_sharded_accounting_is_conserved():
    outcome = run_sharded(SPEC, 4, processes=False)
    assert sum(r.handoffs_out for r in outcome.shard_results) \
        == sum(r.handoffs_in for r in outcome.shard_results)
    assert sum(r.owned_final for r in outcome.shard_results) == SPEC.node_count
    # Cross-shard traffic exists in this scenario and is counted.
    assert outcome.frames_cross_shard > 0


def test_shard_count_must_be_positive():
    with pytest.raises(ValueError):
        run_sharded(SPEC, 0)


def test_canonical_merge_is_order_insensitive():
    records = [
        (2.0, 1, 2, 0, 10.0),
        (1.0, 3, 4, 0, 5.0),
        (1.0, 3, 2, 0, 5.0),
    ]
    assert delivery_digest(records) == delivery_digest(list(reversed(records)))
    assert canonical_records(records)[0] == (1.0, 3, 2, 0, 5.0)


class _Teleporter(MobilityModel):
    def position_at(self, time):
        return Position(0.0, 0.0)

    def max_displacement(self, t0, t1):
        return float("inf")


def test_unbounded_mobility_rejected():
    models = build_models(ScenarioSpec(
        name="cap", arena_m=100.0, node_count=5, rounds=1,
        beacon_period_s=5.0, horizon_s=5.0, seed=1,
    ))
    assert population_speed_cap(models) > 0.0
    with pytest.raises(ValueError, match="unbounded"):
        population_speed_cap([_Teleporter()])
