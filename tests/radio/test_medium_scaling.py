"""How much work ``Medium`` does per broadcast, counted rather than timed.

The binned gather exists so that a broadcast examines the few radios in
its neighbourhood instead of every radio of its technology, and so that
radios are positioned once per stamp instead of once per broadcast (see
the ``repro.radio.medium`` docstring).  These tests count that work on
fixed layouts — candidates examined per broadcast, ``position_at`` and
``max_speed`` calls, and batch-cache misses — so a regression that turns
pruning or caching off fails here on any host, however fast.  The scalar
reference medium (``tests/reference_medium.py``) examines every other
radio of the technology per broadcast: 199 on these 200-radio layouts.

The last test holds the production medium to that oracle, and to a
4-shard process run, at the density of the 2,000-scanner perfbench
``dense`` workload (about 80 receivers per broadcast).
"""

from __future__ import annotations

import pytest

from repro.phy import mobility
from repro.phy.geometry import Position
from repro.phy.mobility import RandomWaypoint
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.sim.sharded import ScenarioSpec, engine, run_serial, run_sharded
from repro.util.rng import SeededRng
from tests.reference_medium import ReferenceMedium

ARENA_M = 2000.0
NODE_COUNT = 200

#: Mean candidates a broadcast may examine: BLE's 30 m range over this
#: arena leaves ~1.4 radios in a sender's 5×5-cell neighbourhood.
MAX_CANDIDATES_PER_BROADCAST = 2.0

#: 400 mixed-mobility scanners in 112 m: the density of perfbench's
#: ``dense`` (2,000 in 250 m) at a fifth of its population.
DENSE_SPEC = ScenarioSpec(
    name="dense-parity",
    arena_m=112.0,
    node_count=400,
    rounds=3,
    beacon_period_s=5.0,
    horizon_s=5.0,
    seed=23,
)


class _CountingMedium(Medium):
    """Counts the candidates each query-stage gather hands a broadcast."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.candidates = 0

    def _cell_batch(self, *args):
        batch = super()._cell_batch(*args)
        self.candidates += len(batch.radios)
        return batch


def _count_calls(monkeypatch: pytest.MonkeyPatch, method: str) -> list:
    """Count every call of a mobility ``method``, as perfbench's tracer
    does: wrap it on each mobility class that defines it."""
    calls = [0]
    for cls in (mobility.MobilityModel, mobility.Static, mobility.Linear,
                mobility.WaypointPath, mobility.RandomWaypoint):
        original = cls.__dict__[method]

        def counted(self, *args, original=original):
            calls[0] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, method, counted)
    return calls


def _scanner(kernel: Kernel, node, medium: Medium) -> BleRadio:
    device = Device(kernel, node)
    radio = device.add_radio(BleRadio(device, medium))
    radio.enable()
    radio.start_scanning(lambda payload, mac, distance: None)
    return radio


def test_static_layout_positions_once_and_prunes(monkeypatch):
    """200 fixed scanners, 40 rounds at advancing instants: one position
    pass, one mover check and one gather per occupied cell for the whole
    run."""
    kernel = Kernel(seed=5)
    world = World(kernel)
    medium = _CountingMedium(kernel, world)
    layout_rng = SeededRng(1337)
    radios = []
    for i in range(NODE_COUNT):
        position = Position(
            layout_rng.uniform(0.0, ARENA_M), layout_rng.uniform(0.0, ARENA_M)
        )
        node = world.add_node(f"n{i}", position=position)
        radios.append(_scanner(kernel, node, medium))
    positions = _count_calls(monkeypatch, "position_at")
    speed_reads = _count_calls(monkeypatch, "max_speed")
    for round_index in range(40):
        kernel.run_until(float(round_index))
        for radio in radios:
            radio.advertise_once(b"beacon")
    kernel.run()
    assert medium.frames_sent == NODE_COUNT * 40
    assert medium.frames_delivered > 0
    assert positions[0] == NODE_COUNT
    assert speed_reads[0] <= NODE_COUNT
    assert medium.batch_cache_misses <= NODE_COUNT
    assert medium.candidates <= MAX_CANDIDATES_PER_BROADCAST * medium.frames_sent


def test_all_mobile_layout_positions_once_per_instant_and_prunes(monkeypatch):
    """200 walkers beaconing at 20 instants: each walker is positioned
    once per instant, never once per broadcast, and the first walker
    proves the technology a mover once for the whole run."""
    kernel = Kernel(seed=9)
    world = World(kernel)
    medium = _CountingMedium(kernel, world)
    radios = []
    for i in range(NODE_COUNT):
        walk = RandomWaypoint(
            kernel.rng.child("walk", str(i)),
            width=ARENA_M,
            height=ARENA_M,
            speed=1.0 + 0.1 * (i % 10),
        )
        node = world.add_node(f"m{i}", mobility=walk)
        radios.append(_scanner(kernel, node, medium))
    positions = _count_calls(monkeypatch, "position_at")
    speed_reads = _count_calls(monkeypatch, "max_speed")
    for round_index in range(20):
        kernel.run_until(2.0 * (round_index + 1))
        for radio in radios:
            radio.advertise_once(b"mob")
    kernel.run()
    assert medium.frames_sent == NODE_COUNT * 20
    assert medium.frames_delivered > 0
    assert positions[0] == NODE_COUNT * 20
    assert speed_reads[0] <= 2
    assert medium.candidates <= MAX_CANDIDATES_PER_BROADCAST * medium.frames_sent


def test_dense_scene_matches_the_oracle_and_four_shards(monkeypatch):
    production = run_serial(DENSE_SPEC)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "Medium", ReferenceMedium)
        reference = run_serial(DENSE_SPEC)
    sharded = run_sharded(DENSE_SPEC, 4, processes=True)
    counters = [
        (outcome.digest, outcome.record_count, outcome.frames_sent,
         outcome.frames_delivered, outcome.frames_dropped)
        for outcome in (production, reference, sharded)
    ]
    assert counters[0] == counters[1] == counters[2]
    assert sharded.mode == "sharded-processes"
    assert sharded.frames_cross_shard > 0
    # The dense regime: tens of receivers per broadcast.
    assert production.frames_delivered > 50 * production.frames_sent
