"""How much work ``Medium`` does per broadcast, counted rather than timed.

The binned gather exists so that a broadcast examines the few radios in
its neighbourhood instead of every radio of its technology, and so that
radios are positioned once per stamp instead of once per broadcast (see
the ``repro.radio.medium`` docstring).  These tests count that work on
fixed layouts — candidates examined per broadcast, ``position_at`` and
``max_speed`` calls, gather passes and the cells each gathers — so a
regression that turns pruning, caching or the per-stamp candidate table
off fails here on any host, however fast.  The scalar
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
    """Counts the candidates each query-stage lookup hands a broadcast,
    the cells each gather pass gathers, and the whole-table passes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.candidates = 0
        self.gathered_cells = []
        self.tables = 0

    def _cell_batch(self, *args):
        batch = super()._cell_batch(*args)
        self.candidates += len(batch.radios)
        return batch

    def _cell_table(self, *args):
        self.tables += 1
        return super()._cell_table(*args)

    def _gather(self, arrays, cell_x, cell_y, bounds, size):
        self.gathered_cells.append(len(bounds))
        return super()._gather(arrays, cell_x, cell_y, bounds, size)


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
    pass, one mover check and two gather passes — the first sender's cell,
    then the table of every occupied cell — for the whole run."""
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
    assert medium.batch_cache_misses <= 2
    assert medium.tables == 1
    assert medium.candidates <= MAX_CANDIDATES_PER_BROADCAST * medium.frames_sent


def test_all_mobile_layout_positions_once_per_instant_and_prunes(monkeypatch):
    """200 walkers beaconing at 20 instants: each walker is positioned
    once per instant, never once per broadcast, the first walker proves
    the technology a mover once for the whole run, and each instant runs
    at most two gather passes, never one per occupied cell."""
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
    assert medium.batch_cache_misses <= 2 * 20
    assert medium.tables <= 20
    assert medium.candidates <= MAX_CANDIDATES_PER_BROADCAST * medium.frames_sent


def test_one_sender_per_instant_gathers_only_its_own_cell():
    """200 walkers, each beaconing at an instant of its own, twice: every
    broadcast is its stamp's only lookup, so it gathers its own cell and
    the whole-table pass never runs (Fig 7's ferry has this shape)."""
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
    for round_index in range(2):
        for i, radio in enumerate(radios):
            kernel.run_until(10.0 * round_index + 0.01 * (i + 1))
            radio.advertise_once(b"solo")
    kernel.run()
    assert medium.frames_sent == NODE_COUNT * 2
    assert medium.frames_delivered > 0
    assert medium.tables == 0
    assert medium.gathered_cells == [1] * medium.frames_sent
    assert medium.batch_cache_misses == medium.frames_sent
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
