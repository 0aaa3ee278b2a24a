"""A technology whose radios cannot move keeps its batches across instants.

``Medium`` keys a technology's position arrays and cell batches on the
attach/move version alone while every attached radio of it has
``max_speed() == 0.0``, and on (timestamp, version) once one of them can
move.  These tests check, through the batch-cache counters, that a
technology's batch outlives an instant exactly when none of its radios
can move, and hold that cache to the scalar oracle
(:mod:`tests.reference_medium`) under churn — attaches, detaches,
teleports, a ferry that leaves on a ``WaypointPath`` and docks again,
power and scan toggles.  A Hypothesis test pins the cell edges that
long-lived batches rely on — of a stamp's first, one-cell gather and of
its table of every occupied cell — and the coordinate limit beyond which
the packed cell id would wrap.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, MobilityModel, Static, WaypointPath
from repro.phy.propagation import SoftDisk
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.medium import _CELL_LIMIT, DEFAULT_RANGES, Medium
from repro.radio.wifi import WifiRadio
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng
from tests.reference_medium import ReferenceMedium

ARENA_M = 120.0
KINDS = (RadioKind.BLE, RadioKind.WIFI)


class _Wobble(MobilityModel):
    """A model that states no speed bound: the base ``max_speed()`` is inf."""

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def position_at(self, time: float) -> Position:
        return Position(self.x + 3.0 * math.sin(time), self.y)


def _has_mover(medium: Medium, kind: RadioKind) -> bool:
    """Whether any attached radio of ``kind`` sits on a node that can move."""
    return any(
        not radio.node.mobility.max_speed() == 0.0
        for radio in medium.radios(kind)
    )


def _batch_spans_instants(kernel: Kernel, medium: Medium, radio) -> bool:
    """Whether ``radio``'s technology reuses its cell batch one instant
    later, with nothing attached, detached or moved in between."""
    medium.reachable_from(radio)
    hits = medium.batch_cache_hits
    kernel.run_until(kernel.now + 0.25)
    medium.reachable_from(radio)
    return medium.batch_cache_hits > hits


@pytest.mark.parametrize(
    "model, moving",
    [
        (Static(Position(1.0, 2.0)), False),
        (Linear(Position(1.0, 2.0), (0.0, 0.0)), False),
        (WaypointPath([(5.0, Position(1.0, 2.0))]), False),
        (Linear(Position(1.0, 2.0), (0.5, 0.0)), True),
        (WaypointPath([(0.0, Position(1.0, 2.0)),
                       (5.0, Position(3.0, 2.0))]), True),
        (_Wobble(1.0, 2.0), True),
    ],
    ids=["static", "linear-at-rest", "one-waypoint", "linear", "waypoints",
         "no-speed-bound"],
)
def test_mover_count_follows_max_speed(kernel, world, medium, model, moving):
    """A technology's batch spans instants iff none of its radios can
    move, as one node's mobility changes and its BLE radio detaches.  The
    batches are queried from a fixed anchor, so only the stamp decides."""
    anchor = Device(kernel, world.add_node("a", position=Position(0.0, 0.0)))
    probes = {
        kind: anchor.add_radio(cls(anchor, medium))
        for kind, cls in zip(KINDS, (BleRadio, WifiRadio))
    }
    node = world.add_node("x", mobility=model)
    device = Device(kernel, node)
    device.add_radio(BleRadio(device, medium))
    device.add_radio(WifiRadio(device, medium))

    def spans():
        return {
            kind: _batch_spans_instants(kernel, medium, probes[kind])
            for kind in KINDS
        }

    assert spans() == {kind: not moving for kind in KINDS}
    node.move_to(Position(1.0, 2.0))
    assert spans() == {kind: True for kind in KINDS}
    node.set_mobility(model)
    assert spans() == {kind: not moving for kind in KINDS}
    medium.detach(device.radios[RadioKind.BLE])
    assert spans() == {RadioKind.BLE: True, RadioKind.WIFI: not moving}


def test_each_technology_keeps_its_own_stamp(kernel, world, medium):
    """A BLE-only mover makes BLE re-bin per instant; WiFi, whose radios
    all sit still, keeps its batch across the same instants."""
    anchor = Device(kernel, world.add_node("a", position=Position(0.0, 0.0)))
    ble = anchor.add_radio(BleRadio(anchor, medium))
    wifi = anchor.add_radio(WifiRadio(anchor, medium))
    walker = Device(
        kernel,
        world.add_node("w", mobility=Linear(Position(5.0, 0.0), (1.0, 0.0))),
    )
    walker.add_radio(BleRadio(walker, medium))
    for radio in (ble, wifi, walker.radios[RadioKind.BLE]):
        radio.enable()
    medium.reachable_from(wifi)
    medium.reachable_from(ble)
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 2)
    kernel.run_until(1.0)
    medium.reachable_from(wifi)
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (1, 2)
    assert [r.device.name for r in medium.reachable_from(ble)] == ["w"]
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (1, 3)


class _Universe:
    """One side of the mirrored churn run: a kernel, world and medium."""

    def __init__(self, medium_cls, propagation) -> None:
        self.kernel = Kernel(seed=41)
        self.world = World(self.kernel)
        self.medium = medium_cls(self.kernel, self.world,
                                 propagation=propagation)
        self.devices = {}
        self.heard = []

    def ble(self, name: str) -> BleRadio:
        return self.devices[name].radios[RadioKind.BLE]

    def add(self, name: str, x: float, y: float, wifi: bool) -> None:
        device = Device(self.kernel,
                        self.world.add_node(name, position=Position(x, y)))
        device.add_radio(BleRadio(device, self.medium))
        if wifi:
            device.add_radio(WifiRadio(device, self.medium))
        for radio in device.radios.values():
            radio.enable()
        self.devices[name] = device
        self.scan(name)

    def scan(self, name: str) -> None:
        self.ble(name).start_scanning(
            lambda payload, mac, distance, me=name: self.heard.append(
                (self.kernel.now, me, payload, distance)
            )
        )

    def remove(self, name: str) -> None:
        device = self.devices.pop(name)
        for radio in device.radios.values():
            self.medium.detach(radio)
        self.world.remove_node(name)

    def reach(self, name: str):
        return [
            [r.device.name for r in self.medium.reachable_from(radio)]
            for radio in self.devices[name].radios.values()
        ]


def _churn(propagation, steps=400):
    """Drive the oracle and the production medium through one seeded churn
    sequence; return both universes and how many steps ran with and
    without a BLE mover."""
    oracle = _Universe(ReferenceMedium, propagation)
    batch = _Universe(Medium, propagation)
    both = (oracle, batch)
    ops = SeededRng(2718)
    names = []
    moving = []
    serial = [0]

    def spot():
        return ops.uniform(0.0, ARENA_M), ops.uniform(0.0, ARENA_M)

    def add():
        name = f"d{serial[0]}"
        x, y = spot()
        for universe in both:
            universe.add(name, x, y, wifi=serial[0] % 2 == 0)
        names.append(name)
        serial[0] += 1

    def settle(name, apply):
        for universe in both:
            apply(universe.world.node(name))
        if name in moving:
            moving.remove(name)

    for _ in range(24):
        add()
    regimes = {False: 0, True: 0}
    for step in range(steps):
        op = ops.choice((
            "advance", "advance", "beacon", "beacon", "round", "attach",
            "detach", "teleport", "ferry", "wobble", "dock", "dock", "dock",
            "still", "power", "scan", "reach",
        ))
        name = ops.choice(names)
        now = oracle.kernel.now
        if op == "advance":
            until = now + ops.uniform(0.01, 2.0)
            for universe in both:
                universe.kernel.run_until(until)
        elif op == "beacon":
            if oracle.ble(name).enabled:
                for universe in both:
                    universe.ble(name).advertise_once(b"b%03d" % step)
        elif op == "round":
            for sender in sorted(names):
                if oracle.ble(sender).enabled:
                    for universe in both:
                        universe.ble(sender).advertise_once(b"r%03d" % step)
        elif op == "attach":
            add()
        elif op == "detach":
            if len(names) > 8:
                names.remove(name)
                if name in moving:
                    moving.remove(name)
                for universe in both:
                    universe.remove(name)
        elif op == "teleport":
            x, y = spot()
            settle(name, lambda node: node.move_to(Position(x, y)))
        elif op == "ferry":
            # Fig 7's shape: leave on a waypoint path, dock later.
            legs = [(now + 0.5 * i, Position(*spot())) for i in range(3)]
            for universe in both:
                universe.world.node(name).set_mobility(WaypointPath(legs))
            if name not in moving:
                moving.append(name)
        elif op == "wobble":
            x, y = spot()
            for universe in both:
                universe.world.node(name).set_mobility(_Wobble(x, y))
            if name not in moving:
                moving.append(name)
        elif op == "dock":
            if moving:
                name = ops.choice(moving)
                here = oracle.world.node(name).position
                settle(name, lambda node: node.move_to(here))
        elif op == "still":
            x, y = spot()
            if ops.random() < 0.5:
                settle(name, lambda node: node.set_mobility(
                    Linear(Position(x, y), (0.0, 0.0))))
            else:
                settle(name, lambda node: node.set_mobility(
                    WaypointPath([(now + 1.0, Position(x, y))])))
        elif op == "power":
            for universe in both:
                radio = universe.ble(name)
                if radio.enabled:
                    radio.disable()
                else:
                    radio.enable()
                    universe.scan(name)
        elif op == "scan":
            if oracle.ble(name).enabled:
                for universe in both:
                    if universe.ble(name).scanning:
                        universe.ble(name).stop_scanning()
                    else:
                        universe.scan(name)
        else:  # reach: neighbour sets must agree at this instant
            assert oracle.reach(name) == batch.reach(name)
        regimes[_has_mover(batch.medium, RadioKind.BLE)] += 1
    for universe in both:
        universe.kernel.run_until(universe.kernel.now + 5.0)
    return oracle, batch, regimes


@pytest.mark.parametrize(
    "propagation",
    [None, {RadioKind.BLE: SoftDisk(inner=12.0, outer=30.0)}],
    ids=["unit-disk", "soft-disk"],
)
def test_static_batches_match_the_oracle_under_churn(propagation):
    oracle, batch, regimes = _churn(propagation)
    assert batch.heard == oracle.heard
    assert batch.heard  # the scenario actually delivered frames

    def counters(medium):
        return (medium.frames_sent, medium.frames_delivered,
                medium.frames_dropped)

    assert counters(batch.medium) == counters(oracle.medium)
    # Same RNG stream position: the draw-order contract held throughout.
    assert [batch.medium.rng.random() for _ in range(5)] == [
        oracle.medium.rng.random() for _ in range(5)
    ]
    # Both regimes ran for a while, and batches were reused.
    assert min(regimes.values()) >= 50, regimes
    assert batch.medium.batch_cache_hits > 0


# -- cell edges and the coordinate limit -----------------------------------

CUTOFF = DEFAULT_RANGES[RadioKind.BLE]
#: The farthest in-range cell edge, in meters.
EDGE_M = _CELL_LIMIT * CUTOFF


def _two_instants(medium_cls, positions):
    """Every radio beacons at t=0 and again at t=1; the log, the reachable
    sets and the counters, then the medium.  The first radio's cell is the
    stamp's first lookup; a second occupied cell builds its table."""
    kernel = Kernel(seed=5)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    heard = []
    radios = []
    for i, (x, y) in enumerate(positions):
        node = world.add_node(f"e{i}", position=Position(x, y))
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append(
                (kernel.now, me, payload, distance)
            )
        )
        radios.append(radio)
    reach = []
    for instant in (0, 1):
        kernel.run_until(float(instant))
        reach.append([r.device.name for r in medium.reachable_from(radios[0])])
        for i, radio in enumerate(radios):
            radio.advertise_once(bytes([instant, i]))
    kernel.run_until(2.0)
    return (heard, reach, medium.frames_sent, medium.frames_delivered,
            medium.frames_dropped), medium


_NEAR = st.floats(min_value=-2e3, max_value=2e3)
_FAR = st.floats(min_value=-7e10, max_value=7e10)
_OFFSET = st.floats(min_value=-60.0, max_value=60.0)


@st.composite
def _scenes(draw):
    """An anchor anywhere up to well beyond the limit, 1–4 radios near it."""
    x = draw(st.one_of(_NEAR, _FAR))
    y = draw(st.one_of(_NEAR, _FAR))
    offsets = draw(
        st.lists(st.tuples(_OFFSET, _OFFSET), min_size=1, max_size=4)
    )
    return [(x, y)] + [(x + dx, y + dy) for dx, dy in offsets]


@settings(max_examples=150, deadline=None)
@given(positions=_scenes())
# Beyond the limit, where the packed cell id would wrap: must raise.
@example(positions=[(6.5e10, 0.0), (6.5e10 + 1.0, 0.0)])
@example(positions=[(-6.5e10, 0.0), (-6.5e10 + 1.0, 0.0)])
@example(positions=[(0.0, 6.5e10), (0.0, 6.5e10 + 1.0)])
@example(positions=[(EDGE_M + CUTOFF, 0.0), (EDGE_M + CUTOFF - 1.0, 0.0)])
# The last in-range cells on either side.
@example(positions=[(EDGE_M + 15.0, 0.0), (EDGE_M + 14.0, 0.0)])
@example(positions=[(-EDGE_M, -EDGE_M), (-EDGE_M + 1.0, -EDGE_M)])
# Cell edges at k·cutoff, with receivers exactly one cutoff away.
@example(positions=[(90.0, 0.0), (60.0, 0.0), (120.0, 0.0), (90.0, 30.0)])
@example(positions=[(-0.0, -0.0), (0.0, 30.0), (-30.0, -0.0)])
# A receiver at exactly the cutoff: UnitDisk's closed <=.
@example(positions=[(0.0, 0.0), (CUTOFF, 0.0)])
# The cutoff + 0.75·size trim: a sender at a cell corner, its receiver one
# cutoff away diagonally outward, ~51.2 m from the cell centre.  In the
# first two the receiver lies 4e-15 m beyond the cutoff, in the last two
# 4e-15 m inside it, where a tighter trim would lose a delivery.
@example(positions=[(0.0, 0.0), (-21.213203435596427, -21.213203435596427)])
@example(positions=[(29.999999999999996, 29.999999999999996),
                    (51.21320343559643, 51.21320343559643)])
@example(positions=[(0.0, 0.0), (-21.213203435596423, -21.213203435596423)])
@example(positions=[(29.999999999999996, 29.999999999999996),
                    (51.21320343559642, 51.21320343559642)])
# The same edges in the table pass: the first radio, far away, takes the
# stamp's one-cell gather, so the cells after it are rows of the table.
@example(positions=[(600.0, 600.0), (60.0, 0.0), (59.99999999999999, 0.0),
                    (89.99999999999999, 0.0), (90.0, 0.0)])
@example(positions=[(600.0, 600.0), (-0.0, -0.0), (-5e-324, 0.0),
                    (0.0, -5e-324), (5e-324, 5e-324)])
@example(positions=[(600.0, 600.0), (15.0, 15.0), (45.0, 15.0),
                    (15.0, -15.0), (-15.0, 15.0)])
@example(positions=[(600.0, 600.0), (0.0, 0.0),
                    (-21.213203435596423, -21.213203435596423)])
@example(positions=[(600.0, 600.0), (29.999999999999996, 29.999999999999996),
                    (51.21320343559642, 51.21320343559642)])
# Tables at the coordinate limit, whose 5×5 windows pack ids to within
# 2**32 of either end of int64.
@example(positions=[(EDGE_M + 15.0, EDGE_M + 15.0),
                    (EDGE_M - 15.0, EDGE_M + 15.0),
                    (EDGE_M + 15.0, EDGE_M - 15.0),
                    (EDGE_M - 45.0, EDGE_M - 45.0)])
@example(positions=[(-EDGE_M, -EDGE_M), (-EDGE_M + 30.0, -EDGE_M),
                    (-EDGE_M, -EDGE_M + 30.0),
                    (-EDGE_M + 45.0, -EDGE_M + 45.0)])
def test_cell_edges_match_the_oracle_and_far_coordinates_raise(positions):
    beyond = any(
        abs(math.floor(c / CUTOFF)) > _CELL_LIMIT
        for point in positions for c in point
    )
    if beyond:
        with pytest.raises(ValueError, match="coordinate limit"):
            _two_instants(Medium, positions)
    else:
        result, medium = _two_instants(Medium, positions)
        assert result == _two_instants(ReferenceMedium, positions)[0]
        # One gather for the first cell, one table for the rest, if any.
        cells = {
            (math.floor(x / CUTOFF), math.floor(y / CUTOFF))
            for x, y in positions
        }
        assert medium.batch_cache_misses == min(len(cells), 2)
