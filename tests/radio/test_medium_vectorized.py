"""The batch broadcast pipeline is byte-identical to the scalar reference.

The same seeded scenario runs on the production ``Medium`` and on the
scalar oracle (:class:`tests.reference_medium.ReferenceMedium`): both must
produce the same delivery records *and* leave the medium's RNG stream in
the same state (the draw-order contract: one uniform per 0<p<1
candidate, ascending attach order, sender excluded).  SoftDisk makes the
stochastic path load-bearing; LogDistance, which has no cutoff, runs one
batch of every radio and draws for nearly every candidate; UnitDisk
exercises the no-draw fast path.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.mobility import RandomWaypoint, Static
from repro.phy.propagation import LogDistance, SoftDisk, UnitDisk
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from tests.reference_medium import ReferenceMedium

NODE_COUNT = 60
ARENA_M = 150.0
ROUNDS = 3
STEP_S = 2.0


def _run_scenario(medium_cls, propagation=None):
    """Seeded mixed Static/RandomWaypoint beacon scenario; returns the
    heard log, the medium counters, and a post-run RNG tail."""
    kernel = Kernel(seed=77)
    world = World(kernel)
    medium = medium_cls(kernel, world, propagation=propagation)
    heard = []
    radios = []
    for i in range(NODE_COUNT):
        if i % 3 == 0:
            mobility = Static(
                Position(
                    (i * 37.0) % ARENA_M, (i * 53.0) % ARENA_M
                )
            )
        else:
            mobility = RandomWaypoint(
                kernel.rng.child("vec-walk", str(i)),
                width=ARENA_M,
                height=ARENA_M,
                speed=1.0 + 0.1 * (i % 7),
            )
        node = world.add_node(f"v{i}", mobility=mobility)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append(
                (kernel.now, me, payload, distance)
            )
        )
        radios.append(radio)
    for round_index in range(ROUNDS):
        kernel.run_until((round_index + 1) * STEP_S)
        for i, radio in enumerate(radios):
            radio.advertise_once(bytes([round_index, i]))
    kernel.run()
    counters = (
        medium.frames_sent,
        medium.frames_delivered,
        medium.frames_dropped,
    )
    # The draw-order contract's sharpest check: after identical runs the
    # medium RNG must sit at the identical stream position.
    tail = [medium.rng.random() for _ in range(5)]
    return heard, counters, tail


def _assert_reference_parity(propagation):
    batch = _run_scenario(Medium, propagation)
    scalar = _run_scenario(ReferenceMedium, propagation)
    assert batch[0] == scalar[0]
    assert batch[1] == scalar[1]
    assert batch[2] == scalar[2]
    assert batch[1][1] > 0  # the layout actually delivered frames
    return batch


def test_unit_disk_parity_with_the_scalar_reference():
    batch = _assert_reference_parity(None)
    # UnitDisk never draws: the RNG tail equals a virgin child stream's.
    virgin = Kernel(seed=77).rng.child("medium")
    assert batch[2] == [virgin.random() for _ in range(5)]


def test_soft_disk_parity_exercises_the_draw_path():
    propagation = {RadioKind.BLE: SoftDisk(inner=12.0, outer=30.0)}
    batch = _assert_reference_parity(propagation)
    # SoftDisk's grey zone must actually have drawn: the tail diverges
    # from a virgin stream, proving the stochastic path ran (and matched).
    virgin = Kernel(seed=77).rng.child("medium")
    assert batch[2] != [virgin.random() for _ in range(5)]


def test_log_distance_parity_draws_across_the_whole_kind():
    propagation = {RadioKind.BLE: LogDistance(reference_range=20.0)}
    batch = _assert_reference_parity(propagation)
    virgin = Kernel(seed=77).rng.child("medium")
    assert batch[2] != [virgin.random() for _ in range(5)]


def test_vectorized_is_the_default_and_scalar_is_reachable():
    """Production broadcasts through the cached batch gather; the scalar
    loop survives only as the test oracle, which never touches it."""
    for medium_cls, gathers in ((Medium, 1), (ReferenceMedium, 0)):
        k = Kernel(seed=3)
        w = World(k)
        medium = medium_cls(k, w)
        radios = []
        for name, x in (("a", 0.0), ("b", 10.0)):
            device = Device(k, w.add_node(name, position=Position(x, 0.0)))
            radios.append(device.add_radio(BleRadio(device, medium)))
            radios[-1].enable()
        radios[1].start_scanning(lambda payload, mac, distance: None)
        assert radios[0].advertise_once(b"ping") == 1
        assert medium.batch_cache_misses == gathers


def test_unbounded_model_runs_one_batch_of_every_radio(kernel, world):
    """LogDistance has no cutoff: every radio of the kind is a candidate,
    however far away, and one batch serves every sender."""
    medium = Medium(
        kernel, world,
        propagation={RadioKind.BLE: LogDistance(reference_range=1e6)},
    )
    heard = []
    radios = []
    for name, x in (("a", 0.0), ("b", 5000.0), ("c", -5000.0)):
        device = Device(kernel, world.add_node(name, position=Position(x, 0.0)))
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=name: heard.append((me, payload))
        )
        radios.append(radio)
    radios[0].advertise_once(b"far")
    radios[1].advertise_once(b"wide")
    kernel.run_until(1.0)
    assert sorted(heard) == [
        ("a", b"wide"), ("b", b"far"), ("c", b"far"), ("c", b"wide"),
    ]
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (1, 1)


def test_unit_disk_boundary_is_inclusive_both_paths(kernel):
    """A receiver at exactly the UnitDisk radius hears the frame under
    both the batch medium and the scalar reference (<= comparison, no
    float drift)."""
    for medium_cls in (Medium, ReferenceMedium):
        k = Kernel(seed=3)
        w = World(k)
        m = medium_cls(k, w)
        radius = UnitDisk(30.0).radius
        sender_node = w.add_node("s", position=Position(0.0, 0.0))
        edge_node = w.add_node("e", position=Position(radius, 0.0))
        sd = Device(k, sender_node)
        ed = Device(k, edge_node)
        tx = sd.add_radio(BleRadio(sd, m))
        rx = ed.add_radio(BleRadio(ed, m))
        tx.enable()
        rx.enable()
        heard = []
        rx.start_scanning(
            lambda payload, mac, distance: heard.append(distance)
        )
        tx.advertise_once(b"edge")
        k.run_until(1.0)
        assert heard == [radius]
