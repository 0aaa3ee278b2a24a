"""Indexed vs linear equality under mobility churn, property-style.

The world's time-aware index and the medium's binned batch gather are
each driven through a randomized (but seeded) sequence of node adds,
removes, mobility swaps, teleports, clock advances, beacons, and range
queries, and compared against exhaustive linear scans: an inline
brute-force ``nodes_within``, and the scalar reference medium in a
mirrored universe.  At every step the answers must be equal *exactly*:
same ``nodes_within`` lists, same reachable sets, same delivered frames.
Clock advances are long enough to cross many epoch boundaries, so
rebucketing (and the fast-mover roaming fallback) is exercised
throughout.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, RandomWaypoint, Static, WaypointPath
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng
from tests.reference_medium import ReferenceMedium

ARENA_M = 300.0


def _make_spec(rng: SeededRng, fast_allowed: bool = True):
    """A picklable-ish description of a mobility model.

    Specs (not model instances) are shared between the mirrored universes:
    each universe builds its *own* model from the spec, so lazily generated
    trajectories (RandomWaypoint) never leak state across universes.
    """
    kinds = ["static", "linear", "waypoint", "randomwaypoint"]
    if fast_allowed:
        kinds.append("sprinter")  # fast enough to trip the roaming fallback
    kind = rng.choice(kinds)
    if kind == "static":
        return ("static", rng.uniform(0.0, ARENA_M), rng.uniform(0.0, ARENA_M))
    if kind == "linear":
        return (
            "linear",
            rng.uniform(0.0, ARENA_M),
            rng.uniform(0.0, ARENA_M),
            rng.uniform(-2.5, 2.5),
            rng.uniform(-2.5, 2.5),
        )
    if kind == "sprinter":
        return (
            "linear",
            rng.uniform(0.0, ARENA_M),
            rng.uniform(0.0, ARENA_M),
            rng.uniform(150.0, 400.0),
            rng.uniform(-400.0, 400.0),
        )
    if kind == "waypoint":
        waypoints = []
        t = rng.uniform(0.0, 30.0)
        for _ in range(rng.randint(2, 5)):
            waypoints.append(
                (t, (rng.uniform(0.0, ARENA_M), rng.uniform(0.0, ARENA_M)))
            )
            t += rng.uniform(0.0, 40.0)
        return ("waypoint", tuple(waypoints))
    return (
        "randomwaypoint",
        rng.randint(0, 10**9),
        rng.uniform(0.8, 3.0),
        rng.uniform(0.0, 4.0),
    )


def _build_model(spec):
    kind = spec[0]
    if kind == "static":
        return Static(Position(spec[1], spec[2]))
    if kind == "linear":
        return Linear(Position(spec[1], spec[2]), (spec[3], spec[4]))
    if kind == "waypoint":
        return WaypointPath([(t, Position(x, y)) for t, (x, y) in spec[1]])
    _, seed, speed, pause = spec
    return RandomWaypoint(SeededRng(seed), width=ARENA_M, height=ARENA_M,
                          speed=speed, pause=pause)


def _brute_force_within(world: World, center, radius: float):
    origin = center.position
    return sorted(
        node.name
        for node in world
        if node is not center and origin.distance_to(node.position) <= radius
    )


def test_world_nodes_within_identical_with_index_on_and_off_under_churn():
    kernel = Kernel(seed=5)
    world = World(kernel)
    ops = SeededRng(2024)
    names = []
    next_id = [0]

    def add_node():
        spec = _make_spec(ops)
        name = f"n{next_id[0]}"
        next_id[0] += 1
        world.add_node(name, mobility=_build_model(spec))
        names.append(name)

    for _ in range(20):
        add_node()

    queries = 0
    for _ in range(150):
        op = ops.choice(
            ("add", "remove", "retarget", "teleport",
             "advance", "advance", "query", "query", "query")
        )
        if op == "add":
            add_node()
        elif op == "remove" and len(names) > 4:
            name = ops.choice(names)
            names.remove(name)
            world.remove_node(name)
        elif op == "retarget" and names:
            name = ops.choice(names)
            world.node(name).set_mobility(_build_model(_make_spec(ops)))
        elif op == "teleport" and names:
            name = ops.choice(names)
            x = ops.uniform(0.0, ARENA_M)
            y = ops.uniform(0.0, ARENA_M)
            world.node(name).move_to(Position(x, y))
        elif op == "advance":
            dt = ops.uniform(0.5, 20.0)  # crosses epochs (≤ 60 s each)
            kernel.run_until(kernel.now + dt)
        elif op == "query" and names:
            center = ops.choice(names)
            radius = ops.choice((10.0, 40.0, 90.0, 170.0))
            found = [
                node.name
                for node in world.nodes_within(world.node(center), radius)
            ]
            # The indexed answer equals the from-scratch exhaustive one.
            assert found == _brute_force_within(
                world, world.node(center), radius
            )
            queries += 1
    assert queries > 20  # the op mix actually exercised the comparison


def _mirrored_stack(medium_cls, specs):
    kernel = Kernel(seed=3)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    radios = []
    heard = []
    for i, spec in enumerate(specs):
        node = world.add_node(f"d{i}", mobility=_build_model(spec))
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append(
                (me, payload, round(distance, 9))
            )
        )
        radios.append(radio)
    return kernel, world, medium, radios, heard


def test_medium_delivery_identical_with_index_on_and_off_under_churn():
    spec_rng = SeededRng(77)
    specs = [_make_spec(spec_rng) for _ in range(40)]
    (kernel_a, world_a, medium_a, radios_a, heard_a) = _mirrored_stack(
        ReferenceMedium, specs
    )
    (kernel_b, world_b, medium_b, radios_b, heard_b) = _mirrored_stack(
        Medium, specs
    )
    ops = SeededRng(31337)
    for step in range(120):
        op = ops.choice(("advance", "beacon", "beacon", "retarget", "teleport",
                         "reach"))
        if op == "advance":
            dt = ops.uniform(1.0, 15.0)
            kernel_a.run_until(kernel_a.now + dt)
            kernel_b.run_until(kernel_b.now + dt)
        elif op == "beacon":
            sender = ops.randint(0, len(specs) - 1)
            payload = b"s%03d" % step
            radios_a[sender].advertise_once(payload)
            radios_b[sender].advertise_once(payload)
        elif op == "retarget":
            target = ops.randint(0, len(specs) - 1)
            spec = _make_spec(ops)
            world_a.node(f"d{target}").set_mobility(_build_model(spec))
            world_b.node(f"d{target}").set_mobility(_build_model(spec))
        elif op == "teleport":
            target = ops.randint(0, len(specs) - 1)
            x = ops.uniform(0.0, ARENA_M)
            y = ops.uniform(0.0, ARENA_M)
            world_a.node(f"d{target}").move_to(Position(x, y))
            world_b.node(f"d{target}").move_to(Position(x, y))
        else:  # reach: neighbor sets must agree at this instant
            probe = ops.randint(0, len(specs) - 1)
            reach_a = [r.device.name
                       for r in medium_a.reachable_from(radios_a[probe])]
            reach_b = [r.device.name
                       for r in medium_b.reachable_from(radios_b[probe])]
            assert reach_a == reach_b
    # Drain in-flight deliveries, then the full logs must be identical.
    kernel_a.run_until(kernel_a.now + 5.0)
    kernel_b.run_until(kernel_b.now + 5.0)
    assert heard_a == heard_b
    assert heard_a  # the scenario actually delivered frames
    assert (medium_a.frames_sent, medium_a.frames_delivered,
            medium_a.frames_dropped) == (
        medium_b.frames_sent, medium_b.frames_delivered,
        medium_b.frames_dropped)
