"""Mobility-heavy beacon workload: the time-aware index's proving ground.

The paper's crowd/tourism workloads — and the BLE-mesh scalability regimes
of the related literature — are dominated by *moving* devices, exactly
where a static-only spatial index degenerates to an O(n) scan per
transmission.  This experiment walks every node with
:class:`~repro.phy.mobility.RandomWaypoint` inside a city-block arena and
beacons periodically, then fingerprints the full delivery log.

It runs as the ``mobility`` grid under ``python -m repro.runner``, one
cell.  The tier-1 suite runs the same scene on the scalar reference
medium and requires an identical cell — same counters, same delivery log
digest — the machine-checked form of the batch medium's "prunes work,
never outcomes" contract under mobility (and, via the runner, of serial
== parallel).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.phy.mobility import RandomWaypoint
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel

#: The grid's one cell: every node walks.
CELL = "all-mobile"

#: Arena edge in meters.  At 120 nodes over 800 m² blocks the BLE
#: neighborhood of a walker is a handful of nodes, so pruning has room to
#: pay off without the scenario degenerating into one giant clique.
ARENA_M = 800.0

#: Walkers in the arena; every single one is mobile.
NODE_COUNT = 120

#: Beacon cadence: every node advertises once per round.
BEACON_PERIOD_S = 5.0
BEACON_ROUNDS = 10

#: Walking speeds cycle through a small deterministic band (m/s).
_SPEEDS = (1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class MobilityCell:
    """The scene's outcome.

    Deliberately carries no medium tag: the production and reference
    media must produce equal cells, field for field.
    """

    node_count: int
    rounds: int
    frames_sent: int
    frames_delivered: int
    frames_dropped: int
    delivery_count: int
    delivery_digest: str


def run_scene(node_count: int = NODE_COUNT, seed: int = 41) -> MobilityCell:
    """Run the all-mobile beacon scenario."""
    kernel = Kernel(seed=seed)
    world = World(kernel)
    medium = Medium(kernel, world)
    deliveries: List[Tuple[str, bytes, float]] = []
    radios = []
    for i in range(node_count):
        # Each walker owns an independent RNG stream, so its trajectory is
        # a pure function of (seed, i) no matter when — or whether — any
        # other node's position gets evaluated.
        walk = RandomWaypoint(
            kernel.rng.child("walker", str(i)),
            width=ARENA_M,
            height=ARENA_M,
            speed=_SPEEDS[i % len(_SPEEDS)],
            pause=2.0,
        )
        node = world.add_node(f"w{i:03d}", mobility=walk)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=node.name: deliveries.append(
                (me, payload, round(distance, 9))
            )
        )
        radios.append(radio)
    for round_index in range(BEACON_ROUNDS):
        fire_at = (round_index + 1) * BEACON_PERIOD_S
        for i, radio in enumerate(radios):
            payload = b"r%02d n%03d" % (round_index, i)
            kernel.call_at(
                fire_at, lambda r=radio, p=payload: r.advertise_once(p)
            )
    kernel.run_until((BEACON_ROUNDS + 1) * BEACON_PERIOD_S)
    digest = hashlib.sha256(repr(deliveries).encode("utf-8")).hexdigest()[:16]
    return MobilityCell(
        node_count=node_count,
        rounds=BEACON_ROUNDS,
        frames_sent=medium.frames_sent,
        frames_delivered=medium.frames_delivered,
        frames_dropped=medium.frames_dropped,
        delivery_count=len(deliveries),
        delivery_digest=digest,
    )


def run_mobility(seed: int = 41) -> List[MobilityCell]:
    """Serial driver: every cell of the mobility grid, declaration order."""
    return [run_scene(seed=seed)]
