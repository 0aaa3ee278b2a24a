"""Conservative parallel simulation across spatial shards.

The sharded simulator partitions a :class:`~repro.phy.world.World` into
vertical strips, each driven by its own :class:`~repro.sim.kernel.Kernel`
in a worker process, synchronizing at deterministic integer horizons.
Between horizons a shard runs independently: any node whose worst-case
displacement (via
:meth:`~repro.phy.mobility.MobilityModel.max_displacement`) cannot reach a
neighboring shard's halo cannot affect it before the next sync point.
Halo-band nodes are exchanged as struct-packed boundary messages, plain
bytes on each worker's pipe, and cross-shard deliveries merge in a
canonical (time, sender, receiver) order, so the delivery log of a
sharded run is byte-identical to a serial run of the same scenario.
"""

from repro.sim.sharded.engine import (
    ShardResult,
    SimOutcome,
    delivery_digest,
    run_serial,
    run_sharded,
)
from repro.sim.sharded.partition import StripPlan
from repro.sim.sharded.spec import ScenarioSpec, build_models, mobility_for

__all__ = [
    "ScenarioSpec",
    "ShardResult",
    "SimOutcome",
    "StripPlan",
    "build_models",
    "delivery_digest",
    "mobility_for",
    "run_serial",
    "run_sharded",
]
