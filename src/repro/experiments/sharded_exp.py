"""Sharded-vs-serial beacon dissemination at city scale.

Two variants of the same mixed-mobility scenario: ``serial`` runs on one
kernel; ``sharded`` partitions the arena into vertical strips (see
:mod:`repro.sim.sharded`).  The cell result is **variant-blind** — it
records what was simulated (delivery count, canonical digest, frame
counters), never how (no shard count, no transport, no wall-clock), so
the two variants must produce byte-identical :class:`ShardedCell`\\ s and
the runner's ``--compare-serial`` digest gate applies to them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim.sharded import ScenarioSpec, run_serial, run_sharded

VARIANTS: Tuple[str, ...] = ("serial", "sharded")

#: Default grid size — big enough that strips hold hundreds of nodes,
#: small enough for the tier-1 wall-clock budget.
NODE_COUNT = 600

DEFAULT_SHARDS = 4

_ARENA_M = 1000.0
_ROUNDS = 6
_BEACON_PERIOD_S = 10.0
_HORIZON_S = 10.0


@dataclass(frozen=True)
class ShardedCell:
    """Variant-blind outcome of one sharded-scenario cell."""

    node_count: int
    rounds: int
    record_count: int
    delivery_digest: str
    frames_sent: int
    frames_delivered: int


def scenario(node_count: int, seed: int) -> ScenarioSpec:
    """The canonical mixed-mobility scenario at ``node_count`` nodes."""
    return ScenarioSpec(
        name=f"sharded-{node_count}",
        arena_m=_ARENA_M,
        node_count=node_count,
        rounds=_ROUNDS,
        beacon_period_s=_BEACON_PERIOD_S,
        horizon_s=_HORIZON_S,
        seed=seed,
    )


def city_scenario(node_count: int = 10_000, seed: int = 61) -> ScenarioSpec:
    """The full-size mixed-mobility city: ≥10k nodes at ~2 BLE neighbors.

    The arena scales area-linearly with the population (reference density:
    10k nodes on a 4 km square), so record volume grows linearly, not
    quadratically, as the scenario is scaled up.  At its default size it
    is perfbench's ``city`` workload, and ``sharded`` runs it on two
    shard worker processes.
    """
    arena_m = 4_000.0 * (node_count / 10_000) ** 0.5
    return ScenarioSpec(
        name=f"city-{node_count}",
        arena_m=arena_m,
        node_count=node_count,
        rounds=3,
        beacon_period_s=10.0,
        horizon_s=10.0,
        seed=seed,
    )


def iter_cells() -> Tuple[str, ...]:
    return VARIANTS


def run_cell(
    variant: str,
    node_count: int = NODE_COUNT,
    shards: int = DEFAULT_SHARDS,
    seed: int = 61,
) -> ShardedCell:
    """Run one variant; the returned cell never mentions the variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r} (choose from {VARIANTS})")
    spec = scenario(node_count, seed)
    if variant == "serial":
        outcome = run_serial(spec)
    else:
        # processes=None forks shard workers unless this process is
        # daemonic; the runner's pool workers are not, so they fork too.
        # The digest is identical either way.
        outcome = run_sharded(spec, shards)
    return ShardedCell(
        node_count=spec.node_count,
        rounds=spec.rounds,
        record_count=outcome.record_count,
        delivery_digest=outcome.digest,
        frames_sent=outcome.frames_sent,
        frames_delivered=outcome.frames_delivered,
    )
