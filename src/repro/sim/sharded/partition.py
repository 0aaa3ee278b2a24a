"""Spatial partitioning: vertical strips with conservative halo reach.

The arena splits into ``shards`` equal-width x-strips; the edge strips
extend to infinity so every position (commuters may drift off the arena)
has exactly one owner.  Ownership is re-evaluated at each horizon from a
node's position at the window start, so the invariant "a shard owns
exactly the nodes whose window-start position lies in its strip" holds by
induction over windows.

The halo criterion is the conservative-PDES heart of the subsystem: node
``R`` must be mirrored into shard ``s`` for window ``[t0, t1)`` when

    xdist(R@t0, strip_s) <= range + bound_R + D + slack

where ``bound_R`` is R's own worst-case displacement over the window, and
``D`` bounds *any* node's displacement (speed cap × horizon).  By the
triangle inequality, a sender owned by ``s`` (inside the strip at ``t0``,
within ``D`` of it all window) can only reach ``R`` during the window if
that inequality holds — x-distance lower-bounds Euclidean distance — so
every possible cross-shard delivery resolves against a local mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.phy.geometry import Position

#: Additive safety margin (meters) on the halo reach.  The geometric
#: argument is exact in real arithmetic; one meter of slack keeps float
#: rounding in the criterion itself from ever flipping a boundary case.
HALO_SLACK_M = 1.0


@dataclass(frozen=True)
class StripPlan:
    """The arena's division into vertical ownership strips."""

    arena_m: float
    shards: int

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError(f"shards must be > 0, got {self.shards}")
        if self.arena_m <= 0.0:
            raise ValueError(f"arena_m must be > 0, got {self.arena_m}")

    @property
    def strip_width(self) -> float:
        """Interior strip width in meters."""
        return self.arena_m / self.shards

    def strip_of(self, position: Position) -> int:
        """The shard owning ``position`` (edge strips extend to infinity)."""
        index = math.floor(position.x / self.strip_width)
        if index < 0:
            return 0
        if index >= self.shards:
            return self.shards - 1
        return index

    def strip_bounds(self, shard: int) -> Tuple[float, float]:
        """The x-interval shard ``shard`` owns; edges are unbounded."""
        lo = shard * self.strip_width if shard > 0 else -math.inf
        hi = (shard + 1) * self.strip_width if shard < self.shards - 1 else math.inf
        return lo, hi

    def xdist(self, position: Position, shard: int) -> float:
        """Distance from ``position`` to shard ``shard``'s strip along x."""
        lo, hi = self.strip_bounds(shard)
        if position.x < lo:
            return lo - position.x
        if position.x > hi:
            return position.x - hi
        return 0.0

    def shards_within(self, position: Position, reach: float) -> range:
        """All shards whose strip is within ``reach`` of ``position``.

        Contiguous by construction, so a ``range`` — the halo fan-out per
        node is O(reach / strip_width), not O(shards).  Both bounds clamp
        into the shard range: positions beyond the arena edge (drifting
        commuters) fall to the infinite edge strips, never to no strip.
        """
        width = self.strip_width
        last = self.shards - 1
        lo = min(last, max(0, math.floor((position.x - reach) / width)))
        hi = min(last, max(0, math.floor((position.x + reach) / width)))
        # floor() places a point on a strip edge in the upper strip only,
        # but xdist measures to closed intervals: a neighbour whose edge
        # the query touches exactly (or that rounding left out) is within
        # reach too.
        while lo > 0 and self.xdist(position, lo - 1) <= reach:
            lo -= 1
        while hi < last and self.xdist(position, hi + 1) <= reach:
            hi += 1
        return range(lo, hi + 1)
