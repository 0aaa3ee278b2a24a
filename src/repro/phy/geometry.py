"""Planar geometry primitives for device placement."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Position:
    """A point in a 2D plane, in meters."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in meters.

        Deliberately ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot``:
        multiplication and ``sqrt`` are correctly rounded, so the batch
        (numpy) distance kernel in :mod:`repro.util.array` reproduces this
        value bit-for-bit — ``hypot``'s extra-precision algorithm cannot
        be matched by any vectorized expression.  Keeping one canonical
        formula is what lets the batch medium and its scalar reference
        share byte-identical delivery logs.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def translated(self, dx: float, dy: float) -> "Position":
        """A new position offset by (dx, dy)."""
        return Position(self.x + dx, self.y + dy)

    def towards(self, target: "Position", distance: float) -> "Position":
        """A position ``distance`` meters from here along the line to ``target``.

        If ``target`` coincides with this position, returns this position.
        """
        total = self.distance_to(target)
        if total == 0.0:
            return self
        fraction = distance / total
        return Position(
            self.x + (target.x - self.x) * fraction,
            self.y + (target.y - self.y) * fraction,
        )

    def lerp(self, target: "Position", fraction: float) -> "Position":
        """Linear interpolation: 0 → here, 1 → ``target``."""
        return Position(
            self.x + (target.x - self.x) * fraction,
            self.y + (target.y - self.y) * fraction,
        )

    def __iter__(self):
        yield self.x
        yield self.y


ORIGIN = Position(0.0, 0.0)
