"""Propagation models: can two radios hear each other, and how well?

The reproduction defaults to a unit-disk model per technology (in range or
not), which matches the paper's testbed where all devices are well within
range.  A log-distance model with a soft edge is provided for richer
scenarios and ablations.

Batch API and the RNG draw-order contract (public)
--------------------------------------------------

Every model answers both scalar questions (``delivery_probability``,
``in_range``) and their batch twins (``delivery_probabilities``,
``in_range_mask``) over a whole distance array at once.  The batch
methods are **defined** as the elementwise application of the scalar
ones — bit-identical, not approximately equal — so the batch broadcast
pipeline produces the same delivery logs as a scalar per-receiver loop.
The default batch implementations delegate to the scalar methods, so
third-party models that only override the scalar surface keep working
(and stay correct under the medium's batch pipeline automatically).

Stochastic delivery draws exactly one uniform variate per receiver whose
delivery probability ``p`` satisfies ``0 < p < 1`` — never for certain
(``p >= 1``) or impossible (``p <= 0``) deliveries, and never for
:class:`UnitDisk` at all — and consumes them in **ascending attach order
of the candidate receivers, sender excluded** (the order radios attached
to the medium).  This draw-order contract is part of the public API:
batch implementations compute probabilities however they like, but must
spend the RNG stream in exactly this order, which is what keeps the
batch medium, its scalar reference, and sharded runs byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.util.rng import SeededRng
from repro.util.validation import check_positive


class PropagationModel:
    """Interface: link quality between two points at a distance."""

    def delivery_probability(self, distance: float) -> float:
        """Probability that a single frame at ``distance`` meters is heard."""
        raise NotImplementedError

    def in_range(self, distance: float) -> bool:
        """True if any communication is possible at ``distance``."""
        return self.delivery_probability(distance) > 0.0

    def delivery_probabilities(self, distances: Sequence[float]):
        """Batch twin of :meth:`delivery_probability`.

        Returns a sequence parallel to ``distances`` (an ndarray when the
        implementation is numpy-aware, else a list)
        whose every element is **bit-identical** to the scalar method at
        that distance.  The default delegates elementwise, so models that
        only implement the scalar surface inherit a correct batch form.
        """
        probability = self.delivery_probability
        return [probability(float(d)) for d in distances]

    def in_range_mask(self, distances: Sequence[float]):
        """Batch twin of :meth:`in_range`: a parallel boolean sequence.

        Elementwise identical to the scalar predicate — including any
        override (e.g. :class:`LogDistance` cuts off at 1% delivery, so
        its mask disagrees with ``delivery_probabilities(...) > 0``).
        """
        in_range = self.in_range
        return [in_range(float(d)) for d in distances]

    def max_range(self) -> Optional[float]:
        """Hard reception cutoff in meters, or None when unbounded.

        Beyond this distance ``delivery_probability`` is exactly 0 — no
        frame is delivered *and no RNG draw happens* — so a spatial index
        may prune such receivers without perturbing any seed stream.
        Models without a hard cutoff (every distance keeps a nonzero
        probability, hence an RNG draw per receiver) must return None so
        callers consider every receiver.
        """
        return None


@dataclass(frozen=True)
class UnitDisk(PropagationModel):
    """Perfect reception up to ``radius`` meters, nothing beyond."""

    radius: float

    def delivery_probability(self, distance: float) -> float:
        return 1.0 if distance <= self.radius else 0.0

    def delivery_probabilities(self, distances: Sequence[float]):
        d = np.asarray(distances, dtype=np.float64)
        # A <= comparison then a 0/1 cast: exact, no rounding involved.
        return (d <= self.radius).astype(np.float64)

    def in_range_mask(self, distances: Sequence[float]):
        return np.asarray(distances, dtype=np.float64) <= self.radius

    def max_range(self) -> Optional[float]:
        return self.radius


@dataclass(frozen=True)
class SoftDisk(PropagationModel):
    """Perfect reception up to ``inner``; linear falloff to zero at ``outer``.

    Models the grey zone at the edge of a radio's range without a full
    path-loss computation.
    """

    inner: float
    outer: float

    def __post_init__(self) -> None:
        check_positive("inner", self.inner)
        if self.outer < self.inner:
            raise ValueError(
                f"outer radius ({self.outer}) must be >= inner ({self.inner})"
            )

    def delivery_probability(self, distance: float) -> float:
        if distance <= self.inner:
            return 1.0
        if distance >= self.outer:
            return 0.0
        return 1.0 - (distance - self.inner) / (self.outer - self.inner)

    def delivery_probabilities(self, distances: Sequence[float]):
        d = np.asarray(distances, dtype=np.float64)
        # The falloff is plain IEEE-754 arithmetic (sub/sub/div/sub),
        # which numpy evaluates bit-identically to the scalar method.
        # Guard the plateau/floor with where() *after* evaluating the
        # ramp everywhere; inner == outer only reaches the division
        # when neither plateau applies, which that degenerate model
        # makes impossible, so silence the spurious 0/0 warning.
        with np.errstate(divide="ignore", invalid="ignore"):
            ramp = 1.0 - (d - self.inner) / (self.outer - self.inner)
        return np.where(
            d <= self.inner, 1.0, np.where(d >= self.outer, 0.0, ramp)
        )

    def in_range_mask(self, distances: Sequence[float]):
        # in_range == delivery_probability > 0, and the probabilities are
        # bit-identical to the scalar method — deriving the mask from them
        # keeps the float edge cases (the ramp can round to exactly 0.0
        # one ulp below `outer`) in lockstep.
        return self.delivery_probabilities(distances) > 0.0

    def max_range(self) -> Optional[float]:
        return self.outer


@dataclass(frozen=True)
class LogDistance(PropagationModel):
    """Log-distance path loss mapped to a delivery probability.

    ``reference_range`` is where the delivery probability crosses 50%;
    ``exponent`` controls how fast it falls off around that point.
    """

    reference_range: float
    exponent: float = 3.0

    def delivery_probability(self, distance: float) -> float:
        check_positive("reference_range", self.reference_range)
        if distance <= 0.0:
            return 1.0
        # Logistic curve in log-distance space, centred at reference_range.
        ratio = distance / self.reference_range
        if ratio <= 0.0:
            # A subnormal distance can underflow the division to exactly
            # 0.0, which log10 rejects; the logistic limit toward zero
            # distance is certain delivery, same as distance <= 0.0.
            return 1.0
        x = self.exponent * math.log10(ratio)
        try:
            probability = 1.0 / (1.0 + math.pow(10.0, x))
        except OverflowError:
            # 10**x exceeds float range only when the probability has
            # long since rounded to exactly 0.0.
            return 0.0
        return max(0.0, min(1.0, probability))

    def in_range(self, distance: float) -> bool:
        # Cut off where delivery would be hopeless: < 1%.
        return self.delivery_probability(distance) >= 0.01

    def delivery_probabilities(self, distances: Sequence[float]) -> List[float]:
        # Deliberately a scalar loop, not np.log10/np.power: numpy's SIMD
        # transcendentals are not bit-identical to the math module, and the
        # batch contract demands exact equality.
        probability = self.delivery_probability
        return [probability(float(d)) for d in distances]

    def in_range_mask(self, distances: Sequence[float]) -> List[bool]:
        # Note this deliberately disagrees with `delivery_probabilities(...)
        # > 0`: the scalar predicate cuts off at 1%, and the mask follows it.
        return [p >= 0.01 for p in self.delivery_probabilities(distances)]


def frame_delivered(model: PropagationModel, distance: float, rng: SeededRng) -> bool:
    """Roll delivery of a single frame under ``model`` at ``distance``."""
    if type(model) is UnitDisk:
        # Hot-path short circuit: the all-or-nothing default model never
        # consumes randomness, so skip the probability indirection entirely
        # (this cannot perturb any other consumer's seed stream).
        return distance <= model.radius
    probability = model.delivery_probability(distance)
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    return rng.bernoulli(probability)
