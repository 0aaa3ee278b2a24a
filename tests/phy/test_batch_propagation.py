"""Property suite: batch propagation methods == scalar, bit for bit.

The batch contract (:mod:`repro.phy.propagation` module docstring) defines
``delivery_probabilities`` / ``in_range_mask`` as the elementwise
application of their scalar twins — exact equality, not approximate.
These properties hammer that definition for every model, with the
distance strategies biased
toward the float edges where vectorized rewrites typically diverge
(cutoff boundaries, narrow SoftDisk ramps, LogDistance's 1% cutoff where
``in_range`` deliberately disagrees with ``probability > 0``).
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.phy.propagation import (
    LogDistance,
    PropagationModel,
    SoftDisk,
    UnitDisk,
)
finite = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)


def _around(r: float):
    """Distances clustered around a cutoff at ``r``: the exact boundary,
    its neighboring ulps, and ordinary points on both sides."""
    return st.sampled_from(
        [
            0.0,
            r,
            math.nextafter(r, 0.0),
            math.nextafter(r, math.inf),
            r * 0.5,
            r * 1.5,
            r * 2.0,
        ]
    )


def _assert_batch_matches_scalar(model: PropagationModel, distances):
    """Batch == scalar elementwise."""
    scalar_ps = [model.delivery_probability(d) for d in distances]
    scalar_mask = [model.in_range(d) for d in distances]
    probabilities = model.delivery_probabilities(distances)
    mask = model.in_range_mask(distances)
    assert [float(p) for p in probabilities] == scalar_ps
    assert [bool(hit) for hit in mask] == scalar_mask


@settings(max_examples=100, deadline=None)
@given(
    radius=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
    data=st.data(),
)
def test_unit_disk_batch_matches_scalar(radius, data):
    distances = data.draw(
        st.lists(st.one_of(finite, _around(radius)), max_size=30)
    )
    _assert_batch_matches_scalar(UnitDisk(radius), distances)


@settings(max_examples=100, deadline=None)
@given(
    inner=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    width=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    data=st.data(),
)
def test_soft_disk_batch_matches_scalar(inner, width, data):
    # width drives the grey-zone ramp; width == 0 is the degenerate
    # inner == outer disk whose ramp branch must never be reached.
    model = SoftDisk(inner, inner + width)
    distances = data.draw(
        st.lists(
            st.one_of(finite, _around(model.inner), _around(model.outer)),
            max_size=30,
        )
    )
    _assert_batch_matches_scalar(model, distances)


@settings(max_examples=60, deadline=None)
@given(
    reference=st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    exponent=st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
    data=st.data(),
)
def test_log_distance_batch_matches_scalar(reference, exponent, data):
    model = LogDistance(reference, exponent)
    distances = data.draw(
        st.lists(st.one_of(finite, _around(reference)), max_size=30)
    )
    _assert_batch_matches_scalar(model, distances)


def test_log_distance_survives_the_float64_edges():
    """A subnormal distance can underflow distance/reference to exactly
    0.0 (log10 domain error), and a huge one can overflow 10**x — both
    must resolve to the logistic limits, not raise."""
    model = LogDistance(1e3, 6.0)
    assert model.delivery_probability(5e-324) == 1.0
    assert model.delivery_probabilities([5e-324]) == [1.0]
    assert model.in_range(5e-324) is True
    huge = 1.7976931348623157e308
    assert model.delivery_probability(huge) == 0.0
    assert model.in_range(huge) is False


def test_log_distance_mask_follows_the_one_percent_cutoff():
    """LogDistance.in_range cuts off at 1% delivery, so its mask must
    disagree with ``probability > 0`` in the tail — the case that proves
    in_range_mask delegates to the scalar predicate, not to the
    probabilities."""
    model = LogDistance(reference_range=10.0, exponent=3.0)
    # Far enough out that 0 < p < 0.01: probability positive, out of range.
    tail = 10.0 * (100.0 ** (1.0 / 3.0)) * 1.5
    p = model.delivery_probability(tail)
    assert 0.0 < p < 0.01
    assert model.in_range(tail) is False
    [masked] = model.in_range_mask([tail])
    assert bool(masked) is False
    [batched] = model.delivery_probabilities([tail])
    assert batched == p


def test_soft_disk_mask_survives_the_ramp_rounding_to_zero():
    """One ulp below ``outer`` the ramp can round to exactly 0.0: scalar
    in_range is then False even though the distance is < outer.  The mask
    must follow the probabilities, not the geometric comparison."""
    model = SoftDisk(inner=1e-3, outer=1e-3 + 1000.0)
    boundary = math.nextafter(model.outer, 0.0)
    if model.delivery_probability(boundary) == 0.0:
        assert model.in_range(boundary) is False
        [masked] = model.in_range_mask([boundary])
        assert bool(masked) is False


def test_default_batch_methods_serve_scalar_only_models():
    """A third-party model overriding only the scalar surface inherits
    correct batch behaviour from the PropagationModel defaults."""

    class Steps(PropagationModel):
        def delivery_probability(self, distance: float) -> float:
            return 1.0 if distance < 5.0 else (0.5 if distance < 10.0 else 0.0)

    model = Steps()
    distances = [0.0, 4.999, 5.0, 7.5, 10.0, 20.0]
    assert model.delivery_probabilities(distances) == [
        1.0, 1.0, 0.5, 0.5, 0.0, 0.0,
    ]
    assert model.in_range_mask(distances) == [
        True, True, True, True, False, False,
    ]
