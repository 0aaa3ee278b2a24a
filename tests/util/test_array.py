"""The shared numpy kernels: bit-identical to the scalar math formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import array

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

# Adversarial floats for the parity suite: the full finite float64 range
# including subnormals and signed zeros, where SIMD kernels historically
# diverge from scalar libm (flush-to-zero, sign-of-zero, overflow order).
adversarial = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64,
              allow_subnormal=True),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 1.0, -1.0,
    ]),
)


def test_euclidean_distances_python_matches_math_sqrt():
    xs = [0.0, 3.0, -7.5, 123.456]
    ys = [0.0, 4.0, 2.25, -9.0]
    got = array.euclidean_distances(1.0, -2.0, xs, ys)
    assert isinstance(got, np.ndarray)
    for d, x, y in zip(got.tolist(), xs, ys):
        dx = x - 1.0
        dy = y + 2.0
        assert d == math.sqrt(dx * dx + dy * dy)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(coords, coords),
    st.lists(st.tuples(coords, coords), max_size=20),
)
def test_euclidean_distances_backends_are_bit_identical(origin, points):
    """The ground rule the whole batch pipeline rests on: numpy's
    sqrt(dx*dx + dy*dy) is bit-identical to the math-module scalar form."""
    ox, oy = origin
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    vectorized = array.euclidean_distances(ox, oy, xs, ys)
    sqrt = math.sqrt
    scalar = [
        sqrt((x - ox) * (x - ox) + (y - oy) * (y - oy)) for x, y in zip(xs, ys)
    ]
    assert [float(d) for d in vectorized] == scalar


def test_numpy_version_tracks_the_backend():
    assert array.backend_name() == "numpy"
    assert array.numpy_version() == str(np.__version__)


def test_euclidean_distances_rejects_mismatched_lengths():
    # No broadcasting, and no silent truncation to the shorter sequence.
    with pytest.raises(ValueError, match="equal length"):
        array.euclidean_distances(0.0, 0.0, [1.0, 2.0], [3.0])
    with pytest.raises(ValueError, match="equal length"):
        array.euclidean_distances(0.0, 0.0, [1.0], [2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(adversarial, adversarial),
    st.lists(st.tuples(adversarial, adversarial), max_size=16),
)
def test_euclidean_distances_adversarial_bit_parity(origin, points):
    """Bit-for-bit parity over the full finite float64 range — subnormals,
    signed zeros, and magnitudes that overflow ``dx*dx`` to infinity must
    round (and overflow) identically to the scalar form."""
    ox, oy = origin
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    vectorized = array.euclidean_distances(ox, oy, xs, ys)
    sqrt = math.sqrt
    scalar = [
        sqrt((x - ox) * (x - ox) + (y - oy) * (y - oy)) for x, y in zip(xs, ys)
    ]
    got = [float(d) for d in vectorized]
    assert len(got) == len(scalar)
    for g, s in zip(got, scalar):
        # Compare raw bit patterns: 0.0 == -0.0 under ==, but they are
        # different floats and a parity suite must tell them apart.
        assert math.copysign(1.0, g) == math.copysign(1.0, s)
        assert g == s
