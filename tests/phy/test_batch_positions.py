"""Batch position surfaces == their scalar references, bit for bit.

``MobilityModel.positions_at`` / ``positions_for`` / ``array.grid_cells``
/ ``UniformGridIndex.insert_batch`` are the rebucketing path's batch
twins of ``position_at`` / ``math.floor(x / size)`` / per-item
``insert``.  Every test here asserts exact float and bucket-order
equality between the numpy batch and the scalar reference — the
invariant the time-aware grid's epoch rebucketing rests on.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.phy.geometry import Position
from repro.phy.index import UniformGridIndex
from repro.phy.mobility import (
    Linear,
    MobilityModel,
    RandomWaypoint,
    Static,
    WaypointPath,
    positions_for,
)
from repro.util import array
from repro.util.rng import SeededRng


def _mixed_models(rng: SeededRng, count: int):
    models = []
    for i in range(count):
        start = Position(rng.uniform(-50.0, 200.0), rng.uniform(-50.0, 200.0))
        flavor = i % 4
        if flavor == 0:
            models.append(Static(start))
        elif flavor == 1:
            models.append(
                Linear(
                    start,
                    (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
                    start_time=rng.uniform(0.0, 20.0),
                )
            )
        elif flavor == 2:
            models.append(
                RandomWaypoint(
                    rng.child("bp-walk", str(i)),
                    width=200.0,
                    height=200.0,
                    speed=rng.uniform(0.5, 3.0),
                )
            )
        else:
            models.append(
                WaypointPath(
                    [
                        (0.0, start),
                        (25.0, Position(rng.uniform(0.0, 200.0),
                                        rng.uniform(0.0, 200.0))),
                    ]
                )
            )
    return models


def _assert_batch_matches_scalar(models, time):
    xs, ys = positions_for(models, time)
    assert len(xs) == len(ys) == len(models)
    for model, x, y in zip(models, xs, ys):
        exact = model.position_at(time)
        assert (x, y) == (exact.x, exact.y)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    time=st.floats(min_value=-5.0, max_value=60.0,
                   allow_nan=False, allow_infinity=False),
)
def test_positions_for_is_bit_identical_both_backends(seed, time):
    rng = SeededRng(seed)
    models = _mixed_models(rng, 17)
    _assert_batch_matches_scalar(models, time)


def test_linear_batch_clamps_before_start_time():
    # The vectorized maximum(0, t - t0) must clamp exactly like the
    # scalar max(): a model queried before its start_time sits at start.
    models = [Linear(Position(1.0, 2.0), (5.0, -5.0), start_time=10.0),
              Linear(Position(3.0, 4.0), (1.0, 1.0), start_time=0.0)]
    xs, ys = Linear.positions_at(models, 4.0)
    assert (xs[0], ys[0]) == (1.0, 2.0)
    assert (xs[1], ys[1]) == (7.0, 8.0)


def test_scalar_override_without_batch_twin_delegates():
    class Hovering(Linear):
        def position_at(self, time):
            base = Linear.position_at(self, time)
            return Position(base.x, base.y + 1.0)

    models = [Hovering(Position(0.0, 0.0), (2.0, 0.0)) for _ in range(3)]
    xs, ys = Hovering.positions_at(models, 3.0)
    # The inherited batch method must route through the override, never
    # apply Linear's packed formula to a subclass that changed the rules.
    assert xs == [6.0, 6.0, 6.0]
    assert ys == [1.0, 1.0, 1.0]


def test_base_default_positions_at_is_the_elementwise_loop():
    class Orbit(MobilityModel):
        def __init__(self, phase):
            self.phase = phase

        def position_at(self, time):
            return Position(math.cos(time + self.phase),
                            math.sin(time + self.phase))

    models = [Orbit(0.0), Orbit(1.5)]
    xs, ys = MobilityModel.positions_at(models, 2.0)
    for model, x, y in zip(models, xs, ys):
        exact = model.position_at(2.0)
        assert (x, y) == (exact.x, exact.y)


@settings(max_examples=25, deadline=None)
@given(
    coords=st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=40,
    ),
    cell_size=st.floats(min_value=0.1, max_value=500.0,
                        allow_nan=False, allow_infinity=False),
)
def test_grid_cells_matches_math_floor_both_backends(coords, cell_size):
    xs = coords
    ys = [-(v) for v in coords]
    expected_x = [math.floor(v / cell_size) for v in xs]
    expected_y = [math.floor(v / cell_size) for v in ys]
    assert array.grid_cells(xs, ys, cell_size) == (expected_x, expected_y)


def test_grid_cells_rejects_mismatched_lengths():
    try:
        array.grid_cells([1.0, 2.0], [1.0], 10.0)
    except ValueError:
        pass
    else:
        raise AssertionError("length mismatch must raise ValueError")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_insert_batch_equals_sequential_inserts(seed):
    rng = SeededRng(seed)
    items = [f"b{i}" for i in range(30)]
    xs = [rng.uniform(-80.0, 80.0) for _ in items]
    ys = [rng.uniform(-80.0, 80.0) for _ in items]

    loop = UniformGridIndex(cell_size=10.0)
    for item, x, y in zip(items, xs, ys):
        loop.insert(item, Position(x, y))
    batched = UniformGridIndex(cell_size=10.0)
    batched.insert_batch(items, xs, ys)

    # Same buckets, same within-bucket order — the order _rebucket's
    # movers iterate in, hence the order RNG draws are spent in.
    for origin in (Position(0.0, 0.0), Position(-40.0, 55.0)):
        for radius in (15.0, 60.0, 200.0):
            assert (batched.query(origin, radius, 0.0)
                    == loop.query(origin, radius, 0.0))
    for item, x, y in zip(items, xs, ys):
        assert batched.position_of(item) == Position(x, y)
