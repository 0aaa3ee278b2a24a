"""StripPlan geometry: ownership, x-distance, halo fan-out."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.phy.geometry import Position
from repro.sim.sharded.partition import StripPlan


def test_strip_of_partitions_the_arena():
    plan = StripPlan(arena_m=100.0, shards=4)
    assert plan.strip_width == 25.0
    assert plan.strip_of(Position(0.0, 50.0)) == 0
    assert plan.strip_of(Position(24.9, 0.0)) == 0
    assert plan.strip_of(Position(25.0, 0.0)) == 1
    assert plan.strip_of(Position(99.9, 0.0)) == 3


def test_edge_strips_extend_to_infinity():
    plan = StripPlan(arena_m=100.0, shards=4)
    assert plan.strip_of(Position(-500.0, 0.0)) == 0
    assert plan.strip_of(Position(1e6, 0.0)) == 3
    lo, _ = plan.strip_bounds(0)
    _, hi = plan.strip_bounds(3)
    assert lo == -math.inf
    assert hi == math.inf


def test_xdist_is_zero_inside_the_strip():
    plan = StripPlan(arena_m=100.0, shards=4)
    assert plan.xdist(Position(30.0, 7.0), 1) == 0.0
    assert plan.xdist(Position(10.0, 0.0), 1) == 15.0
    assert plan.xdist(Position(80.0, 0.0), 1) == 30.0


def test_invalid_plans_rejected():
    with pytest.raises(ValueError):
        StripPlan(arena_m=100.0, shards=0)
    with pytest.raises(ValueError):
        StripPlan(arena_m=0.0, shards=2)


@given(
    x=st.floats(min_value=-200.0, max_value=1200.0, allow_nan=False),
    reach=st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    shards=st.integers(min_value=1, max_value=8),
)
@example(x=200.0, reach=0.0, shards=5)  # on the edge shared by strips 0, 1
@example(x=600.0, reach=0.0, shards=5)  # on the edge shared by strips 2, 3
def test_property_shards_within_matches_xdist(x, reach, shards):
    # shards_within must be exactly the shards whose strip x-distance is
    # within reach — the halo criterion evaluates over this set.
    plan = StripPlan(arena_m=1000.0, shards=shards)
    position = Position(x, 0.0)
    selected = set(plan.shards_within(position, reach))
    expected = {
        shard for shard in range(shards)
        if plan.xdist(position, shard) <= reach
    }
    assert selected >= expected
    # And never wildly bigger: anything selected is within one strip width
    # of qualifying (floor rounding at the edges).
    for shard in selected - expected:
        assert plan.xdist(position, shard) <= reach + plan.strip_width


@given(x=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
       shards=st.integers(min_value=1, max_value=8))
def test_property_every_position_has_exactly_one_owner(x, shards):
    plan = StripPlan(arena_m=500.0, shards=shards)
    owner = plan.strip_of(Position(x, 0.0))
    assert 0 <= owner < shards
    assert plan.xdist(Position(x, 0.0), owner) == 0.0
