"""The uniform grid's struct-of-arrays buckets under seeded churn.

Each bucket keeps its items' exact coordinates in parallel arrays; after
any insert, remove, same-cell or cross-cell move, ``position_of`` must
report exactly the last stored floats, and ``query`` must still return
every item within the radius (plus every roaming item).  Churn is driven
by a seeded RNG so failures replay.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.phy.geometry import Position
from repro.phy.index import UniformGridIndex
from repro.util.rng import SeededRng


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), steps=st.integers(10, 60))
def test_uniform_grid_arrays_track_churn(seed, steps):
    rng = SeededRng(seed)
    index = UniformGridIndex(cell_size=10.0)
    positions = {}
    counter = 0
    for _ in range(steps):
        move = rng.uniform(0.0, 1.0)
        if move < 0.45 or not positions:
            # Insert: mostly bucketed, sometimes roaming (position None).
            item = f"i{counter}"
            counter += 1
            if rng.uniform(0.0, 1.0) < 0.2:
                index.insert(item, None)
                positions[item] = None
            else:
                p = Position(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
                index.insert(item, p)
                positions[item] = p
        elif move < 0.65:
            item = rng.choice(sorted(positions))
            index.remove(item)
            del positions[item]
        else:
            item = rng.choice(sorted(positions))
            old = positions[item]
            if old is not None and rng.uniform(0.0, 1.0) < 0.5:
                # Same-cell nudge: the stored coordinates must still track.
                p = Position(
                    (old.x // 10.0) * 10.0 + rng.uniform(0.1, 9.9),
                    (old.y // 10.0) * 10.0 + rng.uniform(0.1, 9.9),
                )
            else:
                p = Position(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
            index.update(item, p)
            positions[item] = p
        origin = Position(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        radius = rng.uniform(5.0, 40.0)
        candidates = set(index.query(origin, radius))
        for item, stored in positions.items():
            assert index.position_of(item) == stored
            if stored is None or origin.distance_to(stored) <= radius:
                assert item in candidates


def test_uniform_grid_position_of_reports_stored_coordinates():
    index = UniformGridIndex(cell_size=10.0)
    index.insert("s", Position(3.0, 4.0))
    index.insert("r", None)
    assert index.position_of("s") == Position(3.0, 4.0)
    assert index.position_of("r") is None
    index.update("s", Position(3.5, 4.5))  # same cell: stored floats move
    assert index.position_of("s") == Position(3.5, 4.5)
