"""Fixture: every admissible idiom at once — must stay completely silent.

Correctly-rounded primitives (+ - * /, np.sqrt), a stable argsort, and
ordered scalar draws are exactly how the production pipeline is written;
none of VEC001, VEC004 or VEC005 may fire.
"""

import numpy as np

from repro.util import array


def delivery_probabilities(origin_x, origin_y, xs, ys):
    distances = array.euclidean_distances(origin_x, origin_y, xs, ys)
    return np.sqrt(distances * distances) * 0.5


def broadcast(rng, candidates):
    order = np.argsort([c.node_id for c in candidates], kind="stable")
    return [rng.random() for _ in order]
