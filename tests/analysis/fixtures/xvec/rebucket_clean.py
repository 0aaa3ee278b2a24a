"""Fixture: the admissible batch acceptance/rebucket idiom — silent.

Elementwise state reads for the acceptance mask, correctly-rounded
arithmetic (subtract, maximum, multiply, add) for the epoch positions,
and ``array.grid_cells`` for bucket coordinates are exactly how the
production pipeline is written; none of VEC001, VEC004 or VEC005 may
fire even though every function here is a parity root.
"""

import numpy as np

from repro.util import array


def accepts_mask(radios, frame, now):
    return [radio.enabled and radio.window_until > now for radio in radios]


def positions_at(models, time):
    starts = np.asarray([m.start_time for m in models])
    elapsed = np.maximum(0.0, time - starts)
    xs = np.asarray([m.x for m in models]) + 2.0 * elapsed
    ys = np.asarray([m.y for m in models]) + 0.5 * elapsed
    return xs.tolist(), ys.tolist()


def insert_batch(index, items, xs, ys):
    cell_xs, cell_ys = array.grid_cells(xs, ys, 4.0)
    for item, cx, cy in zip(items, cell_xs, cell_ys):
        index.place(item, (cx, cy))
