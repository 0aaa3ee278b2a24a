"""Fixture: banned ufunc one call below the rebucketing root (VEC001).

``_rebucket`` itself only classifies and bulk-inserts; the violation
hides in the ``_epoch_coords`` helper it calls into — not itself a root,
so the finding proves the parity closure reaches *through* the new
rebucket-path roots, not just into them.
"""

import numpy as np


def _rebucket(index, now):
    xs, ys = _epoch_coords(index.models, now)
    index.insert_batch(index.items, xs, ys)


def _epoch_coords(models, time):
    xs = np.power(np.asarray([m.x for m in models]), 2.0)
    ys = [m.y for m in models]
    return xs, ys
