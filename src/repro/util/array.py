"""Bit-exact numpy kernels shared by the batch code paths.

numpy is a declared dependency.  Every batch path whose floats can reach
a delivery log (``PropagationModel.delivery_probabilities``, the
``Medium`` broadcast pipeline, ``MobilityModel.positions_at``) must stay
**bit-identical** to its scalar reference — the per-element ``math``
computation the test suite keeps as an oracle.

Bit-parity ground rules (verified empirically on numpy 2.x, whose ufuncs
use SIMD kernels):

* Plain IEEE-754 arithmetic (``+ - * /``) and ``np.sqrt`` are correctly
  rounded and **identical** to the ``math`` module scalar-by-scalar.
* ``np.hypot``, ``np.log10``, ``np.power`` are **not** bit-identical to
  ``math.hypot`` / ``math.log10`` / ``math.pow`` and are banned from any
  path whose floats can reach a delivery log (lint rule VEC001).  This is
  why :meth:`repro.phy.geometry.Position.distance_to` is written as
  ``sqrt(dx*dx + dy*dy)`` (reproducible by a vector kernel) rather than
  ``hypot`` (not), and why :class:`repro.phy.propagation.LogDistance`
  keeps a scalar loop in its batch methods.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def backend_name() -> str:
    """``"numpy"``: the array backend recorded in run and bench metadata."""
    return "numpy"


def numpy_version() -> str:
    """The numpy version string.

    Recorded alongside :func:`backend_name` in run/bench metadata so a
    parity regression can be traced to the exact kernel generation that
    produced the floats.
    """
    return str(np.__version__)


def euclidean_distances(
    origin_x: float, origin_y: float, xs: Sequence[float], ys: Sequence[float]
):
    """Distances from ``(origin_x, origin_y)`` to each ``(xs[i], ys[i])``.

    An ndarray bit-identical to per-point ``Position.distance_to``:
    ``sqrt(dx*dx + dy*dy)`` with correctly-rounded primitives only.
    Mismatched coordinate lengths raise ``ValueError`` rather than
    broadcasting.
    """
    if len(xs) != len(ys):
        raise ValueError(
            "euclidean_distances: xs and ys must have equal length "
            f"(got {len(xs)} and {len(ys)})"
        )
    dx = np.asarray(xs, dtype=np.float64) - origin_x
    dy = np.asarray(ys, dtype=np.float64) - origin_y
    return np.sqrt(dx * dx + dy * dy)


def grid_cells(
    xs: Sequence[float], ys: Sequence[float], cell_size: float
):
    """Grid-cell coordinates ``floor(v / cell_size)`` for each point.

    Bit-identical to per-point ``math.floor(x / size)``: the division is
    correctly rounded, ``np.floor`` is exact, and the int64 cast is
    lossless for any coordinate a simulation arena can hold.  Returns a
    pair of parallel integer lists — the bulk rebucketing path keys cells
    by plain ``(int, int)`` tuples.  Mismatched lengths raise
    ``ValueError``, same as :func:`euclidean_distances`.
    """
    if len(xs) != len(ys):
        raise ValueError(
            "grid_cells: xs and ys must have equal length "
            f"(got {len(xs)} and {len(ys)})"
        )
    cxs = (
        np.floor(np.asarray(xs, dtype=np.float64) / cell_size)
        .astype(np.int64)
        .tolist()
    )
    cys = (
        np.floor(np.asarray(ys, dtype=np.float64) / cell_size)
        .astype(np.int64)
        .tolist()
    )
    return cxs, cys
