"""Fixture: banned ufunc directly inside a parity root (VEC001).

numpy is bound by a local alias, so the finding also proves that calls
through ``np = numpy`` resolve to the banned ``numpy.hypot``.
"""

import numpy


def delivery_probabilities(distances):
    np = numpy
    return np.hypot(distances, distances)
