"""Fixture: order-sensitive reduction feeding a parity root (VEC005).

numpy's pairwise summation associates differently from the sequential
scalar reference.
"""

import numpy as np


def delivery_probabilities(gains):
    return np.sum(gains) / len(gains)
