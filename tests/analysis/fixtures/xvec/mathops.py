"""Fixture: banned ufunc two calls from the delivery path (VEC001)."""

import numpy as np


def raw_loss(distance):
    return np.power(10.0, distance / 10.0)
