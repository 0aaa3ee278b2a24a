"""Fixture: numpy use *off* the delivery path.

``summarize`` is not parity-sensitive, so the banned ``np.power`` does
not fire VEC001.  This is what scopes the parity taint: offline
analytics may use any ufunc.
"""

import numpy as np


def summarize(values):
    return np.power(values, 2.0)
