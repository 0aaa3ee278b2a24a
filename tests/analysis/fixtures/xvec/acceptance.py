"""Fixture: violations on the batch acceptance surfaces (VEC001, VEC004).

``accepts_mask`` runs a banned transcendental over the receiver states;
``_acceptance_mask`` draws a vector of uniforms even though acceptance
must never consume randomness.  Both names are parity roots of the
batch delivery pipeline.
"""

import numpy as np


def accepts_mask(radios, frame, now):
    gains = np.asarray([radio.gain for radio in radios])
    return np.exp(gains) > float(now)


def _acceptance_mask(rng, radios, frame):
    return rng.random(len(radios))
