"""Shared test helpers: independent finite-difference oracles and IEEE edge
inputs for byte-equality tests."""

from __future__ import annotations

import numpy as np


def numeric_grads(scalar_fn, arrays, h=1e-5):
    """Central-difference gradients of `scalar_fn()` w.r.t. each array.

    The arrays are mutated in place coordinate by coordinate and restored;
    `scalar_fn` must recompute the value from their current contents.
    """
    out = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = scalar_fn()
            flat[i] = orig - h
            fm = scalar_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def max_rel_error(analytic, numeric):
    """max over coordinates of |a - n| / max(1, |n|)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


TINY = np.nextafter(0.0, 1.0)  # smallest subnormal
EDGE_VALUES = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, TINY, -TINY,
                        2.2e-308, -2.2e-308, 1.0, -1.0, 3.5, -7.25])


def edge_array(shape, seed):
    """Signed zeros, signed NaNs, infinities, subnormals and plain values."""
    return np.random.default_rng(seed).choice(EDGE_VALUES, size=shape)
