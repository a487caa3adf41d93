"""Shared test helpers: independent finite-difference oracles, IEEE edge
inputs for byte-equality tests, and the per-matrix propagation formula.

The suite runs with one BLAS thread per process unless the environment sets
another count. OpenBLAS reads the count once, when numpy loads, so it is set
here, before the first `import numpy`. With one thread, training, `eval`
and `explain` fork a process per core, as a user's one-thread run does; an
exported count of 2 on 2 cores keeps them in one process."""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
assert "numpy" not in sys.modules, "numpy loaded before the BLAS thread count was set"

import numpy as np  # noqa: E402


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


def normalize_adjacency_oracle(adj):
    """D^-1/2 (A + I) D^-1/2 of one matrix, as it was computed per window
    before the loader normalized whole stacks."""
    adj = np.asarray(adj, dtype=np.float64)
    a_tilde = adj + np.eye(adj.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * np.outer(inv_sqrt, inv_sqrt)
