"""Spatial feature generator: stacked graph-convolution layers whose pooled
outputs are concatenated across depths into one embedding per sample."""

from __future__ import annotations

import numpy as np

from . import rng
from . import tensor as tt
from .tensor import Tensor

GCN_WIDTHS = (128, 64, 32, 16)
GCN_DROPOUT = (0.0, 0.1, 0.1, 0.1)
EMBED_DIM = 2 * sum(GCN_WIDTHS)  # mean and max pooled, all layers concatenated


def normalize_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric propagation matrices D^-1/2 (A + I) D^-1/2 of a (..., R, R) stack.

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
    return a_tilde * (inv_sqrt[..., :, None] * inv_sqrt[..., None, :])


def gcn_propagate(h: Tensor, adj_norm: Tensor, w: Tensor) -> Tensor:
    """Neighborhood aggregation then linear map: (S @ H) @ W.

    Works batched: h (B, N, C_in), adj_norm (B, N, N), w (C_in, C_out).
    """
    return tt.matmul(tt.matmul(adj_norm, h), w)


def gcn_layer(theta, prefix: str, h: Tensor, adj_norm: Tensor, *,
              drop_rate: float, drop_key: tuple | None) -> Tensor:
    """One full block: input dropout (none at rate 0), propagation, then BN
    and ReLU. With a `drop_key` the block trains: the dropout stream is
    tagged with the layer's `prefix` and BN uses batch statistics."""
    train = drop_key is not None
    if train and drop_rate > 0.0:
        mask = rng.dropout_keep_masks(h.shape[1:], drop_rate, *drop_key, prefix)
        h = tt.dropout(h, drop_rate, mask)
    out = gcn_propagate(h, adj_norm, theta[f"{prefix}.w"])
    out = tt.batch_norm(out, theta[f"{prefix}.bn.gamma"], theta[f"{prefix}.bn.beta"],
                        theta[f"{prefix}.bn.running_mean"], theta[f"{prefix}.bn.running_var"],
                        train=train)
    return tt.relu(out)


def jk_pool(h: Tensor) -> Tensor:
    """Mean-pool and max-pool over nodes, concatenated: (B, N, C) -> (B, 2C)."""
    return tt.concat([tt.mean(h, axis=1), tt.amax(h, axis=1)], axis=1)


def jk_concat(pools: list[Tensor]) -> Tensor:
    """Concatenate the per-layer pooled vectors in layer order."""
    if len(pools) == 1:
        return pools[0]
    return tt.concat(pools, axis=1)


def stfg_forward(theta, x: Tensor, adj_norm: Tensor, *,
                 drop_key: tuple | None = None, want_hidden: bool = False):
    """Embed a batch of graphs: x (B, N, R), adj_norm (B, N, N) -> (B, 480).

    `drop_key` is (uids, *key) in training and None in evaluation; each layer
    draws its dropout masks with it. With `want_hidden`, also returns the
    post-activation node features of every layer for attribution.
    """
    h = x
    pools = []
    hidden = []
    for i, rate in enumerate(GCN_DROPOUT, start=1):
        h = gcn_layer(theta, f"stfg.l{i}", h, adj_norm, drop_rate=rate, drop_key=drop_key)
        hidden.append(h)
        pools.append(jk_pool(h))
    z = jk_concat(pools)
    if want_hidden:
        return z, hidden
    return z
