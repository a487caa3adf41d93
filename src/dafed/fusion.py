"""Attention fusion of the two feature components, the label classifier, the
domain head behind gradient reversal, and total-loss assembly."""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .stfg import keyed_dropout, linear, norm
from .tensor import Tensor

HID_DIM = 128
N_HEADS = 8
HEAD_DIM = HID_DIM // N_HEADS
PROB_FLOOR = 1e-12  # clamp applied to every probability before a log

ROLE_SOURCE = "source"
ROLE_TARGET_UNLABELED = "target_unlabeled"
ROLE_TARGET_LABELED = "target_labeled"
ROLES = (ROLE_SOURCE, ROLE_TARGET_UNLABELED, ROLE_TARGET_LABELED)
LABELED_ROLES = (ROLE_SOURCE, ROLE_TARGET_LABELED)  # the roles that train the classifier


def _split_heads(x: Tensor, batch: int, seq: int) -> Tensor:
    return tt.transpose(tt.reshape(x, (batch, seq, N_HEADS, HEAD_DIM)), (0, 2, 1, 3))


def attention(theta, tokens: Tensor) -> Tensor:
    """Multi-head scaled dot-product self-attention over a token sequence.

    tokens (B, S, 128) -> (B, S, 128). No mask, no attention dropout.
    """
    b, s, _ = tokens.shape
    q = _split_heads(linear(theta, "attn.q", tokens), b, s)
    k = _split_heads(linear(theta, "attn.k", tokens), b, s)
    v = _split_heads(linear(theta, "attn.v", tokens), b, s)
    scores = tt.scale(tt.matmul(q, tt.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(HEAD_DIM))
    weights = tt.softmax(scores, axis=-1)
    mixed = tt.matmul(weights, v)
    merged = tt.reshape(tt.transpose(mixed, (0, 2, 1, 3)), (b, s, HID_DIM))
    return linear(theta, "attn.o", merged)


def fuse(theta, f_di: Tensor, f_ds: Tensor) -> Tensor:
    """Stack the two components as a 2-token sequence, attend, and flatten
    into the (B, 256) feature the classifier consumes."""
    b = f_di.shape[0]
    tokens = tt.concat([tt.reshape(f_di, (b, 1, HID_DIM)),
                        tt.reshape(f_ds, (b, 1, HID_DIM))], axis=1)
    return tt.reshape(attention(theta, tokens), (b, 2 * HID_DIM))


def _head(theta, x: Tensor, prefix: str, drop_key) -> Tensor:
    h = tt.relu(norm(theta, prefix, linear(theta, f"{prefix}.fc1", x), train=drop_key is not None))
    h = keyed_dropout(h, 0.5, drop_key, prefix)
    return tt.softmax(linear(theta, f"{prefix}.fc2", h), axis=1)


def classifier_probs(theta, f_fused: Tensor, *, drop_key: tuple | None = None) -> Tensor:
    """Two-class probabilities from the fused feature, (B, 256) -> (B, 2).
    `drop_key` is (uids, *key) in training and None in evaluation."""
    return _head(theta, f_fused, "clf", drop_key)


def domain_probs(theta, f_di: Tensor, *, drop_key: tuple | None = None,
                 reverse_scale: float | None = None) -> Tensor:
    """Domain predictions from the invariant component, (B, 128) -> (B, 2).

    With `reverse_scale` set, a gradient-reversal node sits between the
    component and the head: the head learns to tell domains apart while
    everything upstream is pushed the other way.
    """
    x = tt.grad_reverse(f_di, reverse_scale) if reverse_scale is not None else f_di
    return _head(theta, x, "dom", drop_key)


def nll_from_probs(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under 2-class
    probabilities, with the probability clamped before the log."""
    n = probs.shape[0]
    onehot = np.zeros(probs.shape)
    onehot[np.arange(n), np.asarray(targets, dtype=int)] = 1.0
    picked = tt.tsum(tt.mul(probs, tt.Tensor(onehot)), axis=1)
    return tt.scale(tt.mean(tt.log(tt.clip(picked, PROB_FLOOR, 1.0 - PROB_FLOOR))), -1.0)


def classify_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross-entropy of class predictions against labels in {0, 1}."""
    labels = np.asarray(labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return nll_from_probs(probs, labels)


def domain_loss(probs: Tensor, domains: np.ndarray) -> Tensor:
    """Binary cross-entropy of domain predictions; 0 = source, 1 = target."""
    domains = np.asarray(domains)
    if domains.size and not np.isin(domains, (0, 1)).all():
        raise ValueError("domain indicators must be 0 or 1")
    return nll_from_probs(probs, domains)


def adversarial_ramp(progress: float, gamma: float = 10.0) -> float:
    """Smooth 0-to-1 schedule for the domain-loss weight: 2/(1+e^(-g*p)) - 1,
    where `progress` is the round index over the run's rounds, in [0, 1)."""
    return 2.0 / (1.0 + np.exp(-gamma * progress)) - 1.0


def total_loss(parts: dict, *, lambda_mi: float, lambda_cl: float,
               ramp: float) -> Tensor:
    """Weighted objective for one site batch; the classification term, when
    supplied, enters unweighted."""
    zero = tt.Tensor(0.0)
    total = tt.add(tt.scale(parts.get("mi", zero), lambda_mi),
                   tt.add(tt.scale(parts.get("cl", zero), lambda_cl),
                          tt.scale(parts.get("dom", zero), ramp)))
    if "cls" in parts:
        total = tt.add(parts["cls"], total)
    return total
