"""Gradient-free attribution over the graph-convolution stack, plus the
confidence-based faithfulness metrics and the significant-edge filter.

Per channel of a chosen layer's activation map, the node column is min-max
normalized into a mask, the input's node-feature rows are scaled by that
mask, and the class-probability change against an all-zero mask scores the
channel. The saliency map is the softmax-weighted sum of the masks, so it
needs no gradients and is unaffected by noisy parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import rng
from .data import FCGraph
from .network import eval_class_probs, eval_hidden
from .optim import ParamStore
from .stfg import GCN_WIDTHS, normalize_adjacency

logger = logging.getLogger(__name__)

N_LAYERS = len(GCN_WIDTHS)


@dataclass
class SaliencyMap:
    scores: np.ndarray  # per-ROI importance, length R
    layer: int
    target_class: int
    subject_id: str
    window: int


def _norm_adj(graph: FCGraph) -> np.ndarray:
    if graph._norm is None:
        graph._norm = normalize_adjacency(graph.adjacency)
    return graph._norm


def _channel_masks(activation: np.ndarray) -> np.ndarray:
    """Min-max normalize each activation column into [0, 1]; constant
    columns become all-zero masks. Returns (channels, nodes)."""
    act = activation.T
    lo = act.min(axis=1, keepdims=True)
    hi = act.max(axis=1, keepdims=True)
    span = hi - lo
    masks = np.where(span > 0, (act - lo) / np.where(span > 0, span, 1.0), 0.0)
    return masks


def score_cam(theta: ParamStore, graph: FCGraph, layer: int, target_class: int) -> SaliencyMap:
    """Channel-mask attribution for one sample; `layer` indexes the
    convolution stack from 1 and the masks scale the node-feature rows."""
    if not 1 <= layer <= N_LAYERS:
        raise ValueError(f"layer must be in 1..{N_LAYERS}, got {layer}")
    if target_class not in (0, 1):
        raise ValueError(f"target class must be 0 or 1, got {target_class}")

    adj = _norm_adj(graph)
    x = graph.features
    activation = eval_hidden(theta, x[None], adj[None])[layer - 1][0]  # (N, C)
    masks = _channel_masks(activation)  # (C, N)
    masked_x = x[None] * masks[:, :, None]
    masked_adj = np.broadcast_to(adj, (masks.shape[0],) + adj.shape).copy()
    scores = eval_class_probs(theta, masked_x, masked_adj)[:, target_class]
    baseline = eval_class_probs(theta, np.zeros_like(x)[None], adj[None])[0, target_class]
    cic = scores - baseline
    shifted = np.exp(cic - cic.max())
    weights = shifted / shifted.sum()
    saliency = weights @ masks
    return SaliencyMap(scores=saliency, layer=layer, target_class=target_class,
                       subject_id=graph.subject_id, window=graph.window)


def average_drop(clean: np.ndarray, masked: np.ndarray) -> float:
    """Mean relative confidence loss, in percent, when only the explanation
    survives. Samples with a nonpositive clean score are excluded."""
    clean = np.asarray(clean, dtype=np.float64)
    masked = np.asarray(masked, dtype=np.float64)
    if clean.shape != masked.shape:
        raise ValueError("score vectors must have matching length")
    keep = clean > 0
    if not keep.all():
        logger.warning("average_drop: excluding %d samples with nonpositive scores",
                       int((~keep).sum()))
    if not keep.any():
        raise ValueError("average_drop: no samples with positive clean scores")
    drops = np.maximum(0.0, clean[keep] - masked[keep]) / clean[keep]
    return float(drops.mean() * 100.0)


def average_increase(clean: np.ndarray, masked: np.ndarray) -> float:
    """Share of samples, in percent, whose confidence strictly rises."""
    clean = np.asarray(clean, dtype=np.float64)
    masked = np.asarray(masked, dtype=np.float64)
    if clean.shape != masked.shape:
        raise ValueError("score vectors must have matching length")
    return float((masked > clean).mean() * 100.0)


def roi_ranking(maps: list[SaliencyMap]) -> tuple[np.ndarray, np.ndarray]:
    """ROIs ordered by descending mean absolute score across maps; ties keep
    the lower index first. Returns (order, mean scores)."""
    if not maps:
        raise ValueError("roi_ranking: no maps")
    r = maps[0].scores.shape[0]
    for m in maps:
        if m.scores.shape[0] != r:
            raise ValueError("roi_ranking: maps disagree on ROI count")
    mean_scores = np.mean([m.scores for m in maps], axis=0)
    order = np.argsort(-np.abs(mean_scores), kind="stable")
    return order, mean_scores


def top_rois(maps: list[SaliencyMap], k: int = 10) -> np.ndarray:
    order, _ = roi_ranking(maps)
    return order[:k]


@dataclass
class Edge:
    roi_a: int
    roi_b: int
    correlation: float
    p_value: float


def significant_edges(scores: np.ndarray, fc: np.ndarray, groups: np.ndarray,
                      *, n_rois_kept: int = 10, p_max: float = 0.05,
                      n_edges: int = 10) -> list[Edge]:
    """Group-discriminative connections among the highest-scoring ROIs.

    `scores` is (subjects, R) saliency, `fc` is (subjects, R, R) per-subject
    connectivity, `groups` binary labels. Each candidate edge's connectivity
    is correlated with the group label; edges with two-tailed p above the
    threshold (strictly) are dropped and the strongest `n_edges` by absolute
    correlation are kept. Constant edges are excluded and logged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    fc = np.asarray(fc, dtype=np.float64)
    groups = np.asarray(groups)
    n = scores.shape[0]
    if fc.shape[0] != n or groups.shape[0] != n:
        raise ValueError("scores, fc, and groups must agree on subject count")
    counts = np.bincount(groups.astype(int), minlength=2)
    if counts.min() < 3:
        raise ValueError(f"need at least 3 subjects per group, got {counts.tolist()}")

    mean_abs = np.abs(scores).mean(axis=0)
    kept = np.argsort(-mean_abs, kind="stable")[:n_rois_kept]
    y = groups.astype(np.float64)
    y_centered = y - y.mean()
    y_ss = float((y_centered ** 2).sum())
    edges = []
    for ai in range(len(kept)):
        for bi in range(ai + 1, len(kept)):
            a, b = int(kept[ai]), int(kept[bi])
            x = fc[:, a, b]
            x_centered = x - x.mean()
            x_ss = float((x_centered ** 2).sum())
            if x_ss == 0.0 or y_ss == 0.0:
                logger.warning("significant_edges: edge (%d, %d) constant, excluded", a, b)
                continue
            r = float((x_centered * y_centered).sum() / np.sqrt(x_ss * y_ss))
            r = min(1.0, max(-1.0, r))
            if abs(r) == 1.0:
                p = 0.0
            else:
                t = r * np.sqrt((n - 2) / (1.0 - r * r))
                p = float(2.0 * stats.t.sf(abs(t), df=n - 2))
            if p <= p_max:
                edges.append(Edge(roi_a=a, roi_b=b, correlation=r, p_value=p))
    edges.sort(key=lambda e: (-abs(e.correlation), e.roi_a, e.roi_b))
    return edges[:n_edges]


# ---------------------------------------------------------------------------
# faithfulness against the model


def saliency_masked_scores(theta: ParamStore, graphs: list[FCGraph],
                           masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(clean, masked) predicted-class probabilities per graph.

    `masks[i]` is a per-ROI weight vector for graph i; it is min-max
    normalized and applied to the node-feature rows.
    """
    clean = np.empty(len(graphs))
    masked = np.empty(len(graphs))
    for i, g in enumerate(graphs):
        adj = _norm_adj(g)[None]
        probs = eval_class_probs(theta, g.features[None], adj)[0]
        cls = int(np.argmax(probs))
        clean[i] = probs[cls]
        m = masks[i].astype(np.float64)
        span = m.max() - m.min()
        m = (m - m.min()) / span if span > 0 else np.zeros_like(m)
        probs_masked = eval_class_probs(theta, (g.features * m[:, None])[None], adj)[0]
        masked[i] = probs_masked[cls]
    return clean, masked


def permuted_masks(masks: np.ndarray, seed, *key) -> np.ndarray:
    """Equal-sparsity random controls: each mask's values shuffled across
    ROIs by a seeded stream."""
    out = np.empty_like(masks)
    for i in range(masks.shape[0]):
        perm = rng.stream(seed, "mask_perm", *key, i).permutation(masks.shape[1])
        out[i] = masks[i][perm]
    return out
