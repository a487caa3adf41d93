"""Gradient-free attribution over the graph-convolution stack, plus the
confidence-based faithfulness metrics and the significant-edge filter; and
the two read-only workflows over a trained model, `explain_cohort` and
`evaluate_cohort`.

Per channel of a layer's activation map, the node column is min-max
normalized into a mask, the input's node-feature rows are scaled by that
mask, and the class-probability change against an all-zero mask scores the
channel. The saliency map is the softmax-weighted sum of the masks, so it
needs no gradients and is unaffected by noisy parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import ConfigError
from .data import FCGraph, SiteDataset
from .fedsim import dataset_predictions
from .network import eval_class_probs, eval_hidden
from .optim import ParamStore
from .stfg import GCN_WIDTHS
from .workers import process_count, run_shards

logger = logging.getLogger(__name__)

N_LAYERS = len(GCN_WIDTHS)
MIN_GROUP_SUBJECTS = 3  # per class, for the edge correlations' test


@dataclass
class SaliencyMap:
    scores: np.ndarray  # per-ROI importance, length R
    layer: int
    target_class: int
    subject_id: str
    window: int


def _minmax_rows(a: np.ndarray) -> np.ndarray:
    """Min-max normalize each row into [0, 1]; constant rows become all-zero."""
    lo = a.min(axis=1, keepdims=True)
    span = a.max(axis=1, keepdims=True) - lo
    return np.where(span > 0, (a - lo) / np.where(span > 0, span, 1.0), 0.0)


def score_cam(theta: ParamStore, graph: FCGraph, target_class: int) -> list[SaliencyMap]:
    """Channel-mask attribution of one sample at every layer of the
    convolution stack, in layer order; the masks scale the node-feature rows.

    The masked inputs of all layers' channels are scored together, from one
    pass for the activations and one for the all-zero baseline."""
    if target_class not in (0, 1):
        raise ValueError(f"target class must be 0 or 1, got {target_class}")

    masks = [_minmax_rows(h.T) for h in eval_hidden(theta, graph)]
    stacked = np.concatenate(masks)  # (channels of every layer, N)
    x, adj = graph.features[None], graph.propagation[None]
    baseline = eval_class_probs(theta, x, adj, np.zeros(x.shape[:2]))[0, target_class]
    # a constant channel's mask is all zero, so its input is the baseline's
    live = np.flatnonzero(stacked.any(axis=1))
    scores = np.full(stacked.shape[0], baseline)
    repeat = (live.size,) + x.shape[1:]
    scores[live] = eval_class_probs(theta, np.broadcast_to(x, repeat), np.broadcast_to(adj, repeat),
                                    stacked[live])[:, target_class]
    maps = []
    start = 0
    for layer, layer_masks in enumerate(masks, start=1):
        cic = scores[start:start + layer_masks.shape[0]] - baseline
        start += layer_masks.shape[0]
        shifted = np.exp(cic - cic.max())
        weights = shifted / shifted.sum()
        maps.append(SaliencyMap(scores=weights @ layer_masks, layer=layer,
                                target_class=target_class,
                                subject_id=graph.subject_id, window=graph.window))
    return maps


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


def top_rois(maps: list[SaliencyMap], k: int = 10) -> np.ndarray:
    """The `k` ROIs of largest mean absolute score across maps, in descending
    order; ties keep the lower index first."""
    if not maps:
        raise ValueError("top_rois: no maps")
    r = maps[0].scores.shape[0]
    for m in maps:
        if m.scores.shape[0] != r:
            raise ValueError("top_rois: maps disagree on ROI count")
    mean_scores = np.mean([m.scores for m in maps], axis=0)
    return np.argsort(-np.abs(mean_scores), kind="stable")[:k]


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
    from scipy import special  # imported here so that train and eval never load scipy

    scores = np.asarray(scores, dtype=np.float64)
    fc = np.asarray(fc, dtype=np.float64)
    groups = np.asarray(groups)
    n = scores.shape[0]
    if fc.shape[0] != n or groups.shape[0] != n:
        raise ValueError("scores, fc, and groups must agree on subject count")
    counts = np.bincount(groups.astype(int), minlength=2)
    if counts.min() < MIN_GROUP_SUBJECTS:
        raise ValueError(f"need at least {MIN_GROUP_SUBJECTS} subjects per group, "
                         f"got {counts.tolist()}")

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
                p = float(2.0 * special.stdtr(n - 2, -abs(t)))
            if p <= p_max:
                edges.append(Edge(roi_a=a, roi_b=b, correlation=r, p_value=p))
    edges.sort(key=lambda e: (-abs(e.correlation), e.roi_a, e.roi_b))
    return edges[:n_edges]


# ---------------------------------------------------------------------------
# faithfulness against the model


def saliency_masked_scores(theta: ParamStore, graphs: list[FCGraph],
                           *masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """(clean, masked, ...) predicted-class probabilities per graph: the
    clean ones, then one array per mask set, all from one clean pass.

    In each mask set, row i is a per-ROI weight vector for graph i; it is
    min-max normalized and applied to the node-feature rows.
    """
    x = np.stack([g.features for g in graphs])
    adj = np.stack([g.propagation for g in graphs])
    clean = eval_class_probs(theta, x, adj)
    picked = (np.arange(len(graphs)), np.argmax(clean, axis=1))
    masked = [eval_class_probs(theta, x, adj,
                               _minmax_rows(np.asarray(m, dtype=np.float64)))[picked]
              for m in masks]
    return (clean[picked], *masked)


def permuted_masks(masks: np.ndarray, seed, *key) -> np.ndarray:
    """Equal-sparsity random controls: each mask's values shuffled across
    ROIs by a seeded stream."""
    out = np.empty_like(masks)
    for i in range(masks.shape[0]):
        perm = rng.stream(seed, "mask_perm", *key, i).permutation(masks.shape[1])
        out[i] = masks[i][perm]
    return out


# ---------------------------------------------------------------------------
# the explain workflow


@dataclass
class Explanation:
    """The tables of one explain run over a cohort."""
    saliency: np.ndarray  # (N_LAYERS, R): per-layer ROI scores, mean over subjects
    edges: list[Edge]
    faithfulness: dict[str, tuple[float, float]]  # mask -> (average drop, average increase)
    top_rois: np.ndarray  # focus-layer ROIs by descending mean score


def explain_cohort(theta: ParamStore, datasets: list[SiteDataset], layer: int,
                   target_class: int, *, windows: int, seed: int) -> Explanation:
    """Attribute the first `windows` windows of every subject at every layer.

    Subject maps are the mean of their window maps. The focus `layer` selects
    the maps behind the group-discriminative edges and the faithfulness of
    the window maps against equal-sparsity random controls."""
    if not 1 <= layer <= N_LAYERS:
        raise ValueError(f"layer must be in 1..{N_LAYERS}, got {layer}")
    from scipy import special  # noqa: F401  load it before the first forward, as set-up

    for ds in datasets:
        if ds.truth is None:
            raise ConfigError(f"site {ds.site_id}: no labels available for explanation")
    # per subject: (dataset, indices of its first windows), class
    subjects = [(ds, indices[:windows]) for ds in datasets for indices in ds.subject_index.values()]
    groups = np.array([ds.truth[indices[0]] for ds, indices in subjects])
    counts = np.bincount(groups, minlength=2)
    if counts.min() < MIN_GROUP_SUBJECTS:
        raise ConfigError(f"explain needs at least {MIN_GROUP_SUBJECTS} subjects of each "
                          f"class, the cohort has {counts.tolist()}")

    def window_scores(subject):  # (windows, N_LAYERS, R)
        ds, indices = subject
        return np.array([[m.scores for m in score_cam(theta, ds.samples[i], target_class)]
                         for i in indices])

    # every window is scored as in one process, so no output depends on the
    # process count
    per_subject = run_shards(window_scores, subjects, process_count(len(subjects)),
                             "explain shard")
    subject_scores = np.stack([w.mean(axis=0) for w in per_subject])  # (subjects, N_LAYERS, R)
    focus_masks = np.concatenate([w[:, layer - 1] for w in per_subject])
    focus_graphs = [ds.samples[i] for ds, indices in subjects for i in indices]

    focus = subject_scores[:, layer - 1]
    fc = np.stack([ds.features[indices].mean(axis=0) for ds, indices in subjects])
    edges = significant_edges(focus, fc, groups)

    control = permuted_masks(focus_masks, seed, "explain")
    clean, masked, masked_ctl = saliency_masked_scores(theta, focus_graphs, focus_masks, control)
    faithfulness = {
        "saliency": (average_drop(clean, masked), average_increase(clean, masked)),
        "random": (average_drop(clean, masked_ctl), average_increase(clean, masked_ctl)),
    }
    top = top_rois([SaliencyMap(s, layer, target_class, "", 0) for s in focus], 10)
    return Explanation(saliency=subject_scores.mean(axis=0), edges=edges,
                       faithfulness=faithfulness, top_rois=top)


# ---------------------------------------------------------------------------
# the eval workflow


def subject_folds(dataset: SiteDataset, n_folds: int) -> list[list[int]]:
    """Subject-stratified fold assignment: subjects of each class are dealt
    round-robin in id order, so every subject lands in exactly one fold and
    windows never split across folds."""
    if dataset.truth is None:
        raise ConfigError(f"site {dataset.site_id}: no labels available for evaluation")
    by_class: dict[int, list[str]] = {}
    for subject_id, rows in dataset.subject_index.items():
        by_class.setdefault(int(dataset.truth[rows[0]]), []).append(subject_id)
    for label, members in sorted(by_class.items()):
        if len(members) < n_folds:
            raise ConfigError(f"site {dataset.site_id}: class {label} has "
                              f"{len(members)} subjects, needs >= {n_folds}")
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for label in sorted(by_class):
        for pos, subject_id in enumerate(by_class[label]):
            folds[pos % n_folds].extend(dataset.subject_index[subject_id])
    return folds


@dataclass
class SiteEvaluation:
    """One site's window accuracy per subject fold, their mean and spread,
    and its subject majority-vote accuracy where one was asked for."""
    site_id: str
    windows: int
    folds: list[tuple[int, float]]  # (windows, accuracy) per fold
    mean: float
    std: float
    vote: float | None


def evaluate_cohort(theta: ParamStore, datasets: list[SiteDataset], n_folds: int, *,
                    subject_vote: bool) -> list[SiteEvaluation]:
    """Score every window of every site with the one model, per site in the
    order given. Every site's folds are checked before any window is scored."""
    sites = [(ds, subject_folds(ds, n_folds)) for ds in datasets]

    def evaluate_site(site):
        ds, folds = site
        preds, truth = dataset_predictions(theta, ds)
        correct = preds == truth
        accs = [float(correct[indices].mean()) for indices in folds]
        vote = None
        if subject_vote:
            hits = [np.bincount(preds[indices], minlength=2).argmax() == truth[indices[0]]
                    for indices in ds.subject_index.values()]
            vote = sum(hits) / len(hits)
        return SiteEvaluation(ds.site_id, len(ds), [(len(f), a) for f, a in zip(folds, accs)],
                              float(np.mean(accs)), float(np.std(accs)), vote)

    # a site's windows are forwarded as in one process, so no output depends
    # on the process count
    return run_shards(evaluate_site, sites, process_count(len(sites)), "eval shard")
