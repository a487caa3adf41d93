"""Parameter initialization and the end-to-end forward pass that turns a
batch of connectivity graphs into features and class probabilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from . import tensor as tt
from .data import FCGraph, SiteDataset
from .disentangle import disentangle_forward
from .fusion import classifier_probs, fuse
from .optim import ParamStore, is_running_stat
from .stfg import GCN_WIDTHS, EMBED_DIM, stfg_forward
from .tensor import Tensor


def _glorot(stream, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return stream.uniform(-bound, bound, size=(fan_in, fan_out))


def _add_linear(theta: ParamStore, seed: int, name: str, fan_in: int, fan_out: int):
    theta.add(f"{name}.w", _glorot(rng.stream(seed, "init", name), fan_in, fan_out))
    theta.add(f"{name}.b", np.zeros(fan_out))


def _add_bn(theta: ParamStore, name: str, width: int):
    theta.add(f"{name}.gamma", np.ones(width))
    theta.add(f"{name}.beta", np.zeros(width))
    theta.add(f"{name}.running_mean", np.zeros(width))
    theta.add(f"{name}.running_var", np.ones(width))


def init_theta(n_rois: int, seed: int) -> ParamStore:
    """The full named parameter set for one model instance."""
    theta = ParamStore()
    fan_in = n_rois
    for i, width in enumerate(GCN_WIDTHS, start=1):
        theta.add(f"stfg.l{i}.w", _glorot(rng.stream(seed, "init", f"stfg.l{i}.w"), fan_in, width))
        _add_bn(theta, f"stfg.l{i}.bn", width)
        fan_in = width
    for branch in ("di", "ds"):
        _add_linear(theta, seed, f"dis.{branch}.fc1", EMBED_DIM, 256)
        _add_bn(theta, f"dis.{branch}.fc1.bn", 256)
        _add_linear(theta, seed, f"dis.{branch}.fc2", 256, 128)
        _add_bn(theta, f"dis.{branch}.fc2.bn", 128)
    for proj in ("q", "k", "v", "o"):
        _add_linear(theta, seed, f"attn.{proj}", 128, 128)
    _add_linear(theta, seed, "mine.fc1", 128, 32)
    _add_bn(theta, "mine.fc1.bn", 32)
    _add_linear(theta, seed, "mine.fc2", 32, 1)
    _add_linear(theta, seed, "dom.fc1", 128, 160)
    _add_bn(theta, "dom.bn", 160)
    _add_linear(theta, seed, "dom.fc2", 160, 2)
    _add_linear(theta, seed, "clf.fc1", 256, 320)
    _add_bn(theta, "clf.bn", 320)
    _add_linear(theta, seed, "clf.fc2", 320, 2)
    return theta


def param_groups(theta: ParamStore) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(main names, estimator names); running statistics belong to neither."""
    main, mine = [], []
    for name in theta.names():
        if is_running_stat(name):
            continue
        (mine if name.startswith("mine.") else main).append(name)
    return tuple(main), tuple(mine)


@dataclass
class Batch:
    """Model inputs; an evaluation forward reads only `x` and `adj_norm`."""
    x: np.ndarray  # (B, N, R) node features
    adj_norm: np.ndarray  # (B, N, N) normalized propagation matrices
    labels: np.ndarray | None = None  # (B,) training labels, None at an unlabeled site
    domains: np.ndarray | None = None  # (B,) 0 = source, 1 = target
    uids: list[str] | None = None  # per-window dropout keys, "subject:window"
    truth: np.ndarray | None = None  # (B,) known classes, for metrics only

    @property
    def size(self) -> int:
        return self.x.shape[0]


def make_batch(dataset: SiteDataset, idx, domain: int) -> Batch:
    """The windows `idx` of a site (an index array, or a slice for views) as
    one batch of rows of its stacks."""
    x = dataset.features[idx]
    return Batch(x=x, adj_norm=dataset.propagation[idx],
                 labels=None if dataset.labels is None else dataset.labels[idx],
                 domains=np.full(len(x), domain, dtype=np.int64),
                 uids=[f"{s}:{w}" for s, w in zip(dataset.subject[idx].tolist(),
                                                   dataset.window[idx].tolist())],
                 truth=None if dataset.truth is None else dataset.truth[idx])


@dataclass
class ForwardResult:
    f_di: Tensor
    f_ds: Tensor
    class_probs: Tensor


def model_forward(theta: ParamStore, batch: Batch, *, train: bool,
                  drop_key: tuple | None = None) -> ForwardResult:
    """Graphs -> embedding -> components -> fused feature -> class probs.

    In training, `drop_key` is (batch.uids, seed, "drop", site, round): each
    dropout layer draws its masks window by window from it, so they are
    reproducible sample by sample, and batch norms use batch statistics. It
    is None in evaluation. A `train` that disagrees with it raises at once.
    """
    if train != (drop_key is not None):
        raise ValueError(f"model_forward: train={train} needs {'a' if train else 'no'} drop_key")
    z = stfg_forward(theta, Tensor(batch.x), Tensor(batch.adj_norm), drop_key=drop_key)
    f_di, f_ds = disentangle_forward(theta, z, drop_key=drop_key)
    probs = classifier_probs(theta, fuse(theta, f_di, f_ds), drop_key=drop_key)
    return ForwardResult(f_di=f_di, f_ds=f_ds, class_probs=probs)


EVAL_CHUNK = 64  # windows per evaluation forward, which bounds its memory


def eval_class_probs(theta: ParamStore, features: np.ndarray, propagation: np.ndarray,
                     weights: np.ndarray | None = None) -> np.ndarray:
    """Evaluation-mode class probabilities of n stacked windows, (n, 2), run
    EVAL_CHUNK windows at a time. With `weights`, window i's node-feature rows
    are scaled by `weights[i]`. No tape, no statistics updates."""
    probs = np.empty((len(features), 2))
    for start in range(0, len(features), EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        x = features[rows] if weights is None else features[rows] * weights[rows, :, None]
        batch = Batch(x=x, adj_norm=propagation[rows])
        with tt.no_grad():
            probs[rows] = model_forward(theta, batch, train=False).class_probs.data
    return probs


def eval_hidden(theta: ParamStore, graph: FCGraph) -> list[np.ndarray]:
    """Per-layer (N, C) node activations of one graph in evaluation mode."""
    with tt.no_grad():
        _, hidden = stfg_forward(theta, Tensor(graph.features[None]),
                                 Tensor(graph.propagation[None]), want_hidden=True)
    return [h.data[0] for h in hidden]
