"""Parameter initialization and the end-to-end forward pass that turns a
batch of connectivity graphs into features and class probabilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from . import tensor as tt
from .data import FCGraph
from .disentangle import disentangle_forward
from .fusion import classifier_probs, fuse
from .optim import ParamStore, is_running_stat
from .stfg import GCN_WIDTHS, EMBED_DIM, normalize_adjacency, stfg_forward
from .tensor import Tensor

DROP_DIS = 0.2
DROP_HEAD = 0.5


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
    x: np.ndarray  # (B, N, R) node features
    adj_norm: np.ndarray  # (B, N, N) normalized propagation matrices
    labels: np.ndarray | None  # (B,) training labels, None at an unlabeled site
    domains: np.ndarray  # (B,) 0 = source, 1 = target
    uids: list[str]
    truth: np.ndarray | None = None  # (B,) known classes, for metrics only

    @property
    def size(self) -> int:
        return self.x.shape[0]


def make_batch(graphs: list[FCGraph], domain: int, *, use_graph: bool = True,
               labels: np.ndarray | None = None) -> Batch:
    """Stack graphs into batched arrays; propagation matrices are cached on
    the graphs. With `use_graph` off, propagation degenerates to identity
    (no neighbor aggregation)."""
    n = graphs[0].n_rois
    x = np.stack([g.features for g in graphs])
    if use_graph:
        mats = []
        for g in graphs:
            if g._norm is None:
                g._norm = normalize_adjacency(g.adjacency)
            mats.append(g._norm)
        adj = np.stack(mats)
    else:
        adj = np.broadcast_to(np.eye(n), (len(graphs), n, n)).copy()
    if labels is None and all(g.label is not None for g in graphs):
        labels = np.array([g.label for g in graphs], dtype=np.int64)
    truth = None
    if all(g.truth is not None for g in graphs):
        truth = np.array([g.truth for g in graphs], dtype=np.int64)
    domains = np.full(len(graphs), domain, dtype=np.int64)
    return Batch(x=x, adj_norm=adj, labels=labels, domains=domains,
                 uids=[g.uid for g in graphs], truth=truth)


def _stfg_masks(batch: Batch, train: bool, key: tuple) -> list:
    if not train:
        return [None] * len(GCN_WIDTHS)
    n = batch.x.shape[1]
    masks = [None]
    widths_in = GCN_WIDTHS[:-1]
    for layer, width in enumerate(widths_in, start=2):
        masks.append(rng.dropout_keep_masks((n, width), 0.1, batch.uids,
                                            *key, f"stfg.l{layer}"))
    return masks


def _mask(batch: Batch, train: bool, key: tuple, tag: str, width: int, rate: float):
    if not train:
        return None
    return rng.dropout_keep_masks((width,), rate, batch.uids, *key, tag)


@dataclass
class ForwardResult:
    z: Tensor
    f_di: Tensor
    f_ds: Tensor
    fused: Tensor
    class_probs: Tensor
    hidden: list | None = None


def model_forward(theta: ParamStore, batch: Batch, *, train: bool,
                  drop_key: tuple = ("eval",), want_hidden: bool = False) -> ForwardResult:
    """Graphs -> embedding -> components -> fused feature -> class probs.

    `drop_key` scopes the dropout streams; it must identify (seed, site,
    round) during training so masks are reproducible sample by sample.
    """
    x = Tensor(batch.x)
    adj = Tensor(batch.adj_norm)
    out = stfg_forward(theta, x, adj, train=train,
                       drop_masks=_stfg_masks(batch, train, drop_key),
                       want_hidden=want_hidden)
    z, hidden = out if want_hidden else (out, None)
    f_di, f_ds = disentangle_forward(
        theta, z, train=train,
        di_mask=_mask(batch, train, drop_key, "dis.di", 256, DROP_DIS),
        ds_mask=_mask(batch, train, drop_key, "dis.ds", 256, DROP_DIS))
    fused = fuse(theta, f_di, f_ds)
    probs = classifier_probs(theta, fused, train=train,
                             drop_mask=_mask(batch, train, drop_key, "clf", 320, DROP_HEAD))
    return ForwardResult(z=z, f_di=f_di, f_ds=f_ds, fused=fused,
                         class_probs=probs, hidden=hidden)


def eval_class_probs(theta: ParamStore, x: np.ndarray, adj_norm: np.ndarray) -> np.ndarray:
    """Evaluation-mode class probabilities for raw feature arrays, used by
    the attribution pipeline. No tape, no statistics updates."""
    batch = Batch(x=x, adj_norm=adj_norm, labels=None,
                  domains=np.zeros(x.shape[0], dtype=np.int64),
                  uids=[str(i) for i in range(x.shape[0])])
    with tt.no_grad():
        res = model_forward(theta, batch, train=False)
    return res.class_probs.data


def eval_hidden(theta: ParamStore, x: np.ndarray, adj_norm: np.ndarray) -> list[np.ndarray]:
    """Per-layer node activations in evaluation mode."""
    batch = Batch(x=x, adj_norm=adj_norm, labels=None,
                  domains=np.zeros(x.shape[0], dtype=np.int64),
                  uids=[str(i) for i in range(x.shape[0])])
    with tt.no_grad():
        res = model_forward(theta, batch, train=False, want_hidden=True)
    return [h.data for h in res.hidden]
