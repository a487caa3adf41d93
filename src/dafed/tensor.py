"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every differentiable primitive returns a new
Tensor that records its inputs together with vector-Jacobian closures; the
resulting graph is a DAG that `backward` walks exactly once in reverse
topological order. Recording can be suspended with `no_grad()` for
evaluation-only passes, in which case primitives return identical values
with no graph attached.
"""

from __future__ import annotations

import contextlib
import logging
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

_RECORDING = True


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested primitive."""


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording inside the context."""
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


class Tensor:
    """A float64 array plus its position in the differentiation graph.

    `parents` holds (input, vjp) pairs where vjp maps the output gradient to
    the gradient w.r.t. that input; leaves have none.
    """

    __slots__ = ("data", "parents", "op")

    def __init__(self, data, parents=(), op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents) if _RECORDING else ()
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A leaf tensor sharing this tensor's values."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, op) -> Tensor:
    if not _RECORDING:
        return Tensor(data, op=op)
    return Tensor(data, parents=parents, op=op)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> tuple:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a, b, "add")
    out = a.data + b.data
    return _node(out, [(a, lambda g: _unbroadcast(g, a.shape)),
                       (b, lambda g: _unbroadcast(g, b.shape))], "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data
    return _node(out, [(a, lambda g: _unbroadcast(g, a.shape)),
                       (b, lambda g: _unbroadcast(-g, b.shape))], "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data
    return _node(out, [(a, lambda g: _unbroadcast(g * b.data, a.shape)),
                       (b, lambda g: _unbroadcast(g * a.data, b.shape))], "mul")


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    c = float(c)
    return _node(a.data * c, [(a, lambda g: g * c)], "scale")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product: 2-D x 2-D, batched ND x ND, or batched ND x 2-D."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    if a.ndim == 2 and b.ndim == 2:
        out = a.data @ b.data
        return _node(out, [(a, lambda g: g @ b.data.T),
                           (b, lambda g: a.data.T @ g)], "matmul")

    if a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        out = a.data @ b.data
        sw = lambda x: np.swapaxes(x, -1, -2)
        return _node(out, [(a, lambda g: g @ sw(b.data)),
                           (b, lambda g: sw(a.data) @ g)], "matmul")

    if a.ndim >= 3 and b.ndim == 2:
        out = a.data @ b.data
        lead = a.ndim - 1
        return _node(out, [(a, lambda g: g @ b.data.T),
                           (b, lambda g: np.tensordot(a.data, g, axes=(tuple(range(lead)), tuple(range(lead)))))],
                     "matmul")

    raise ShapeError(f"matmul: unsupported operand ranks {a.shape} @ {b.shape}")


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(np.transpose(a.data, axes), [(a, lambda g: np.transpose(g, inv))], "transpose")


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return _node(a.data.reshape(shape), [(a, lambda g: g.reshape(old))], "reshape")


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: empty input list")
    out = np.concatenate([t.data for t in ts], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def part_vjp(i):
        return lambda g: np.split(g, splits, axis=axis)[i]

    return _node(out, [(t, part_vjp(i)) for i, t in enumerate(ts)], "concat")


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0; repeated indices accumulate gradients."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or (a.shape[0] and idx.size and (idx.min() < 0 or idx.max() >= a.shape[0])):
        raise ShapeError(f"take_rows: bad index set for {a.shape[0]} rows")
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return full

    return _node(a.data[idx], [(a, vjp)], "take_rows")


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        shape = a.shape
        return _node(a.data.sum(), [(a, lambda g: np.broadcast_to(g, shape).copy())], "sum")
    out = a.data.sum(axis=axis)
    return _node(out, [(a, lambda g: np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())], "sum")


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.size
        shape = a.shape
        return _node(a.data.mean(), [(a, lambda g: np.broadcast_to(g / n, shape).copy())], "mean")
    n = a.shape[axis]
    out = a.data.mean(axis=axis)
    return _node(out, [(a, lambda g: np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy())], "mean")


def amax(a, axis: int) -> Tensor:
    """Max along one axis; ties route the gradient to the first maximal index."""
    a = _wrap(a)
    if a.shape[axis] == 0:
        raise ShapeError(f"amax: empty axis {axis} in shape {a.shape}")
    if not _RECORDING:
        out = np.asarray(a.data.max(axis=axis))
        # max and argmax can pick different signed zeros or NaNs; the first
        # maximal element is the result, as on the recorded path
        ties = np.isnan(out)
        if np.signbit(a.data).any():  # else no -0.0 can tie with 0.0
            ties |= out == 0
        if ties.any():
            tied = np.moveaxis(a.data, axis, -1)[ties]
            out[ties] = tied[np.arange(tied.shape[0]), np.argmax(tied, axis=-1)]
        return _node(out, (), "max")
    arg = np.argmax(a.data, axis=axis)
    out = np.take_along_axis(a.data, np.expand_dims(arg, axis), axis=axis).squeeze(axis)

    def vjp(g):
        full = np.zeros(a.shape)
        np.put_along_axis(full, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
        return full

    return _node(out, [(a, vjp)], "max")


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = _wrap(a)
    out = np.fmax(a.data, 0.0)  # NaN -> 0.0
    out += 0.0  # -0.0 -> +0.0: the same bytes as np.where(a > 0, a, 0.0)
    if not _RECORDING:
        return _node(out, (), "relu")
    mask = a.data > 0
    return _node(out, [(a, lambda g: g * mask)], "relu")


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    out = np.where(mask, a.data, slope * a.data)
    return _node(out, [(a, lambda g: g * np.where(mask, 1.0, slope))], "leaky_relu")


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    if a.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return out * (g - (g * out).sum(axis=axis, keepdims=True))

    return _node(out, [(a, vjp)], "softmax")


def log(a) -> Tensor:
    a = _wrap(a)
    return _node(np.log(a.data), [(a, lambda g: g / a.data)], "log")


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _node(out, [(a, lambda g: g * out)], "exp")


def absolute(a) -> Tensor:
    a = _wrap(a)
    return _node(np.abs(a.data), [(a, lambda g: g * np.sign(a.data))], "abs")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only strictly inside (lo, hi)."""
    a = _wrap(a)
    inside = (a.data > lo) & (a.data < hi)
    return _node(np.clip(a.data, lo, hi), [(a, lambda g: g * inside)], "clip")


def cosine_similarity(a, b) -> Tensor:
    """Row-wise cosine similarity of two (batch, d) tensors -> (batch,).

    Rows with zero norm get similarity 0 and a zero gradient.
    """
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: need matching 2-D shapes, got {a.shape}, {b.shape}")
    na = np.linalg.norm(a.data, axis=1)
    nb = np.linalg.norm(b.data, axis=1)
    denom = na * nb
    bad = denom == 0.0
    if bad.any():
        logger.debug("cosine_similarity: %d zero-norm rows treated as similarity 0", int(bad.sum()))
    safe = np.where(bad, 1.0, denom)
    dot = (a.data * b.data).sum(axis=1)
    sim = np.where(bad, 0.0, dot / safe)

    def vjp_a(g):
        g = np.where(bad, 0.0, g)[:, None]
        return g * (b.data / safe[:, None] - sim[:, None] * a.data / np.where(bad, 1.0, na * na)[:, None])

    def vjp_b(g):
        g = np.where(bad, 0.0, g)[:, None]
        return g * (a.data / safe[:, None] - sim[:, None] * b.data / np.where(bad, 1.0, nb * nb)[:, None])

    return _node(sim, [(a, vjp_a), (b, vjp_b)], "cosine_similarity")


def grad_reverse(a, scale_factor: float) -> Tensor:
    """Identity on the forward pass; backward multiplies the gradient by -scale."""
    a = _wrap(a)
    s = float(scale_factor)
    return _node(a.data, [(a, lambda g: -s * g)], "grad_reverse")


# ---------------------------------------------------------------------------
# stochastic / stateful layers


def dropout(a, rate: float, *, mask: np.ndarray | None = None,
            rng: np.random.Generator | None = None, train: bool = True) -> Tensor:
    """Inverted dropout: train-time scaling by 1/(1-rate), identity in eval.

    The keep mask may be supplied directly (boolean array of the input shape)
    or drawn from `rng`.
    """
    a = _wrap(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return _node(a.data, [(a, lambda g: g)], "dropout")
    if mask is None:
        if rng is None:
            raise ValueError("dropout: train mode needs a mask or an rng stream")
        mask = rng.random(a.shape) >= rate
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != input shape {a.shape}")
    inv = 1.0 / (1.0 - rate)
    factor = mask * inv
    return _node(a.data * factor, [(a, lambda g: g * factor)], "dropout")


def batch_norm(x, gamma, beta, running_mean, running_var, *, train: bool,
               eps: float = 1e-5, momentum: float = 0.9,
               update_running: bool = True) -> Tensor:
    """Normalize over all leading axes, per feature on the last axis.

    Train mode uses biased batch statistics and (optionally) folds them into
    the running estimates in place; eval mode normalizes with the running
    statistics.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must have shape ({c},)")
    axes = tuple(range(x.ndim - 1))

    if train:
        # one mean: the variance is np.var's sum of squared centred values,
        # and the centred values become xhat in place
        mu = x.data.mean(axis=axes)
        xhat = x.data - mu
        var = np.square(xhat).sum(axis=axes)
        var /= x.size // c
        if update_running:
            running_mean.data[...] = momentum * running_mean.data + (1.0 - momentum) * mu
            running_var.data[...] = momentum * running_var.data + (1.0 - momentum) * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std

        def vjp_x(g):
            # (gamma * inv_std) * (g - gm - xhat * gxm) with two temporaries
            gm = g.mean(axis=axes)
            tmp = g * xhat
            gxm = tmp.mean(axis=axes)
            out = g - gm
            out -= np.multiply(xhat, gxm, out=tmp)
            return np.multiply(gamma.data * inv_std, out, out=out)  # operand order fixes NaN signs

        def vjp_gamma(g):
            return (g * xhat).sum(axis=axes)

        def vjp_beta(g):
            return g.sum(axis=axes)

        out = gamma.data * xhat + beta.data
        return _node(out, [(x, vjp_x), (gamma, vjp_gamma), (beta, vjp_beta)], "batch_norm")

    # running variance can dip below zero after parameter noise; clamp at use
    inv_std = 1.0 / np.sqrt(np.maximum(running_var.data, 0.0) + eps)
    xhat = x.data - running_mean.data
    xhat *= inv_std
    if not _RECORDING:
        # the recorded path's operations in the same order, in place
        np.multiply(gamma.data, xhat, out=xhat)  # operand order fixes NaN signs
        xhat += beta.data
        return _node(xhat, (), "batch_norm")
    out = gamma.data * xhat + beta.data
    return _node(out, [(x, lambda g: g * gamma.data * inv_std),
                       (gamma, lambda g: (g * xhat).sum(axis=axes)),
                       (beta, lambda g: g.sum(axis=axes))], "batch_norm")


# ---------------------------------------------------------------------------
# backward


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(loss: Tensor, wrt: Iterable[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. the given tensors (zeros if unused).

    Adjoints are only formed on paths from the loss to a requested tensor: a
    VJP into a parent that reaches none of `wrt` (a constant input, or a
    parameter nobody asked for) is never called. Every requested gradient
    sums the same terms in the same order as a full sweep would.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be a 1-element tensor, got shape {loss.shape}")
    wrt = list(wrt)
    order = _topo_order(loss)
    live = {id(t) for t in wrt}
    for node in order:  # parents come before their children
        if any(id(parent) in live for parent, _ in node.parents):
            live.add(id(node))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            if id(parent) not in live:
                continue
            pg = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [np.zeros(t.shape) if (g := grads.get(id(t))) is None else g for t in wrt]


def backward(loss: Tensor, store, names=None) -> dict[str, np.ndarray]:
    """Gradient map name -> array for the named parameters of `store`, by
    default all of them."""
    names = store.names() if names is None else list(names)
    gs = gradients(loss, [store[n] for n in names])
    return dict(zip(names, gs))
