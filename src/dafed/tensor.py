"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every differentiable primitive returns a new
Tensor that records its inputs together with vector-Jacobian closures; the
resulting graph is a DAG that `backward` walks exactly once in reverse
topological order. Each primitive has one path, taped or not: what only the
backward pass reads (a mask, an argmax) is computed in the VJP, from inputs
that nothing writes to before `backward`. `no_grad()` suspends recording for
evaluation-only passes: there a Tensor drops its parents, and batch norm
writes its output over its normalized input, which no VJP will read. No
forward writes the tensors it reads: only `fold_batch_stats` moves batch
norm's running estimates, with the statistics `hold_batch_stats` collects.
"""

from __future__ import annotations

import contextlib
import logging
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

_RECORDING = True
_HELD = None  # the innermost `hold_batch_stats` list, if any
BN_EPS, BN_MOMENTUM = 1e-5, 0.9  # batch norm's variance floor and running-estimate decay


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


@contextlib.contextmanager
def hold_batch_stats():
    """Inside the context, every training-mode batch norm appends (running
    mean, running variance, batch mean, batch variance) to the yielded list,
    for `fold_batch_stats` to fold later; a nested context collects its own,
    and outside any they are dropped."""
    global _HELD
    prev = _HELD
    _HELD = held = []
    try:
        yield held
    finally:
        _HELD = prev


def fold_batch_stats(held: list):
    """Fold each held batch's mean and variance into its running estimates,
    in place, in list order."""
    for running_mean, running_var, mu, var in held:
        running_mean.data[...] = BN_MOMENTUM * running_mean.data + (1.0 - BN_MOMENTUM) * mu
        running_var.data[...] = BN_MOMENTUM * running_var.data + (1.0 - BN_MOMENTUM) * var


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

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    return Tensor(out, [(a, lambda g: _unbroadcast(g, a.shape)),
                        (b, lambda g: _unbroadcast(g, b.shape))], "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data
    return Tensor(out, [(a, lambda g: _unbroadcast(g, a.shape)),
                        (b, lambda g: _unbroadcast(-g, b.shape))], "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data
    return Tensor(out, [(a, lambda g: _unbroadcast(g * b.data, a.shape)),
                        (b, lambda g: _unbroadcast(g * a.data, b.shape))], "mul")


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    c = float(c)
    return Tensor(a.data * c, [(a, lambda g: g * c)], "scale")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product: ND x ND with equal leading dimensions (so 2-D x 2-D),
    or batched ND x 2-D."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    if a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        out = a.data @ b.data
        sw = lambda x: np.swapaxes(x, -1, -2)
        return Tensor(out, [(a, lambda g: g @ sw(b.data)),
                            (b, lambda g: sw(a.data) @ g)], "matmul")

    if a.ndim >= 3 and b.ndim == 2:
        out = a.data @ b.data
        lead = a.ndim - 1
        return Tensor(out, [(a, lambda g: g @ b.data.T),
                            (b, lambda g: np.tensordot(a.data, g, axes=(tuple(range(lead)), tuple(range(lead)))))],
                      "matmul")

    raise ShapeError(f"matmul: unsupported operand ranks {a.shape} @ {b.shape}")


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor(np.transpose(a.data, axes), [(a, lambda g: np.transpose(g, inv))], "transpose")


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return Tensor(a.data.reshape(shape), [(a, lambda g: g.reshape(old))], "reshape")


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: empty input list")
    out = np.concatenate([t.data for t in ts], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def part_vjp(i):
        return lambda g: np.split(g, splits, axis=axis)[i]

    return Tensor(out, [(t, part_vjp(i)) for i, t in enumerate(ts)], "concat")


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

    return Tensor(a.data[idx], [(a, vjp)], "take_rows")


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        shape = a.shape
        return Tensor(a.data.sum(), [(a, lambda g: np.broadcast_to(g, shape).copy())], "sum")
    out = a.data.sum(axis=axis)
    return Tensor(out, [(a, lambda g: np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())], "sum")


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.size
        shape = a.shape
        return Tensor(a.data.mean(), [(a, lambda g: np.broadcast_to(g / n, shape).copy())], "mean")
    n = a.shape[axis]
    out = a.data.mean(axis=axis)
    return Tensor(out, [(a, lambda g: np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy())], "mean")


def amax(a, axis: int) -> Tensor:
    """Max along one axis; ties route the gradient to the first maximal index."""
    a = _wrap(a)
    if a.shape[axis] == 0:
        raise ShapeError(f"amax: empty axis {axis} in shape {a.shape}")
    out = np.asarray(a.data.max(axis=axis))
    # max and argmax can pick different signed zeros or NaNs; argmax's, the
    # first maximal element, is the result
    ties = np.isnan(out)
    if np.signbit(a.data).any():  # else no -0.0 can tie with 0.0
        ties |= out == 0
    if ties.any():
        tied = np.moveaxis(a.data, axis, -1)[ties]
        out[ties] = tied[np.arange(tied.shape[0]), np.argmax(tied, axis=-1)]

    def vjp(g):
        # argmax before np.zeros: the other order ran 2.5x slower on a (72, 32, 128)
        # input (Xeon, numpy 2.4, one BLAS thread)
        arg = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        full = np.zeros(a.shape)
        np.put_along_axis(full, arg, np.expand_dims(g, axis), axis=axis)
        return full

    return Tensor(out, [(a, vjp)], "max")


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = _wrap(a)
    out = np.fmax(a.data, 0.0)  # NaN -> 0.0
    out += 0.0  # -0.0 -> +0.0: the same bytes as np.where(a > 0, a, 0.0)
    return Tensor(out, [(a, lambda g: g * (a.data > 0))], "relu")


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = _wrap(a)
    out = np.where(a.data > 0, a.data, slope * a.data)
    return Tensor(out, [(a, lambda g: g * np.where(a.data > 0, 1.0, slope))], "leaky_relu")


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    if a.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return out * (g - (g * out).sum(axis=axis, keepdims=True))

    return Tensor(out, [(a, vjp)], "softmax")


def log(a) -> Tensor:
    a = _wrap(a)
    return Tensor(np.log(a.data), [(a, lambda g: g / a.data)], "log")


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return Tensor(out, [(a, lambda g: g * out)], "exp")


def absolute(a) -> Tensor:
    a = _wrap(a)
    return Tensor(np.abs(a.data), [(a, lambda g: g * np.sign(a.data))], "abs")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only strictly inside (lo, hi)."""
    a = _wrap(a)
    return Tensor(np.clip(a.data, lo, hi), [(a, lambda g: g * ((a.data > lo) & (a.data < hi)))],
                  "clip")


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

    def vjp(u, v, nu):  # into u, the other row being v
        return lambda g: np.where(bad, 0.0, g)[:, None] * (
            v.data / safe[:, None] - sim[:, None] * u.data / np.where(bad, 1.0, nu * nu)[:, None])

    return Tensor(sim, [(a, vjp(a, b, na)), (b, vjp(b, a, nb))], "cosine_similarity")


def grad_reverse(a, scale_factor: float) -> Tensor:
    """Identity on the forward pass; backward multiplies the gradient by -scale."""
    a = _wrap(a)
    s = float(scale_factor)
    return Tensor(a.data, [(a, lambda g: -s * g)], "grad_reverse")


# ---------------------------------------------------------------------------
# stochastic / stateful layers


def dropout(a, rate: float, mask: np.ndarray) -> Tensor:
    """Inverted dropout: zero where the boolean keep `mask` (the input's
    shape) is false, scale the kept entries by 1/(1-rate). Evaluation passes
    skip it."""
    a = _wrap(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if mask.shape != a.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != input shape {a.shape}")
    factor = mask * (1.0 / (1.0 - rate))
    return Tensor(a.data * factor, [(a, lambda g: g * factor)], "dropout")


def batch_norm(x, gamma, beta, running_mean, running_var, *, train: bool) -> Tensor:
    """Normalize over all leading axes, per feature on the last axis.

    Train mode uses biased batch statistics and appends them to the
    innermost `hold_batch_stats` list, if any; eval mode normalizes with the
    running statistics. Neither mode writes the running estimates.
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
        if _HELD is not None:
            _HELD.append((running_mean, running_var, mu, var))
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std

        def vjp_x(g):
            # (gamma * inv_std) * (g - gm - xhat * gxm) with two temporaries
            gm = g.mean(axis=axes)
            tmp = g * xhat
            gxm = tmp.mean(axis=axes)
            out = g - gm
            out -= np.multiply(xhat, gxm, out=tmp)
            return np.multiply(gamma.data * inv_std, out, out=out)  # operand order fixes NaN signs
    else:
        # running variance can dip below zero after parameter noise; clamp at use
        inv_std = 1.0 / np.sqrt(np.maximum(running_var.data, 0.0) + BN_EPS)
        xhat = x.data - running_mean.data
        xhat *= inv_std

        def vjp_x(g):
            return g * gamma.data * inv_std

    # the operand order fixes NaN signs; off the tape no VJP reads xhat, so
    # the output is written over it
    out = np.multiply(gamma.data, xhat, out=None if _RECORDING else xhat)
    out += beta.data
    return Tensor(out, [(x, vjp_x), (gamma, lambda g: (g * xhat).sum(axis=axes)),
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
    parameter nobody asked for) is never called. An adjoint lives until its
    node has passed it on to its parents; only the requested tensors'
    adjoints are kept and returned. Every requested gradient sums the same
    terms in the same order as a full sweep would.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be a 1-element tensor, got shape {loss.shape}")
    wrt = list(wrt)
    order = _topo_order(loss)
    wanted = {id(t) for t in wrt}
    live = set(wanted)
    for node in order:  # parents come before their children
        if any(id(parent) in live for parent, _ in node.parents):
            live.add(id(node))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):  # every child has added its share by now
        g = grads.get(id(node)) if id(node) in wanted else grads.pop(id(node), None)
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
