"""Named parameter storage, the Adam optimizer, learning-rate schedules and
a finite-difference gradient checker."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .tensor import Tensor, backward

log = logging.getLogger(__name__)


class ParamStore:
    """Ordered name -> Tensor map; iteration is always lexicographic by name."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"parameter {name!r} already exists")
        t = value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return sorted(self._tensors)

    def items(self):
        for name in self.names():
            yield name, self._tensors[name]

    def copy(self) -> "ParamStore":
        """Deep copy: fresh leaf tensors with copied arrays."""
        dup = ParamStore()
        for name in self.names():
            dup.add(name, self._tensors[name].data.copy())
        return dup

    def n_values(self) -> int:
        return sum(t.size for t in self._tensors.values())


def is_running_stat(name: str) -> bool:
    """Batch-norm running statistics ride along in the store but are never
    touched by optimizers."""
    return name.endswith(".running_mean") or name.endswith(".running_var")


@dataclass
class Adam:
    """Adam state for a fixed subset of parameter names."""

    names: tuple[str, ...]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        self.names = tuple(sorted(self.names))


def adam_step(store: ParamStore, opt: Adam, grads: dict[str, np.ndarray], lr: float) -> ParamStore:
    """One in-place Adam update with bias correction; returns the store.

    A parameter without a gradient entry is treated as having a zero gradient.
    The moments and the parameter are updated in their own buffers, in the
    operation order of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p = p - lr * (m / c1) / (sqrt(v / c2) + eps)
    """
    opt.step += 1
    t = opt.step
    c1 = 1.0 - opt.beta1 ** t
    c2 = 1.0 - opt.beta2 ** t
    for name in opt.names:
        p = store[name]
        g = grads.get(name)
        if g is None:
            log.debug("adam_step: no gradient for %s, treating as zero", name)
            g = np.zeros(p.shape)
        if name not in opt.m:
            opt.m[name] = np.zeros(p.shape)
            opt.v[name] = np.zeros(p.shape)
        m, v = opt.m[name], opt.v[name]
        # operands in the formulas' order: with two NaNs, the first one's sign wins
        np.multiply(opt.beta1, m, out=m)
        m += (1.0 - opt.beta1) * g
        gg = g * g
        np.multiply(opt.beta2, v, out=v)
        v += np.multiply(1.0 - opt.beta2, gg, out=gg)
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += opt.eps
        step = m / c1
        np.multiply(lr, step, out=step)
        step /= denom
        p.data -= step
    return store


# ---------------------------------------------------------------------------
# learning-rate schedules


@dataclass(frozen=True)
class LrProfile:
    """Either a linear warm-up followed by exponential decay, or pure decay.

    `warmup_rounds=None` resolves to 10% of the total round count.
    """

    kind: str  # "warmup_decay" | "decay"
    base: float
    decay_rate: float = 0.99
    warmup_rounds: int | None = None

    def __post_init__(self):
        if self.kind not in ("warmup_decay", "decay"):
            raise ValueError(f"unknown lr profile kind {self.kind!r}")


def lr_at(profile: LrProfile, step: int, total: int) -> float:
    """Learning rate for a 0-based round index."""
    if profile.kind == "decay":
        return profile.base * profile.decay_rate ** step
    warmup = profile.warmup_rounds
    if warmup is None:
        warmup = int(round(0.1 * total))
    if warmup > 0 and step < warmup:
        return profile.base * step / warmup
    return profile.base * profile.decay_rate ** (step - warmup)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_name: str
    worst_index: int
    n_coordinates: int
    nan_failures: list  # (name, index) pairs where the probe returned NaN

    @property
    def ok(self) -> bool:
        return not self.nan_failures and np.isfinite(self.max_rel_error)


def grad_check(fn, store: ParamStore, h: float = 1e-5,
               max_coords_per_param: int | None = None, seed: int = 0) -> GradCheckResult:
    """Compare analytic gradients of `fn(store)` against central differences.

    `fn` must return a scalar Tensor and be deterministic given the store
    contents (all randomness from fixed streams). The store is restored to
    its entry state after every probe, so batch-norm running updates inside
    `fn` do not leak between evaluations. Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    snapshot = {name: t.data.copy() for name, t in store.items()}

    def restore():
        for name, saved in snapshot.items():
            store[name].data[...] = saved

    loss = fn(store)
    analytic = backward(loss, store)
    restore()

    worst = (-1.0, "", -1)
    failures = []
    n_checked = 0
    for name in store.names():
        flat = store[name].data.reshape(-1)
        size = flat.size
        if max_coords_per_param is None or size <= max_coords_per_param:
            coords = range(size)
        else:
            coords = sorted(rng.stream("gradcheck", seed, name).choice(size, max_coords_per_param, replace=False))
        a_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn(store).item()
            restore()
            flat[i] = orig - h
            f_minus = fn(store).item()
            restore()
            numeric = (f_plus - f_minus) / (2.0 * h)
            n_checked += 1
            if not np.isfinite(numeric):
                failures.append((name, int(i)))
                continue
            rel = abs(a_flat[i] - numeric) / max(1.0, abs(numeric))
            if rel > worst[0]:
                worst = (rel, name, int(i))
    return GradCheckResult(worst[0], worst[1], worst[2], n_checked, failures)
