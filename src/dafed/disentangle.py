"""Split the graph embedding into shared and site-specific halves, and bound
their statistical dependence with a trainable lower-bound estimator."""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .stfg import keyed_dropout, linear, norm
from .tensor import Tensor


def _branch(theta, z: Tensor, branch: str, drop_key) -> Tensor:
    tag = f"dis.{branch}"
    train = drop_key is not None
    h = tt.relu(norm(theta, f"{tag}.fc1", linear(theta, f"{tag}.fc1", z), train=train))
    h = keyed_dropout(h, 0.2, drop_key, tag)
    return tt.relu(norm(theta, f"{tag}.fc2", linear(theta, f"{tag}.fc2", h), train=train))


def disentangle_forward(theta, z: Tensor, *,
                        drop_key: tuple | None = None) -> tuple[Tensor, Tensor]:
    """Two independent stacks map the embedding to the invariant and the
    specific component, (B, 480) -> (B, 128) each. `drop_key` is (uids, *key)
    in training and None in evaluation."""
    f_di = _branch(theta, z, "di", drop_key)
    f_ds = _branch(theta, z, "ds", drop_key)
    return f_di, f_ds


def mine_score(theta, p: Tensor, q: Tensor) -> Tensor:
    """Training-mode statistics-network score of a (p, q) pair batch -> (B,).

    The network input is 128-wide while the pair is 2x128, so the pair
    enters as the elementwise sum.
    """
    h = linear(theta, "mine.fc1", tt.add(p, q))
    h = norm(theta, "mine.fc1", h, train=True)
    out = linear(theta, "mine.fc2", tt.leaky_relu(h, 0.01))
    return tt.reshape(out, (out.shape[0],))


def dv_estimate(joint_scores: Tensor, marginal_scores: Tensor) -> Tensor:
    """Donsker-Varadhan value: mean(joint) - log(mean(exp(marginal))).

    The log-mean-exp is computed in shifted form so large scores cannot
    overflow.
    """
    shift = tt.amax(marginal_scores, axis=0)  # scalar
    shifted = tt.sub(marginal_scores, tt.reshape(shift, (1,)))
    lme = tt.add(tt.log(tt.mean(tt.exp(shifted))), shift)
    return tt.sub(tt.mean(joint_scores), lme)


def mine_estimate(theta, f_di: Tensor, f_ds: Tensor, perm: np.ndarray) -> Tensor:
    """Dependence estimate between the two components on one training batch.

    Joint pairs align rows; marginal pairs re-pair the specific component by
    `perm`, in a `hold_batch_stats` whose statistics are dropped. Batches
    below 2 are rejected because the marginal shuffle is undefined.
    """
    n = f_di.shape[0]
    if n < 2:
        raise ValueError(f"dependence estimate needs a batch of at least 2, got {n}")
    perm = np.asarray(perm, dtype=np.intp)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of the batch indices")
    joint = mine_score(theta, f_di, f_ds)
    with tt.hold_batch_stats():
        marginal = mine_score(theta, f_di, tt.take_rows(f_ds, perm))
    return dv_estimate(joint, marginal)


def mi_loss(estimate: Tensor) -> Tensor:
    """Nonnegative dependence penalty: the absolute estimator value."""
    return tt.absolute(estimate)


def marginal_permutation(n: int, stream) -> np.ndarray:
    """One uniform permutation per batch; tiny batches redraw until no index
    maps to itself, otherwise the first draw stands."""
    perm = stream.permutation(n)
    if n <= 4:
        while np.any(perm == np.arange(n)):
            perm = stream.permutation(n)
    return perm
