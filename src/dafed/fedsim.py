"""Federated protocol simulation: the two-site adversarial exchange, the
multi-site round with noisy uploads and averaging, the cross-round
contrastive module, and per-site objective assembly.

Each round goes out as two messages. The model message carries the global
parameters as the last averaging left them. Every local site runs its
training step on it at once, holding back its batch-norm statistics. The
central labeled site computes its objective and gradient meanwhile, and the
central message carries its running statistics and (with `broadcast_grads`)
that gradient map. With it, each local site folds its held statistics into
the central ones, adds the central gradient to its own, takes its optimizer
step, adds Gaussian noise and uploads; the server averages the uploads.
Messages travel as serialized bytes so byte counts and the privacy scan are
meaningful.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import rng
from . import tensor as tt
from .data import SiteDataset
from .disentangle import marginal_permutation, mi_loss, mine_estimate
from .fusion import (LABELED_ROLES, ROLE_SOURCE, ROLES, adversarial_ramp, classify_loss,
                     domain_loss, domain_probs, total_loss)
from .network import (Batch, eval_class_probs, make_batch, model_forward, param_groups,
                      init_theta)
from .optim import Adam, LrProfile, ParamStore, adam_step, is_running_stat, lr_at
from .tensor import Tensor, backward
from . import wire
from .workers import Workers, in_item_order, process_count, send_outcome, until_error

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    def __init__(self, round_idx: int, site_id: str, what: str):
        self.round_idx = round_idx
        self.site_id = site_id
        self.what = what
        super().__init__(f"non-finite {what} at round {round_idx}, site {site_id}")

    def __reduce__(self):  # rebuilt from its fields, so that a worker can report it
        return type(self), (self.round_idx, self.site_id, self.what)


@dataclass
class NoiseSpec:
    """Parameter-noise level: per tensor the noise std is alpha times that
    tensor's own empirical standard deviation."""

    alpha: float = 0.01
    key: tuple = ()

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"noise level must be >= 0, got {self.alpha}")


def add_noise(theta: ParamStore, spec: NoiseSpec, *extra_key) -> ParamStore:
    """Independent Gaussian noise per weight tensor; alpha=0 returns an
    identical copy, and constant tensors (zero spread) pass through unchanged.

    Normalization running statistics are exempt: they are data-derived
    buffers, not weights, and additive noise sized by the tensor-wide spread
    drives small variance entries negative, corrupting every evaluation pass.
    """
    out = theta.copy()
    if spec.alpha == 0.0:
        return out
    for name, t in out.items():
        if is_running_stat(name):
            continue
        sigma = float(t.data.std())
        if sigma == 0.0:
            continue
        t.data += rng.stream(*spec.key, *extra_key, name).normal(0.0, spec.alpha * sigma, t.shape)
    return out


def aggregate(uploads: list[ParamStore]) -> ParamStore:
    """Unweighted elementwise mean of parameter sets (running statistics
    included). Identical uploads are a fixed point, exactly."""
    if not uploads:
        raise ValueError("aggregate: no uploads")
    names = uploads[0].names()
    for i, up in enumerate(uploads[1:], start=1):
        if up.names() != names:
            extra = set(up.names()) ^ set(names)
            raise ValueError(f"aggregate: upload {i} name set differs on {sorted(extra)[:3]}")
        for name in names:
            if up[name].shape != uploads[0][name].shape:
                raise ValueError(f"aggregate: shape mismatch for {name!r}")
    out = ParamStore()
    k = len(uploads)
    scratch = np.empty(max((uploads[0][name].size for name in names), default=0))
    for name in names:
        base = uploads[0][name].data
        if k == 1:
            out.add(name, base.copy())
            continue
        diff = scratch[:base.size].reshape(base.shape)
        delta = np.zeros_like(base)
        for up in uploads[1:]:
            delta += np.subtract(up[name].data, base, out=diff)
        delta /= k
        out.add(name, np.add(base, delta, out=delta))  # base + delta / k
    return out


# ---------------------------------------------------------------------------
# contrastive module


def contrastive_loss(anchor: Tensor, positive: np.ndarray,
                     negatives: list, tau: float = 0.5) -> Tensor:
    """Cross-round contrastive objective on the invariant component.

    `anchor` is the live (batch, d) feature under the local parameters,
    `positive` the same samples under the previous global parameters, and
    `negatives[i]` the list of queued past snapshots for sample i. Samples
    with an empty queue contribute exactly zero.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    n = anchor.shape[0]
    if n == 0:
        return Tensor(0.0)
    counts = [len(negs) for negs in negatives]
    terms = []
    for j in sorted(set(counts)):
        idx = [i for i, c in enumerate(counts) if c == j]
        a = tt.take_rows(anchor, idx)
        sims = [tt.cosine_similarity(a, Tensor(positive[idx]))]
        for m in range(j):
            neg_m = Tensor(np.stack([negatives[i][m] for i in idx]))
            sims.append(tt.cosine_similarity(a, neg_m))
        g = len(idx)
        mat = tt.scale(tt.concat([tt.reshape(s, (g, 1)) for s in sims], axis=1), 1.0 / tau)
        peak = tt.amax(mat, axis=1)
        lse = tt.add(tt.log(tt.tsum(tt.exp(tt.sub(mat, tt.reshape(peak, (g, 1)))), axis=1)), peak)
        terms.append(tt.sub(lse, tt.scale(sims[0], 1.0 / tau)))
    return tt.mean(tt.concat(terms, axis=0)) if len(terms) > 1 else tt.mean(terms[0])


def update_queue(queue: dict, uids: list[str], snapshot: np.ndarray, capacity: int):
    """Push this round's per-sample features; the oldest beyond `capacity`
    fall off. capacity=0 keeps every queue empty."""
    if capacity < 0:
        raise ValueError("queue capacity must be >= 0")
    for i, uid in enumerate(uids):
        dq = queue.get(uid)
        if dq is None or dq.maxlen != capacity:
            dq = deque(dq or (), maxlen=capacity)
            queue[uid] = dq
        if capacity:
            dq.append(snapshot[i].copy())


# ---------------------------------------------------------------------------
# per-site state and objective


@dataclass
class TrainSettings:
    seed: int = 0
    rounds: int = 50
    lambda_mi: float = 1.0
    lambda_cl: float = 0.1
    gamma: float = 10.0
    tau: float = 0.5
    queue_len: int = 5
    alpha: float = 0.01
    lr: LrProfile = field(default_factory=lambda: LrProfile("decay", 0.01, 0.99))
    batch_denom: int = 16
    use_rd: bool = True
    use_dat: bool = True
    use_cl: bool = True
    reversal: bool = True  # gradient reversal separable from the loss weight
    broadcast_grads: bool = True  # off: the broadcast carries no central gradient


@dataclass
class SiteState:
    site_id: str
    role: str
    dataset: SiteDataset
    adam: Adam  # every parameter the site trains, one step per round
    queue: dict = field(default_factory=dict)
    prev_global: ParamStore | None = None  # the last broadcast model
    theta: ParamStore | None = None  # the central site owns the shared model


def build_states(datasets: list[SiteDataset], roles: dict[str, str],
                 theta: ParamStore) -> tuple[SiteState, list[SiteState]]:
    """One source state plus target states, with fresh optimizers sized for
    the given parameter set."""
    main_names, mine_names = param_groups(theta)
    source = None
    targets = []
    for ds in datasets:
        role = roles[ds.site_id]
        if len(ds) < 2:
            raise ValueError(f"site {ds.site_id}: needs at least 2 samples")
        if role not in ROLES:
            raise ValueError(f"site {ds.site_id}: unknown role {role!r}")
        if role in LABELED_ROLES and not ds.labeled:
            raise ValueError(f"site {ds.site_id}: role {role} needs labels")
        state = SiteState(site_id=ds.site_id, role=role, dataset=ds,
                          adam=Adam(names=main_names + mine_names))
        if role == ROLE_SOURCE:
            if source is not None:
                raise ValueError("exactly one source site per run")
            source = state
        else:
            targets.append(state)
    if source is None:
        raise ValueError("exactly one source site per run")
    return source, targets


def select_batch(state: SiteState, round_idx: int, settings: TrainSettings) -> Batch:
    """Deterministic per-(site, round) minibatch of max(2, n // batch_denom)
    windows, or all n when fewer."""
    n = len(state.dataset)
    size = min(n, max(2, n // settings.batch_denom))
    idx = rng.stream(settings.seed, "batch", state.site_id, round_idx).choice(n, size, replace=False)
    domain = 0 if state.role == ROLE_SOURCE else 1
    return make_batch(state.dataset, idx, domain)


@dataclass
class SiteObjective:
    total: Tensor
    estimator_objective: Tensor | None  # minimized by the estimator optimizer
    parts: dict  # raw loss component values for metrics
    anchor: np.ndarray  # detached invariant features of this batch
    accuracy: float  # batch accuracy against `Batch.truth`, nan when unknown
    sim_pos: float = float("nan")  # mean anchor/positive cosine, diagnostics only


def site_objective(theta: ParamStore, batch: Batch, *, role: str, ramp: float,
                   settings: TrainSettings, queue: dict,
                   prev_global: ParamStore | None, key: tuple) -> SiteObjective:
    """Forward one training batch and assemble the weighted objective. A
    labeled role adds the classification term."""
    drop_key = (batch.uids, *key)
    fw = model_forward(theta, batch, train=True, drop_key=drop_key)
    tensors = {}
    parts = {"cls": 0.0, "mi": 0.0, "cl": 0.0, "dom": 0.0}

    if role in LABELED_ROLES:
        if batch.labels is None:
            raise ValueError(f"role {role} needs labels for the classification term")
        tensors["cls"] = classify_loss(fw.class_probs, batch.labels)
        parts["cls"] = tensors["cls"].item()

    estimator_objective = None
    if settings.use_rd:
        perm = marginal_permutation(batch.size, rng.stream(*key, "marginal"))
        dv = mine_estimate(theta, fw.f_di, fw.f_ds, perm)
        tensors["mi"] = mi_loss(dv)
        parts["mi"] = tensors["mi"].item()
        # the estimator maximizes the same estimate; its backward stops at its own parameters
        estimator_objective = tt.scale(dv, -1.0)

    if settings.use_dat:
        probs = domain_probs(theta, fw.f_di, drop_key=drop_key,
                             reverse_scale=ramp if settings.reversal else None)
        tensors["dom"] = domain_loss(probs, batch.domains)
        parts["dom"] = tensors["dom"].item()

    sim_pos = float("nan")
    if settings.use_cl and prev_global is not None:
        with tt.no_grad():
            positive = model_forward(prev_global, batch, train=False).f_di.data
        negatives = [list(queue.get(uid, ())) for uid in batch.uids]
        tensors["cl"] = contrastive_loss(fw.f_di, positive, negatives, settings.tau)
        parts["cl"] = tensors["cl"].item()
        anchor = fw.f_di.data
        norms = np.linalg.norm(anchor, axis=1) * np.linalg.norm(positive, axis=1)
        ok = norms > 0
        sim_pos = float(((anchor * positive).sum(axis=1)[ok] / norms[ok]).mean()) if ok.any() else float("nan")

    total = total_loss(tensors, lambda_mi=settings.lambda_mi,
                       lambda_cl=settings.lambda_cl, ramp=ramp)

    if batch.truth is None:
        accuracy = float("nan")
    else:
        pred = np.argmax(fw.class_probs.data, axis=1)
        accuracy = float((pred == batch.truth).mean())
    return SiteObjective(total=total, estimator_objective=estimator_objective,
                         parts=parts, anchor=fw.f_di.data.copy(), accuracy=accuracy,
                         sim_pos=sim_pos)


def _check_finite(parts: dict, total: float, round_idx: int, site_id: str):
    if not np.isfinite(total):
        raise TrainingDiverged(round_idx, site_id, "total loss")
    for name, value in parts.items():
        if not np.isfinite(value):
            raise TrainingDiverged(round_idx, site_id, f"{name} loss")


def _receive_upload(upload: bytes, round_idx: int, site_id: str) -> ParamStore:
    """The parameters of a target's upload; a non-finite value raises
    TrainingDiverged."""
    received = wire.arrays_to_store(wire.decode_message(upload, wire.KIND_UPLOAD, round_idx).params)
    for name, t in received.items():
        if not np.isfinite(t.data).all():
            raise TrainingDiverged(round_idx, site_id, f"upload tensor {name!r}")
    return received


def _split_grads(theta: ParamStore, obj: SiteObjective) -> dict[str, np.ndarray]:
    """One gradient map covering disjoint parameter groups: the main
    objective drives every non-estimator parameter, the estimator's own
    maximization objective drives its parameters."""
    main_names, mine_names = param_groups(theta)
    grads = backward(obj.total, theta, main_names)
    if obj.estimator_objective is not None:
        grads.update(backward(obj.estimator_objective, theta, mine_names))
    return grads


def _site_step(state: SiteState, theta: ParamStore, round_idx: int,
               total_rounds: int, settings: TrainSettings):
    """One site's round on its batch: gradient map and metrics row (traffic
    columns zero). Only the training-mode normalization statistics in
    `theta` move; weight updates are left to the caller."""
    batch = select_batch(state, round_idx, settings)
    ramp = adversarial_ramp(round_idx / total_rounds, settings.gamma)
    key = (settings.seed, "drop", state.site_id, round_idx)
    obj = site_objective(theta, batch, role=state.role, ramp=ramp, settings=settings,
                         queue=state.queue, prev_global=state.prev_global, key=key)
    _check_finite(obj.parts, obj.total.item(), round_idx, state.site_id)
    grads = _split_grads(theta, obj)
    update_queue(state.queue, batch.uids, obj.anchor, settings.queue_len)
    parts = obj.parts
    row = {"round": round_idx, "site": state.site_id, "role": state.role,
           "L_C": parts["cls"], "L_MI": parts["mi"], "L_CL": parts["cl"],
           "L_DI": parts["dom"], "lambda_p": ramp,
           "lr": lr_at(settings.lr, round_idx, total_rounds), "acc": obj.accuracy,
           "bytes_up": 0, "bytes_down": 0, "sim_pos": obj.sim_pos}
    return grads, row


def _train_phase(state: SiteState, model: bytes, round_idx: int, total_rounds: int,
                 settings: TrainSettings):
    """A target's site step on this round's model message: its own copy of
    the model, its gradient map, its row (traffic so far: the model message)
    and the batch statistics its batch norms held back for the finish."""
    theta = wire.arrays_to_store(wire.decode_message(model, wire.KIND_MODEL, round_idx).params)
    with tt.hold_batch_stats() as held:
        grads, row = _site_step(state, theta, round_idx, total_rounds, settings)
    row["bytes_down"] = len(model)
    return theta, grads, row, held


def _check_central(theta: ParamStore, msg: wire.Message):
    """A central message holds exactly the model's running statistics, and
    gradients of trainable tensors only, each in its tensor's shape."""
    for name in theta.names():
        if is_running_stat(name) and name not in msg.params:
            raise wire.WireError(f"central message: no running statistic {name!r}")
    for what, entries, stats in (("running statistic", msg.params, True),
                                 ("trainable tensor", msg.grads, False)):
        for name, arr in entries.items():
            if name not in theta or is_running_stat(name) != stats:
                raise wire.WireError(f"central message: {name!r} is not a {what} of the model")
            if arr.shape != theta[name].shape:
                raise wire.WireError(f"central message: {name!r} has shape {arr.shape}, "
                                     f"not the model's {theta[name].shape}")


def _finish_phase(state: SiteState, trained: tuple, central: bytes, round_idx: int,
                  noise: NoiseSpec) -> tuple[bytes, dict]:
    """A trained target's update once the central message is in: the central
    running statistics with the held batch statistics folded in, in call
    order; the central gradient, if any, added to its own; the Adam step, the
    noise, and the upload bytes with the finished row. Only `state` moves."""
    theta, grads, row, held = trained
    msg = wire.decode_message(central, wire.KIND_CENTRAL, round_idx)
    _check_central(theta, msg)
    for name, arr in msg.params.items():
        theta[name].data[...] = arr
    for stats in held:
        tt.fold_batch_stats(*stats)
    grads = {name: g if name not in msg.grads else g + msg.grads[name]
             for name, g in grads.items()}
    adam_step(theta, state.adam, grads, row["lr"])
    noised = add_noise(theta, noise, state.site_id, round_idx)
    upload = wire.encode_message(wire.Message(round_idx=round_idx, kind=wire.KIND_UPLOAD,
                                              params=wire.store_to_arrays(noised)))
    row["bytes_up"] = len(upload)
    row["bytes_down"] += len(central)
    return upload, row


def run_targets(states: list[SiteState], model: bytes, central, round_idx: int,
                total_rounds: int, settings: TrainSettings, noise: NoiseSpec):
    """A share of target sites' round, from the model message they received
    to the uploads they send: every train phase, then `central()` for the
    central message's bytes, then every finish. Returns the upload bytes and
    rows of the targets that finished, in order, and the error that stopped
    the next one, or None. `central` is called after an error too, so the
    central message is always taken."""
    trained, error = until_error(
        lambda state: _train_phase(state, model, round_idx, total_rounds, settings), states)
    central_bytes = central()
    finished, finish_error = until_error(
        lambda done: _finish_phase(*done, central_bytes, round_idx, noise), zip(states, trained))
    # a failed finish comes before a failed train phase in site order
    return [upload for upload, _ in finished], [row for _, row in finished], finish_error or error


class _TargetWorkers:
    """A run's targets spread round robin over `processes` processes, the
    forked workers first: target i runs in worker i % processes, or in this
    process when that is processes - 1. So this process, which also runs the
    source step, gets the fewest targets, and at least one. With one process
    nothing forks.

    The workers are forked at the central message of the first round this
    object runs, after this process's training forward, and from then on
    each one holds its targets' states and counts rounds from that round.
    Per round a worker receives the model message and then the central
    message, and returns its targets' rows and error, then their uploads."""

    def __init__(self, targets: list[SiteState], processes: int, total_rounds: int,
                 settings: TrainSettings, noise: NoiseSpec):
        self.shares = [targets[k::processes] for k in range(processes)]
        self.step_args = (total_rounds, settings, noise)
        self.workers = None

    def run_round(self, round_idx: int, model: bytes, central_step) -> list:
        """Per target, in target order, its received upload and its row; the
        error of the first target that failed, in a phase or in the check of
        its upload, is raised instead. `central_step()` runs the source step
        and returns the central message, after this process's train phases."""
        forked = range(len(self.shares) - 1)
        if self.workers is not None:
            for k in forked:
                self.workers.send(k, model)

        def central() -> bytes:
            msg = central_step()
            if self.workers is None:
                self.workers = Workers(functools.partial(self._serve, round_idx), len(forked),
                                       "target worker")
                for k in forked:
                    self.workers.send(k, model)
            for k in forked:
                self.workers.send(k, msg)
            return msg

        def check_uploads(share, uploads, rows, error):
            done, bad = until_error(
                lambda sent: (_receive_upload(sent[1], round_idx, sent[0].site_id), sent[2]),
                zip(share, uploads, rows))
            return done, bad or error  # a bad upload comes before the share's error

        # this process's share first: its uploads decode while the workers finish
        here = check_uploads(self.shares[-1], *run_targets(self.shares[-1], model, central,
                                                           round_idx, *self.step_args))
        shares = []
        for k in forked:
            rows, error = self.workers.receive(k)
            uploads = [self.workers.receive(k, raw=True) for _ in rows]
            shares.append(check_uploads(self.shares[k], uploads, rows, error))
        return in_item_order(shares + [here])

    def _serve(self, first_round: int, k: int, conn):
        """Worker k's rounds, counted from the one it was forked in. The
        central message is read even after a train phase failed, so the
        parent's send of it never finds the pipe closed. The model's weights
        with the central running statistics are the next round's contrastive
        positive, decoded here once."""
        states = self.shares[k]
        received = []

        def central() -> bytes:
            received[:] = [conn.recv_bytes()]
            return received[0]

        for round_idx in itertools.count(first_round):
            try:
                model = conn.recv_bytes()
                uploads, rows, error = run_targets(states, model, central, round_idx,
                                                   *self.step_args)
                send_outcome(conn, f"target worker {k + 1}", (rows, error))
                for upload in uploads:
                    conn.send_bytes(upload)
            except (EOFError, BrokenPipeError):  # the parent closed its end, or died
                return
            if error is not None:
                return
            params = wire.decode_message(model, wire.KIND_MODEL, round_idx).params
            params.update(wire.decode_message(received[0], wire.KIND_CENTRAL, round_idx).params)
            prev_global = wire.arrays_to_store(params)
            for state in states:
                state.prev_global = prev_global

    def close(self):
        if self.workers is not None:
            self.workers.close()


def multi_site_round(theta_global: ParamStore, source: SiteState,
                     targets: list[SiteState], round_idx: int, total_rounds: int,
                     settings: TrainSettings, noise: NoiseSpec, workers: _TargetWorkers | None = None):
    """One federated iteration; returns the next global parameters and one
    metrics row per site. With `workers`, the targets it assigns to forked
    processes run there. An error of the source step is raised first; then
    an error of a target, or a received upload holding a non-finite value,
    is raised in site order, before any averaging."""
    if not targets:
        raise ValueError("multi_site_round: needs at least one local site")
    if workers is None:
        workers = _TargetWorkers(targets, 1, total_rounds, settings, noise)
    model = wire.encode_message(wire.Message(round_idx=round_idx, kind=wire.KIND_MODEL,
                                             params=wire.store_to_arrays(theta_global)))
    src_row = None

    def central_step() -> bytes:
        nonlocal src_row
        src_grads, src_row = _site_step(source, theta_global, round_idx, total_rounds, settings)
        central = wire.encode_message(wire.Message(
            round_idx=round_idx, kind=wire.KIND_CENTRAL,
            params={name: t.data for name, t in theta_global.items() if is_running_stat(name)},
            grads=src_grads if settings.broadcast_grads else {}))
        src_row["bytes_up"] = len(model) + len(central)
        return central

    received = workers.run_round(round_idx, model, central_step)
    rows = [src_row] + [row for _, row in received]
    src_row["bytes_down"] = sum(row["bytes_up"] for row in rows[1:])
    # the source step moved only theta_global's running statistics, after the
    # model message was encoded, and nothing writes to it after the central
    # message; it is the next contrastive positive of every site in this
    # process (a worker decodes its own), read only in evaluation mode
    for state in [source] + targets:
        state.prev_global = theta_global
    return aggregate([upload for upload, _ in received]), rows


def two_site_round(source: SiteState, target: SiteState, round_idx: int,
                   total_rounds: int, settings: TrainSettings):
    """The plain two-domain exchange: parameters and the source gradient go
    out, the updated parameters come back and replace the source's. No noise
    is injected on this path."""
    if source.theta is None:
        raise ValueError("two_site_round: source state must hold the model")
    new_theta, rows = multi_site_round(source.theta, source, [target], round_idx,
                                       total_rounds, settings, NoiseSpec(alpha=0.0))
    source.theta = new_theta
    return rows


# ---------------------------------------------------------------------------
# drivers


@dataclass
class TrainResult:
    theta: ParamStore
    metrics: list[dict]


def run_training(settings: TrainSettings, datasets: list[SiteDataset],
                 roles: dict[str, str], on_round=None) -> TrainResult:
    """Full multi-site run from a fresh model; `on_round(round, theta)` fires
    after every aggregation."""
    theta = init_theta(datasets[0].n_rois, settings.seed)
    source, targets = build_states(datasets, roles, theta)
    noise = NoiseSpec(alpha=settings.alpha, key=(settings.seed, "noise"))
    workers = _TargetWorkers(targets, process_count(len(targets)), settings.rounds,
                             settings, noise)
    metrics = []
    try:
        for round_idx in range(settings.rounds):
            theta, rows = multi_site_round(theta, source, targets, round_idx,
                                           settings.rounds, settings, noise, workers)
            metrics.extend(rows)
            if on_round is not None:
                on_round(round_idx, theta)
    finally:
        workers.close()
    return TrainResult(theta=theta, metrics=metrics)


def train_source_only(settings: TrainSettings, dataset: SiteDataset) -> ParamStore:
    """No-federation baseline: the same architecture trained with the
    classification loss alone on the source data, same budget and schedule."""
    theta = init_theta(dataset.n_rois, settings.seed)
    local = TrainSettings(seed=settings.seed, rounds=settings.rounds,
                          lr=settings.lr, batch_denom=settings.batch_denom,
                          use_rd=False, use_dat=False, use_cl=False, queue_len=0)
    state = SiteState(site_id=dataset.site_id, role=ROLE_SOURCE, dataset=dataset,
                      adam=Adam(names=param_groups(theta)[0]))
    for round_idx in range(local.rounds):
        grads, row = _site_step(state, theta, round_idx, local.rounds, local)
        adam_step(theta, state.adam, grads, row["lr"])
    return theta


def dataset_predictions(theta: ParamStore, dataset: SiteDataset):
    """(predicted classes, true classes) of every window in evaluation mode;
    the true classes are the site's `truth`."""
    if dataset.truth is None:
        raise ValueError(f"site {dataset.site_id}: no labels available for accuracy")
    probs = eval_class_probs(theta, dataset.features, dataset.propagation)
    return np.argmax(probs, axis=1), dataset.truth


def dataset_accuracy(theta: ParamStore, dataset: SiteDataset) -> float:
    """Window accuracy of the model on a dataset in evaluation mode."""
    preds, labels = dataset_predictions(theta, dataset)
    return float((preds == labels).mean())
