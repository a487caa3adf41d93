"""Federated rounds: noise, aggregation, the contrastive queue, protocol
equivalence, determinism, and the privacy boundary."""

import copy
import hashlib
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import edge_array
from dafed import fedsim, rng, wire
from dafed import tensor as tt
from dafed.data import SynthConfig, SynthSite, synth_multisite
from dafed.fedsim import (NoiseSpec, SiteState, TrainSettings, add_noise, aggregate,
                          build_states, contrastive_loss, dataset_accuracy,
                          multi_site_round, run_training, select_batch, site_objective,
                          train_source_only, two_site_round, update_queue)
from dafed.network import init_theta, param_groups
from dafed.optim import Adam, LrProfile, ParamStore, is_running_stat
from dafed.tensor import Tensor


def _store(**arrays):
    s = ParamStore()
    for k, v in arrays.items():
        s.add(k, np.asarray(v, dtype=np.float64))
    return s


# ---------------------------------------------------------------------------
# noise


def test_zero_noise_is_bitwise_identity():
    theta = init_theta(6, seed=0)
    out = add_noise(theta, NoiseSpec(alpha=0.0))
    for name, t in theta.items():
        assert np.array_equal(out[name].data, t.data)


def test_constant_tensor_passes_through():
    theta = _store(w=np.full((4, 4), 2.5))
    out = add_noise(theta, NoiseSpec(alpha=0.1, key=("t",)), "site", 0)
    assert np.array_equal(out["w"].data, theta["w"].data)


def test_noise_std_tracks_parameter_spread():
    g = np.random.default_rng(0)
    values = g.standard_normal(1_000_000) * 2.0
    theta = _store(w=values)
    out = add_noise(theta, NoiseSpec(alpha=0.01, key=("mc",)), "site", 0)
    sigma_w = values.std()
    noise = out["w"].data - values
    assert abs(noise.std() / (0.01 * sigma_w) - 1.0) < 0.01


def test_noise_is_seeded_per_site_round():
    theta = _store(w=np.linspace(0, 1, 50))
    a = add_noise(theta, NoiseSpec(alpha=0.05, key=("k",)), "s1", 3)
    b = add_noise(theta, NoiseSpec(alpha=0.05, key=("k",)), "s1", 3)
    c = add_noise(theta, NoiseSpec(alpha=0.05, key=("k",)), "s1", 4)
    assert np.array_equal(a["w"].data, b["w"].data)
    assert not np.array_equal(a["w"].data, c["w"].data)


def _old_add_noise(theta, spec, *extra_key):
    """Noise added out of place on a full copy, as `t.data + noise`."""
    out = theta.copy()
    for name, t in out.items():
        sigma = float(t.data.std())
        if is_running_stat(name) or sigma == 0.0:
            continue
        noise = rng.stream(*spec.key, *extra_key, name).normal(0.0, spec.alpha * sigma, t.shape)
        t.data[...] = t.data + noise
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("seed", range(4))
def test_add_noise_is_bitwise(seed):
    g = np.random.default_rng(seed)
    theta = _store(a=edge_array((5, 6), seed), b=np.where(g.random(40) < 0.5, -0.0, 2.2e-308),
                   c=edge_array((3,), seed + 1) * 0.0, d=g.standard_normal((4, 3)) * 1e-310,
                   e=np.full(3, -0.0), **{"bn.running_var": g.standard_normal(3)})
    before = {n: t.data.tobytes() for n, t in theta.items()}
    spec = NoiseSpec(alpha=0.05, key=("edge", seed))
    got, want = add_noise(theta, spec, "site", 1), _old_add_noise(theta, spec, "site", 1)
    for name in theta.names():
        assert got[name].data.tobytes() == want[name].data.tobytes(), name
        assert theta[name].data.tobytes() == before[name]  # the input stays as it was


def test_negative_alpha_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(alpha=-0.1)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_identical_is_exact_fixed_point():
    theta = init_theta(5, seed=2)
    out = aggregate([theta.copy(), theta.copy(), theta.copy()])
    for name, t in theta.items():
        assert np.array_equal(out[name].data, t.data)


def test_aggregate_opposites_cancel():
    a = _store(w=np.array([1.0, -2.0, 0.5]))
    b = _store(w=np.array([-1.0, 2.0, -0.5]))
    out = aggregate([a, b])
    assert np.array_equal(out["w"].data, np.zeros(3))


def test_aggregate_matches_mean_oracle():
    g = np.random.default_rng(1)
    stores = [_store(w=g.standard_normal((6, 7)), b=g.standard_normal(4)) for _ in range(3)]
    out = aggregate(stores)
    for name in ("w", "b"):
        oracle = np.mean([s[name].data for s in stores], axis=0)
        assert np.max(np.abs(out[name].data - oracle)) < 1e-15


def test_aggregate_rejects_mismatched_names():
    with pytest.raises(ValueError, match="name set"):
        aggregate([_store(w=[1.0]), _store(v=[1.0])])
    with pytest.raises(ValueError, match="shape"):
        aggregate([_store(w=[1.0]), _store(w=[[1.0]])])


# ---------------------------------------------------------------------------
# contrastive module


def test_contrastive_empty_queue_is_zero():
    anchor = Tensor(np.random.default_rng(2).standard_normal((5, 8)))
    loss = contrastive_loss(anchor, anchor.data.copy(), [[] for _ in range(5)], tau=0.5)
    assert loss.item() == 0.0


def test_contrastive_equal_similarities_is_log_six():
    v = np.random.default_rng(3).standard_normal(8)
    anchor = Tensor(np.tile(v, (3, 1)))
    negatives = [[v.copy() for _ in range(5)] for _ in range(3)]
    loss = contrastive_loss(anchor, np.tile(v, (3, 1)), negatives, tau=0.5)
    assert loss.item() == pytest.approx(math.log(6.0), abs=1e-9)


def test_contrastive_hand_case_opposed_negatives():
    # sim(anchor, positive)=1 and five negatives at -1, tau=0.5:
    # -ln(e^2 / (e^2 + 5 e^-2)) = ln(1 + 5 e^-4)
    v = np.ones(4)
    anchor = Tensor(v[None])
    loss = contrastive_loss(anchor, v[None].copy(), [[-v for _ in range(5)]], tau=0.5)
    assert loss.item() == pytest.approx(math.log(1.0 + 5.0 * math.exp(-4.0)), abs=1e-12)
    assert loss.item() == pytest.approx(0.08762453387721723, abs=1e-12)


def test_contrastive_mixed_queue_lengths():
    g = np.random.default_rng(4)
    anchor = Tensor(g.standard_normal((4, 6)))
    positive = g.standard_normal((4, 6))
    negatives = [[], [g.standard_normal(6)], [], [g.standard_normal(6) for _ in range(3)]]
    loss = contrastive_loss(anchor, positive, negatives, tau=0.5).item()
    # independent per-sample oracle
    expected = 0.0
    for i in range(4):
        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        sp = cos(anchor.data[i], positive[i]) / 0.5
        sims = [sp] + [cos(anchor.data[i], n) / 0.5 for n in negatives[i]]
        expected += -sp + math.log(sum(math.exp(s) for s in sims))
    assert loss == pytest.approx(expected / 4, abs=1e-12)


def test_contrastive_rejects_bad_temperature():
    anchor = Tensor(np.ones((1, 2)))
    with pytest.raises(ValueError):
        contrastive_loss(anchor, np.ones((1, 2)), [[]], tau=0.0)


def test_update_queue_fifo_eviction():
    queue = {}
    snaps = [np.full(3, float(i)) for i in range(8)]
    for i in range(8):
        update_queue(queue, ["u"], snaps[i][None], capacity=5)
    held = list(queue["u"])
    assert len(held) == 5
    assert np.array_equal(held[0], np.full(3, 3.0))  # oldest three evicted
    assert np.array_equal(held[-1], np.full(3, 7.0))


def test_update_queue_zero_capacity_stays_empty():
    queue = {}
    update_queue(queue, ["u"], np.ones((1, 3)), capacity=0)
    assert len(queue["u"]) == 0


# ---------------------------------------------------------------------------
# protocol rounds


def _tiny_datasets(seed=0, subjects=4, shift=0.35):
    cfg = SynthConfig(
        sites=[SynthSite("central", subjects, True, 0.0),
               SynthSite("edge", subjects, False, shift)],
        n_rois=10, t=24, class_sep=0.6, window=20, top_k=3)
    return synth_multisite(cfg, seed=seed)


def _settings(**kw):
    base = dict(seed=0, rounds=4, alpha=0.0, queue_len=3,
                lr=LrProfile("decay", 0.005, 0.99))
    base.update(kw)
    return TrainSettings(**base)


def _roles():
    return {"central": "source", "edge": "target_unlabeled"}


def _rows_equal(a, b):
    if a.keys() != b.keys():
        return False
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, float) and isinstance(vb, float) and math.isnan(va) and math.isnan(vb):
            continue
        if va != vb:
            return False
    return True


def test_run_training_is_deterministic():
    outputs = []
    for _ in range(2):
        res = run_training(_settings(), _tiny_datasets(), _roles())
        outputs.append(res)
    for name in outputs[0].theta.names():
        assert np.array_equal(outputs[0].theta[name].data, outputs[1].theta[name].data)
    assert all(_rows_equal(ra, rb) for ra, rb in zip(outputs[0].metrics, outputs[1].metrics))


def test_metric_rows_cover_every_site_and_stay_finite():
    res = run_training(_settings(), _tiny_datasets(), _roles())
    assert len(res.metrics) == 4 * 2
    for row in res.metrics:
        for part in ("L_C", "L_MI", "L_CL", "L_DI", "lambda_p", "lr"):
            assert np.isfinite(row[part])
    target_rows = [r for r in res.metrics if r["site"] == "edge"]
    assert all(r["bytes_up"] > 0 and r["bytes_down"] > 0 for r in target_rows)
    assert all(r["L_C"] == 0.0 for r in target_rows)  # unlabeled role has no class term
    assert all(r["role"] == "target_unlabeled" for r in target_rows)


def test_first_round_has_no_contrastive_term():
    res = run_training(_settings(use_cl=True), _tiny_datasets(), _roles())
    first = [r for r in res.metrics if r["round"] == 0]
    later = [r for r in res.metrics if r["round"] >= 2]
    assert all(r["L_CL"] == 0.0 for r in first)
    assert any(r["L_CL"] != 0.0 for r in later)


def test_two_site_matches_single_target_multi_site():
    datasets = _tiny_datasets()
    settings = _settings(rounds=10)
    roles = _roles()

    # path A: explicit two-site exchange
    theta_a = init_theta(10, settings.seed)
    source_a, targets_a = build_states(datasets, roles, theta_a)
    source_a.theta = theta_a
    for t in range(10):
        two_site_round(source_a, targets_a[0], t, 10, settings)

    # path B: the multi-site driver with K=1 and zero noise
    res_b = run_training(settings, datasets, roles)

    for name in source_a.theta.names():
        assert np.array_equal(source_a.theta[name].data, res_b.theta[name].data), name


def test_aggregation_of_identical_uploads_is_noop_in_round():
    # two target states over the same data and the same site id produce
    # identical uploads; the averaged global must equal either one
    datasets = _tiny_datasets()
    settings = _settings(rounds=1)
    theta = init_theta(10, settings.seed)
    roles = _roles()
    source, targets = build_states(datasets, roles, theta)
    clone = SiteState(site_id=targets[0].site_id, role=targets[0].role,
                      dataset=targets[0].dataset,
                      adam=Adam(names=targets[0].adam.names))
    new_one, _ = multi_site_round(theta.copy(), source, [targets[0]], 0, 1,
                                  settings, NoiseSpec(alpha=0.0))
    source2, targets2 = build_states(datasets, roles, init_theta(10, settings.seed))
    new_two, _ = multi_site_round(theta.copy(), source2, [targets2[0], clone], 0, 1,
                                  settings, NoiseSpec(alpha=0.0))
    for name in new_one.names():
        assert np.array_equal(new_one[name].data, new_two[name].data)


def _two_target_world():
    datasets = _tiny_datasets()
    datasets.append(synth_multisite(SynthConfig(
        sites=[SynthSite("edge2", 4, False, 0.5)], n_rois=10, t=24, class_sep=0.6,
        window=20, top_k=3), seed=1)[0])
    return datasets, dict(_roles(), edge2="target_unlabeled")


def test_target_uploads_do_not_depend_on_the_target_order(monkeypatch):
    datasets, roles = _two_target_world()
    settings = _settings(rounds=2, alpha=0.01)
    noise = NoiseSpec(alpha=settings.alpha, key=(settings.seed, "noise"))
    theta = init_theta(10, settings.seed)
    source, targets = build_states(datasets, roles, theta)
    theta, _ = multi_site_round(theta, source, targets, 0, 2, settings, noise)
    before = copy.deepcopy(targets)

    sent = {}
    real_encode = wire.encode_message

    def capture(msg):
        buf = real_encode(msg)
        sent.setdefault(msg.kind, []).append(buf)
        return buf

    monkeypatch.setattr(wire, "encode_message", capture)
    multi_site_round(theta, source, targets, 1, 2, settings, noise)
    monkeypatch.undo()
    [broadcast] = sent[wire.KIND_BROADCAST]

    def uploads(states):
        return {s.site_id: fedsim.target_step(copy.deepcopy(s), broadcast, 1, 2, settings,
                                              noise)[0] for s in states}

    in_order, reversed_order = uploads(before), uploads(before[::-1])
    assert in_order == reversed_order
    # in the round the targets share one decoded `prev_global`; their copies do not
    assert list(in_order.values()) == sent[wire.KIND_UPLOAD]
    assert in_order["edge"] != in_order["edge2"]


def test_sites_keep_the_broadcast_model_and_each_message_is_decoded_once(monkeypatch):
    datasets, roles = _two_target_world()
    settings = _settings(rounds=2, alpha=0.01)
    noise = NoiseSpec(alpha=settings.alpha, key=(settings.seed, "noise"))
    theta = init_theta(10, settings.seed)
    source, targets = build_states(datasets, roles, theta)
    sent, decoded = {}, []
    real_encode, real_decode = wire.encode_message, wire.decode_message

    def capture(msg):
        buf = real_encode(msg)
        sent.setdefault(msg.kind, []).append(buf)
        return buf

    def counted(buf, kind, round_idx):
        decoded.append(buf)
        return real_decode(buf, kind, round_idx)

    monkeypatch.setattr(wire, "encode_message", capture)
    monkeypatch.setattr(wire, "decode_message", counted)
    multi_site_round(theta, source, targets, 0, 2, settings, noise)
    # each target decodes the broadcast, the server decodes each upload
    assert len(decoded) == 2 * len(targets)
    [broadcast] = sent[wire.KIND_BROADCAST]
    want = real_decode(broadcast, wire.KIND_BROADCAST, 0).params
    for state in [source] + targets:
        assert set(state.prev_global.names()) == set(want)
        for name, arr in want.items():
            assert state.prev_global[name].data.tobytes() == arr.tobytes(), name


def test_target_step_refuses_an_upload_and_an_earlier_broadcast():
    datasets = _tiny_datasets()
    settings = _settings(rounds=2)
    noise = NoiseSpec(alpha=0.0)
    theta = init_theta(10, settings.seed)
    _, [target] = build_states(datasets, _roles(), theta)
    broadcast = wire.encode_message(wire.Message(
        round_idx=0, kind=wire.KIND_BROADCAST, params=wire.store_to_arrays(theta)))
    upload, _ = fedsim.target_step(target, broadcast, 0, 2, settings, noise)
    with pytest.raises(wire.WireError, match="payload kind 1 where kind 0 is expected"):
        fedsim.target_step(target, upload, 0, 2, settings, noise)
    with pytest.raises(wire.WireError, match="message of round 0 where round 1 is expected"):
        fedsim.target_step(target, broadcast, 1, 2, settings, noise)


def test_training_calls_the_benchmarked_hooks_through_the_module(monkeypatch):
    # perfbench stamps round starts and times the noise by rebinding these attributes
    rounds, noised = [], []
    real_round, real_noise = fedsim.multi_site_round, fedsim.add_noise

    def counted_round(*args, **kwargs):
        rounds.append(args[3])
        return real_round(*args, **kwargs)

    def counted_noise(theta, spec, site_id, round_idx):
        noised.append((site_id, round_idx))
        return real_noise(theta, spec, site_id, round_idx)

    monkeypatch.setattr(fedsim, "multi_site_round", counted_round)
    monkeypatch.setattr(fedsim, "add_noise", counted_noise)
    run_training(_settings(rounds=3, alpha=0.01), *_two_target_world())
    assert rounds == [0, 1, 2]
    assert noised == [(site, r) for r in range(3) for site in ("edge", "edge2")]


def _full_sweep_gradients(loss, wrt):
    """Reverse sweep that calls every VJP on the tape, constant inputs
    included: the reference for the pruned sweep."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tt._topo_order(loss)):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            pg = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [grads.get(id(t), np.zeros(t.shape)) for t in wrt]


def _count_leaf_vjps(roots, calls):
    """Wrap every VJP into a leaf on the tape under `roots`, once per node
    however many roots share it, so that each call appends the leaf to
    `calls`; returns the leaves."""
    def counted(leaf, vjp):
        def call(g):
            calls.append(leaf)
            return vjp(g)
        return call

    leaves, seen = [], set()
    for root in roots:
        for node in tt._topo_order(root):
            if id(node) in seen:
                continue
            seen.add(id(node))
            leaves += [p for p, _ in node.parents if p.op == "leaf"]
            node.parents = tuple((p, counted(p, vjp)) if p.op == "leaf" else (p, vjp)
                                 for p, vjp in node.parents)
    return leaves


@pytest.mark.parametrize("site", [0, 1])
def test_backward_calls_no_vjp_into_constants_and_matches_full_sweep(site, monkeypatch):
    datasets = _tiny_datasets()
    settings = _settings(rounds=2)
    theta = init_theta(10, settings.seed)
    source, targets = build_states(datasets, _roles(), theta)
    theta, _ = multi_site_round(theta, source, targets, 0, 2, settings, NoiseSpec(alpha=0.0))
    state = [source, targets[0]][site]
    batch = select_batch(state, 1, settings)
    for i, uid in enumerate(batch.uids):  # every sample has contrastive negatives
        update_queue(state.queue, [uid], rng.stream("negatives", i).standard_normal((1, 128)), 3)
    obj = site_objective(theta, batch, role=state.role, ramp=0.5, settings=settings,
                         queue=state.queue, prev_global=state.prev_global,
                         key=(0, "drop", state.site_id, 1))
    main_names, mine_names = param_groups(theta)
    want = dict(zip(main_names, _full_sweep_gradients(obj.total, [theta[n] for n in main_names])))
    want.update(zip(mine_names, _full_sweep_gradients(obj.estimator_objective,
                                                      [theta[n] for n in mine_names])))
    # the two objectives share one tape: count the leaf VJPs of each backward call
    calls, per_backward = [], []

    def counted_backward(loss, store, names=None):
        calls.clear()
        out = tt.backward(loss, store, names)
        per_backward.append(list(calls))
        return out

    leaves = _count_leaf_vjps([obj.total, obj.estimator_objective], calls)
    monkeypatch.setattr(fedsim, "backward", counted_backward)
    grads = fedsim._split_grads(theta, obj)
    main_calls, mine_calls = per_backward

    params = {id(theta[n]): n for n in theta.names()}
    assert any(id(leaf) not in params for leaf in leaves)  # the tape holds constants
    assert [leaf for leaf in main_calls + mine_calls if id(leaf) not in params] == []
    assert {params[id(leaf)] for leaf in main_calls} <= set(main_names)
    assert {params[id(leaf)] for leaf in mine_calls} == set(mine_names)
    assert list(grads) == list(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


def test_upload_bytes_never_contain_raw_sample_rows():
    datasets = _tiny_datasets()
    settings = _settings(rounds=2, alpha=0.01)
    theta = init_theta(10, settings.seed)
    source, targets = build_states(datasets, roles := _roles(), theta)
    noise = NoiseSpec(alpha=settings.alpha, key=(settings.seed, "noise"))

    captured = []
    original_encode = wire.encode_message

    def capture(msg):
        buf = original_encode(msg)
        if msg.kind == wire.KIND_UPLOAD:
            captured.append(buf)
        return buf

    fedsim.wire.encode_message = capture
    try:
        for t in range(2):
            theta, _ = multi_site_round(theta, source, targets, t, 2, settings, noise)
    finally:
        fedsim.wire.encode_message = original_encode

    assert captured
    g = np.random.default_rng(0)
    all_samples = [s for ds in datasets for s in ds.samples]
    picks = g.choice(len(all_samples), size=min(100, len(all_samples)), replace=False)
    blob = b"".join(captured)
    for i in picks:
        sample = all_samples[i]
        row = np.ascontiguousarray(sample.features[0], dtype="<f8").tobytes()
        assert blob.find(row) == -1


def test_contrastive_positive_pull_increases():
    settings = _settings(rounds=14, lambda_cl=0.1, queue_len=3,
                         lr=LrProfile("decay", 0.005, 1.0))
    res = run_training(settings, _tiny_datasets(subjects=5), _roles())
    sims = [r["sim_pos"] for r in res.metrics
            if r["site"] == "edge" and not np.isnan(r["sim_pos"])]
    assert len(sims) >= 10
    assert np.mean(sims[-5:]) > sims[0] - 1e-9


def test_diverged_training_raises_with_location():
    with pytest.raises(fedsim.TrainingDiverged) as exc:
        fedsim._check_finite({"cls": float("nan"), "mi": 0.0, "cl": 0.0, "dom": 0.0},
                             1.0, 5, "edge")
    assert exc.value.round_idx == 5 and exc.value.site_id == "edge"
    with pytest.raises(fedsim.TrainingDiverged, match="total"):
        fedsim._check_finite({"cls": 0.0, "mi": 0.0, "cl": 0.0, "dom": 0.0},
                             float("inf"), 2, "central")


def test_non_finite_upload_raises_with_site_and_round(monkeypatch):
    real = fedsim.add_noise

    def nan_noise(theta, spec, site_id, round_idx):
        out = real(theta, spec, site_id, round_idx)
        if round_idx == 2:
            out["clf.fc2.b"].data[0] = float("nan")
        return out

    monkeypatch.setattr(fedsim, "add_noise", nan_noise)
    with pytest.raises(fedsim.TrainingDiverged) as exc:
        run_training(_settings(), _tiny_datasets(), _roles())
    assert (exc.value.round_idx, exc.value.site_id) == (2, "edge")
    assert str(exc.value) == "non-finite upload tensor 'clf.fc2.b' at round 2, site edge"


def test_constant_central_loss_mode_changes_updates(monkeypatch):
    # with gradient broadcast off, the broadcast carries no central gradient
    # map and sites train on their local objective alone
    datasets = _tiny_datasets()
    grads_sent = []
    real_encode = wire.encode_message

    def capture(msg):
        buf = real_encode(msg)
        if msg.kind == wire.KIND_BROADCAST:
            grads_sent.append(wire.decode_message(buf, msg.kind, msg.round_idx).grads)
        return buf

    monkeypatch.setattr(wire, "encode_message", capture)
    res_on = run_training(_settings(rounds=3), datasets, _roles())
    assert len(grads_sent) == 3 and all(grads_sent)
    grads_sent.clear()
    res_off = run_training(_settings(rounds=3, broadcast_grads=False), datasets, _roles())
    assert grads_sent == [{}, {}, {}]
    monkeypatch.undo()
    differs = any(not np.array_equal(res_on.theta[n].data, res_off.theta[n].data)
                  for n in res_on.theta.names())
    assert differs
    again = run_training(_settings(rounds=3, broadcast_grads=False), datasets, _roles())
    for n in res_off.theta.names():
        assert np.array_equal(res_off.theta[n].data, again.theta[n].data)


def test_source_only_baseline_trains_and_scores():
    datasets = _tiny_datasets(subjects=6)
    settings = _settings(rounds=6)
    theta = train_source_only(settings, datasets[0])
    acc = dataset_accuracy(theta, datasets[0])
    assert 0.0 <= acc <= 1.0
    acc_t = dataset_accuracy(theta, datasets[1])  # hidden labels drive the metric
    assert 0.0 <= acc_t <= 1.0


def test_select_batch_is_deterministic_and_sized():
    datasets = _tiny_datasets(subjects=6)
    settings = _settings()
    theta = init_theta(10, 0)
    source, _ = build_states(datasets, _roles(), theta)
    b1 = select_batch(source, 3, settings)
    b2 = select_batch(source, 3, settings)
    assert b1.uids == b2.uids
    n = len(datasets[0].samples)
    assert b1.size == max(2, n // settings.batch_denom)
    b3 = select_batch(source, 4, settings)
    assert b1.uids != b3.uids


def test_build_states_validates_roles():
    datasets = _tiny_datasets()
    theta = init_theta(10, 0)
    with pytest.raises(ValueError, match="exactly one source"):
        build_states(datasets, {"central": "target_unlabeled", "edge": "target_unlabeled"}, theta)
    with pytest.raises(ValueError, match="needs labels"):
        build_states(datasets, {"central": "target_unlabeled", "edge": "source"}, theta)


def _params_digest(theta):
    return hashlib.sha256(b"".join(theta[n].data.tobytes() for n in theta.names())).hexdigest()


def _rows_digest(rows):
    lines = [",".join(f"{k}={v}" if isinstance(v, str) else f"{k}={float(v)!r}"
                      for k, v in sorted(row.items())) for row in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# recorded before the per-site training step was shared by the source, the
# targets and the source-only baseline; any drift in a single bit fails here.
# PINNED_ROWS was re-recorded for wire version 2: only bytes_up/bytes_down moved
PINNED_PARAMS = "875e0566e0644c43a093ab8d24d42bf8132b741964d4d98e3e62d1fba645e878"
PINNED_ROWS = "7cde8d88486f541381432ceb44d793b933059deef1f17bee04e47b8e76bfee0a"
PINNED_SOURCE_ONLY = "8ccd6cc5306adc96baeeea3e4b19aee972dba4c7476e13bfd69982e64ca3e1cc"


def test_training_trajectory_is_pinned():
    datasets = _tiny_datasets()
    res = run_training(_settings(alpha=0.01), datasets, _roles())
    baseline = train_source_only(_settings(), datasets[0])
    assert (_params_digest(res.theta), _rows_digest(res.metrics),
            _params_digest(baseline)) == (PINNED_PARAMS, PINNED_ROWS, PINNED_SOURCE_ONLY)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_training_trajectory_is_pinned_for_blas_threads(threads):
    # OpenBLAS reads its thread count once, at load, so each count needs its
    # own process
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_training_trajectory_is_pinned"],
        cwd=Path(__file__).resolve().parent.parent, env=env,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 passed" in proc.stdout


# ---------------------------------------------------------------------------
# targets in forked workers


def _three_target_world():
    sites = [SynthSite("central", 4, True, 0.0)] + [
        SynthSite(f"edge{i}", 3, False, 0.3 + 0.1 * i) for i in range(3)]
    datasets = synth_multisite(SynthConfig(sites=sites, n_rois=10, t=24, class_sep=0.6,
                                           window=20, top_k=3), seed=2)
    roles = {"central": "source", **{f"edge{i}": "target_unlabeled" for i in range(3)}}
    return datasets, roles


def test_training_outputs_do_not_depend_on_the_process_count(monkeypatch):
    # with 2 processes the worker runs edge0 and edge2, with 3 each of two
    # workers runs one target; this process always runs at least one
    datasets, roles = _three_target_world()
    parent = os.getpid()
    ran_here = {}
    real_step = fedsim.target_step

    def recorded_step(state, *args):
        if os.getpid() == parent:
            ran_here.setdefault(processes, set()).add(state.site_id)
        return real_step(state, *args)

    monkeypatch.setattr(fedsim, "target_step", recorded_step)
    outputs = {}
    for processes in (1, 2, 3):
        monkeypatch.setattr(fedsim, "process_count", lambda n, p=processes: p)
        res = run_training(_settings(rounds=4, alpha=0.01), datasets, roles)
        assert multiprocessing.active_children() == []
        outputs[processes] = (_params_digest(res.theta), _rows_digest(res.metrics))
    assert ran_here == {1: {"edge0", "edge1", "edge2"}, 2: {"edge1"}, 3: {"edge2"}}
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


def test_training_diverged_survives_pickling():
    err = pickle.loads(pickle.dumps(fedsim.TrainingDiverged(3, "edge0", "total loss")))
    assert type(err) is fedsim.TrainingDiverged
    assert (err.round_idx, err.site_id, str(err)) == (3, "edge0",
                                                      "non-finite total loss at round 3, site edge0")


@pytest.mark.parametrize("diverging", [{"edge0"}, {"edge1", "edge2"}, {"edge0", "edge1"}],
                         ids=["worker", "here-before-worker", "worker-before-here"])
def test_a_worker_divergence_is_raised_in_site_order(monkeypatch, diverging):
    # with 2 processes edge0 and edge2 run in the worker, edge1 here; every
    # process count raises the serial run's error
    datasets, roles = _three_target_world()
    real_objective = fedsim.site_objective

    def diverging_objective(*args, key, **kwargs):
        obj = real_objective(*args, key=key, **kwargs)
        if key[2] in diverging and key[3] == 2:
            obj.parts["mi"] = float("nan")
        return obj

    monkeypatch.setattr(fedsim, "site_objective", diverging_objective)
    raised = {}
    for processes in (1, 2, 3):
        monkeypatch.setattr(fedsim, "process_count", lambda n, p=processes: p)
        with pytest.raises(fedsim.TrainingDiverged) as exc:
            run_training(_settings(rounds=4), datasets, roles)
        assert multiprocessing.active_children() == []
        raised[processes] = (exc.value.round_idx, exc.value.site_id, str(exc.value))
    assert raised[1] == (2, min(diverging), f"non-finite mi loss at round 2, site {min(diverging)}")
    assert raised[2] == raised[1] and raised[3] == raised[1]


def test_a_non_finite_upload_from_a_worker_is_raised_with_its_site(monkeypatch):
    datasets, roles = _three_target_world()
    real = fedsim.add_noise

    def nan_noise(theta, spec, site_id, round_idx):
        out = real(theta, spec, site_id, round_idx)
        if (site_id, round_idx) == ("edge2", 1):
            out["clf.fc2.b"].data[0] = float("nan")
        return out

    monkeypatch.setattr(fedsim, "add_noise", nan_noise)
    monkeypatch.setattr(fedsim, "process_count", lambda n: 2)
    with pytest.raises(fedsim.TrainingDiverged,
                       match="non-finite upload tensor 'clf.fc2.b' at round 1, site edge2"):
        run_training(_settings(rounds=3, alpha=0.01), datasets, roles)
    assert multiprocessing.active_children() == []

