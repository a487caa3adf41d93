"""Graph feature generator, disentangler with dependence estimator, fusion
heads, and the assembled network."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dafed import cli, data, fusion, network, rng, stfg
from dafed.config import parse_config
from dafed import tensor as tt
from dafed.data import SynthConfig, SynthSite, synth_multisite
from dafed.disentangle import (disentangle_forward, dv_estimate, marginal_permutation,
                               mi_loss, mine_estimate)
from dafed.tensor import Tensor
from conftest import max_rel_error, normalize_adjacency_oracle, numeric_grads


@pytest.fixture(scope="module")
def theta12():
    return network.init_theta(12, seed=0)


# ---------------------------------------------------------------------------
# graph convolution stack


def test_normalize_zero_adjacency_is_identity():
    s = stfg.normalize_adjacency(np.zeros((5, 5)))
    assert np.array_equal(s, np.eye(5))


def test_gcn_propagate_no_edges_reduces_to_linear_map():
    h = np.random.default_rng(0).standard_normal((1, 4, 4))
    w = np.random.default_rng(1).standard_normal((4, 3))
    s = np.broadcast_to(stfg.normalize_adjacency(np.zeros((4, 4))), (1, 4, 4)).copy()
    out = stfg.gcn_propagate(Tensor(h), Tensor(s), Tensor(w))
    assert np.allclose(out.data, h @ w, atol=1e-15)


def test_gcn_propagate_two_node_hand_case():
    s = stfg.normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = stfg.gcn_propagate(Tensor(np.eye(2)[None]), Tensor(s[None]), Tensor(np.eye(2)))
    assert np.allclose(out.data[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_gcn_propagate_matches_dense_oracle():
    g = np.random.default_rng(5)
    adj = np.abs(g.standard_normal((6, 6)))
    adj = (adj + adj.T) / 2
    np.fill_diagonal(adj, 0.0)
    h = g.standard_normal((6, 4))
    w = g.standard_normal((4, 3))
    a_tilde = adj + np.eye(6)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    expect = d_inv_sqrt @ a_tilde @ d_inv_sqrt @ h @ w
    got = stfg.gcn_propagate(Tensor(h[None]), Tensor(stfg.normalize_adjacency(adj)[None]),
                             Tensor(w))
    assert np.max(np.abs(got.data[0] - expect)) < 1e-12


def test_normalize_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        stfg.normalize_adjacency(bad)


def _adjacency_stacks():
    g = np.random.default_rng(11)
    fc = g.standard_normal((7, 9, 9))
    random = data.top_k_adjacency(fc + np.swapaxes(fc, -1, -2), 3)
    tied = np.full((4, 6, 6), 0.7) * (1.0 - np.eye(6))
    isolated = np.abs(g.standard_normal((5, 8, 8)))
    isolated = np.maximum(isolated, np.swapaxes(isolated, -1, -2)) * (1.0 - np.eye(8))
    isolated[:, 3, :] = isolated[:, :, 3] = 0.0
    single = np.zeros((3, 5, 5))
    single[:, 1, 4] = single[:, 4, 1] = [0.25, 1.0, 3.5]
    return {"random": random, "all-zero": np.zeros((6, 5, 5)), "tied": tied,
            "isolated-node": isolated, "single-edge": single, "one-matrix": random[0],
            "two-leading-axes": random[:6].reshape(2, 3, 9, 9)}


@pytest.mark.parametrize("kind", list(_adjacency_stacks()))
def test_normalize_adjacency_stack_matches_per_matrix_oracle_bytes(kind):
    adj = _adjacency_stacks()[kind]
    r = adj.shape[-1]
    want = np.stack([normalize_adjacency_oracle(m) for m in adj.reshape(-1, r, r)])
    got = stfg.normalize_adjacency(adj)
    assert got.shape == adj.shape
    assert got.tobytes() == want.tobytes()


def test_normalize_adjacency_rejects_a_stack_with_one_bad_window():
    good = _adjacency_stacks()["random"]
    asymmetric = good.copy()
    asymmetric[4, 0, 1] += 0.5
    with pytest.raises(ValueError, match="symmetric"):
        stfg.normalize_adjacency(asymmetric)
    negative = good.copy()
    negative[2, 0, 1] = negative[2, 1, 0] = -0.5
    with pytest.raises(ValueError, match="nonnegative"):
        stfg.normalize_adjacency(negative)
    with pytest.raises(ValueError, match="square"):
        stfg.normalize_adjacency(good[:, :, :4])


def test_jk_pool_identical_rows():
    r = np.array([1.5, -2.0, 0.25])
    h = np.tile(r, (4, 1))[None]
    out = stfg.jk_pool(Tensor(h))
    assert np.allclose(out.data[0], np.concatenate([r, r]), atol=0)


def test_jk_pool_hand_case():
    out = stfg.jk_pool(Tensor([[[1.0, -1.0], [3.0, 5.0]]]))
    assert np.allclose(out.data[0], [2.0, 2.0, 3.0, 5.0], atol=0)


def test_jk_pool_output_width():
    h = Tensor(np.random.default_rng(0).standard_normal((2, 6, 128)))
    assert stfg.jk_pool(h).shape == (2, 256)


def test_jk_concat_default_width_and_order():
    pools = [Tensor(np.full((1, 2 * w), float(i))) for i, w in enumerate(stfg.GCN_WIDTHS)]
    z = stfg.jk_concat(pools)
    assert z.shape == (1, stfg.EMBED_DIM) and stfg.EMBED_DIM == 480
    assert z.data[0, 0] == 0.0 and z.data[0, -1] == 3.0
    single = stfg.jk_concat([pools[0]])
    assert np.array_equal(single.data, pools[0].data)


def test_stfg_node_permutation_invariance(theta12):
    g = np.random.default_rng(9)
    adj = np.abs(g.standard_normal((8, 8)))
    adj = (adj + adj.T) / 2
    np.fill_diagonal(adj, 0.0)
    x = g.standard_normal((8, 12))
    perm = g.permutation(8)

    def embed(features, a):
        s = stfg.normalize_adjacency(a)[None]
        return stfg.stfg_forward(theta12, Tensor(features[None]), Tensor(s)).data

    z1 = embed(x, adj)
    z2 = embed(x[perm], adj[np.ix_(perm, perm)])
    assert np.max(np.abs(z1 - z2)) < 1e-10


def test_stfg_eval_mode_is_deterministic(theta12):
    g = np.random.default_rng(10)
    adj = stfg.normalize_adjacency(np.zeros((12, 12)))[None]
    x = Tensor(g.standard_normal((1, 12, 12)))
    a = stfg.stfg_forward(theta12, x, Tensor(adj)).data
    b = stfg.stfg_forward(theta12, x, Tensor(adj)).data
    assert np.array_equal(a, b)


def test_gcn_weight_gradient_matches_finite_differences():
    g = np.random.default_rng(11)
    theta = network.init_theta(5, seed=3)
    adj = stfg.normalize_adjacency(np.abs(_sym(g, 5)))
    x = g.standard_normal((3, 5, 5))

    def loss():
        z = stfg.stfg_forward(theta, Tensor(x), Tensor(np.broadcast_to(adj, (3, 5, 5)).copy()))
        return tt.tsum(tt.mul(z, z))

    w = theta["stfg.l1.w"]
    analytic = tt.gradients(loss(), [w])[0]
    sub = np.unravel_index(range(0, w.size, 7), w.shape)
    numeric = np.zeros_like(analytic)
    for i, j in zip(*sub):
        orig = w.data[i, j]
        w.data[i, j] = orig + 1e-5
        fp = loss().item()
        w.data[i, j] = orig - 1e-5
        fm = loss().item()
        w.data[i, j] = orig
        numeric[i, j] = (fp - fm) / 2e-5
    errs = np.abs(analytic[sub] - numeric[sub]) / np.maximum(1.0, np.abs(numeric[sub]))
    assert errs.max() < 1e-4


def _sym(g, n):
    m = g.standard_normal((n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


# ---------------------------------------------------------------------------
# disentangler and dependence estimator


def test_disentangle_shapes_and_determinism(theta12):
    z = Tensor(np.tile(np.random.default_rng(1).standard_normal(480), (3, 1)))
    f_di, f_ds = disentangle_forward(theta12, z)
    assert f_di.shape == (3, 128) and f_ds.shape == (3, 128)
    assert np.array_equal(f_di.data[0], f_di.data[1])
    assert not np.array_equal(f_di.data, f_ds.data)


def test_disentangler_gradient_via_finite_differences():
    theta = network.init_theta(6, seed=5)
    z = np.random.default_rng(2).standard_normal((4, 480))

    def loss():
        f_di, f_ds = disentangle_forward(theta, Tensor(z))
        return tt.add(tt.tsum(tt.mul(f_di, f_di)), tt.tsum(f_ds))

    w = theta["dis.di.fc1.w"]
    analytic = tt.gradients(loss(), [w])[0]
    flat_idx = np.arange(0, w.size, 4099)
    numeric = []
    flat = w.data.reshape(-1)
    for i in flat_idx:
        orig = flat[i]
        flat[i] = orig + 1e-5
        fp = loss().item()
        flat[i] = orig - 1e-5
        fm = loss().item()
        flat[i] = orig
        numeric.append((fp - fm) / 2e-5)
    numeric = np.array(numeric)
    errs = np.abs(analytic.reshape(-1)[flat_idx] - numeric) / np.maximum(1.0, np.abs(numeric))
    assert errs.max() < 1e-4


def test_constant_statistics_network_gives_zero_estimate(theta12):
    theta = theta12.copy()
    theta["mine.fc2.w"].data[...] = 0.0
    theta["mine.fc2.b"].data[...] = 1.7
    g = np.random.default_rng(3)
    f_di = Tensor(g.standard_normal((6, 128)))
    f_ds = Tensor(g.standard_normal((6, 128)))
    est = mine_estimate(theta, f_di, f_ds, marginal_permutation(6, rng.stream("t", 0)))
    assert est.item() == pytest.approx(0.0, abs=1e-12)


def test_dv_estimate_matches_numpy_formula():
    g = np.random.default_rng(4)
    joint = g.standard_normal(40)
    marg = g.standard_normal(40) * 3
    est = dv_estimate(Tensor(joint), Tensor(marg)).item()
    expect = joint.mean() - np.log(np.exp(marg).mean())
    assert est == pytest.approx(expect, abs=1e-12)


def test_dv_estimate_is_overflow_safe():
    est = dv_estimate(Tensor([0.0, 0.0]), Tensor([800.0, 801.0])).item()
    assert np.isfinite(est)


def test_mine_estimate_rejects_tiny_batch(theta12):
    one = Tensor(np.zeros((1, 128)))
    with pytest.raises(ValueError, match="at least 2"):
        mine_estimate(theta12, one, one, np.array([0]))


def test_mine_estimate_rejects_bad_permutation(theta12):
    x = Tensor(np.zeros((3, 128)))
    with pytest.raises(ValueError, match="permutation"):
        mine_estimate(theta12, x, x, np.array([0, 0, 2]))


def test_mi_loss_is_absolute_value():
    assert mi_loss(Tensor(0.0)).item() == 0.0
    assert mi_loss(Tensor(-0.3)).item() == pytest.approx(0.3)
    assert mi_loss(Tensor(0.83)).item() == pytest.approx(0.83)


def test_marginal_permutation_small_batch_has_no_fixed_points():
    for seed in range(20):
        perm = marginal_permutation(3, rng.stream("p", seed))
        assert not np.any(perm == np.arange(3))
    a = marginal_permutation(10, rng.stream("q", 1))
    b = marginal_permutation(10, rng.stream("q", 1))
    assert np.array_equal(a, b)


def test_dv_estimate_stable_across_permutations(theta12):
    g = np.random.default_rng(0)
    base = g.standard_normal((128, 128))
    f_di = Tensor(base + 0.1 * g.standard_normal((128, 128)))
    f_ds = Tensor(0.7 * base + 0.5 * g.standard_normal((128, 128)))
    theta = theta12.copy()  # the joint pass moves running statistics
    estimates = []
    for s in range(50):
        perm = marginal_permutation(128, rng.stream("permtest", s))
        with tt.no_grad():
            est = mine_estimate(theta, f_di, f_ds, perm)
        estimates.append(est.item())
    estimates = np.array(estimates)
    assert estimates.std() < 0.2 * np.abs(estimates).mean()


# ---------------------------------------------------------------------------
# fusion and heads


def test_attention_identical_tokens_give_identical_outputs(theta12):
    f = Tensor(np.random.default_rng(6).standard_normal((3, 128)))
    fused = fusion.fuse(theta12, f, f)
    assert fused.shape == (3, 256)
    assert np.max(np.abs(fused.data[:, :128] - fused.data[:, 128:])) < 1e-12


def test_attention_matches_dense_oracle(theta12):
    g = np.random.default_rng(7)
    tokens = g.standard_normal((2, 2, 128))
    got = fusion.attention(theta12, Tensor(tokens)).data

    def proj(name):
        return theta12[f"attn.{name}.w"].data, theta12[f"attn.{name}.b"].data

    wq, bq = proj("q")
    wk, bk = proj("k")
    wv, bv = proj("v")
    wo, bo = proj("o")
    expect = np.zeros_like(got)
    for b in range(2):
        q = tokens[b] @ wq + bq
        k = tokens[b] @ wk + bk
        v = tokens[b] @ wv + bv
        merged = np.zeros((2, 128))
        for h in range(fusion.N_HEADS):
            sl = slice(h * fusion.HEAD_DIM, (h + 1) * fusion.HEAD_DIM)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(fusion.HEAD_DIM)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
            merged[:, sl] = w @ v[:, sl]
        expect[b] = merged @ wo + bo
    assert np.max(np.abs(got - expect)) < 1e-12


def test_classify_loss_hand_values():
    perfect = fusion.classify_loss(Tensor([[0.0, 1.0], [1.0, 0.0]]), [1, 0])
    assert perfect.item() == pytest.approx(0.0, abs=1e-11)
    coin = fusion.classify_loss(Tensor([[0.5, 0.5]] * 4), [0, 1, 0, 1])
    assert coin.item() == pytest.approx(math.log(2), abs=1e-12)
    batch = fusion.classify_loss(Tensor([[0.2, 0.8], [0.7, 0.3]]), [1, 0])
    assert batch.item() == pytest.approx(-(math.log(0.8) + math.log(0.7)) / 2, abs=1e-12)


def test_domain_loss_hand_values():
    uniform = fusion.domain_loss(Tensor([[0.5, 0.5]] * 3), [0, 1, 1])
    assert uniform.item() == pytest.approx(math.log(2), abs=1e-12)
    batch = fusion.domain_loss(Tensor([[0.1, 0.9], [0.8, 0.2]]), [1, 0])
    assert batch.item() == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2, abs=1e-12)


def test_loss_rejects_bad_targets():
    probs = Tensor([[0.5, 0.5]])
    with pytest.raises(ValueError):
        fusion.classify_loss(probs, [2])
    with pytest.raises(ValueError):
        fusion.domain_loss(probs, [-1])


def test_losses_are_batch_permutation_invariant():
    g = np.random.default_rng(8)
    logits = g.standard_normal((10, 2))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = g.integers(0, 2, 10)
    perm = g.permutation(10)
    a = fusion.classify_loss(Tensor(probs), labels).item()
    b = fusion.classify_loss(Tensor(probs[perm]), labels[perm]).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_adversarial_ramp_values():
    assert fusion.adversarial_ramp(0.0, 10.0) == 0.0
    assert fusion.adversarial_ramp(1.0, 10.0) == pytest.approx(math.tanh(5.0), abs=1e-12)
    assert fusion.adversarial_ramp(1.0, 10.0) == pytest.approx(0.9999092, abs=1e-7)
    grid = [fusion.adversarial_ramp(p, 10.0) for p in np.linspace(0, 1, 100)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_total_loss_assembly():
    zero = fusion.total_loss({}, lambda_mi=1.0, lambda_cl=0.1, ramp=0.5)
    assert zero.item() == 0.0
    parts = {"cls": Tensor(1.0), "mi": Tensor(2.0), "cl": Tensor(3.0), "dom": Tensor(4.0)}
    src = fusion.total_loss(parts, lambda_mi=1.0, lambda_cl=0.1, ramp=0.5)
    assert src.item() == pytest.approx(5.3, abs=1e-12)
    del parts["cls"]  # an unlabeled target's batch has no classification term
    tgt = fusion.total_loss(parts, lambda_mi=1.0, lambda_cl=0.1, ramp=0.5)
    assert tgt.item() == pytest.approx(4.3, abs=1e-12)


def test_total_loss_linear_in_each_part():
    base = {"cls": Tensor(1.0), "mi": Tensor(1.0), "cl": Tensor(1.0), "dom": Tensor(1.0)}
    ref = fusion.total_loss(base, lambda_mi=0.7, lambda_cl=0.2, ramp=0.3).item()
    for key, weight in [("mi", 0.7), ("cl", 0.2), ("dom", 0.3), ("cls", 1.0)]:
        bumped = dict(base)
        bumped[key] = Tensor(2.0)
        got = fusion.total_loss(bumped, lambda_mi=0.7, lambda_cl=0.2, ramp=0.3).item()
        assert got - ref == pytest.approx(weight, abs=1e-12)


def test_gradient_reversal_realizes_the_adversarial_game():
    theta = network.init_theta(6, seed=7)
    z = np.random.default_rng(9).standard_normal((8, 480))
    domains = np.array([0, 0, 0, 0, 1, 1, 1, 1])

    def di_loss_value(store):
        with tt.no_grad():
            f_di, _ = disentangle_forward(store, Tensor(z))
            probs = fusion.domain_probs(store, f_di, reverse_scale=0.8)
        return fusion.domain_loss(probs, domains).item()

    f_di, _ = disentangle_forward(theta, Tensor(z))
    probs = fusion.domain_probs(theta, f_di, reverse_scale=0.8)
    loss = fusion.domain_loss(probs, domains)
    grads = tt.backward(loss, theta)
    before = di_loss_value(theta)

    head = theta.copy()
    for name in head.names():
        if name.startswith("dom.") and not name.endswith(("running_mean", "running_var")):
            head[name].data[...] -= 1e-3 * grads[name]
    assert di_loss_value(head) < before, "domain head step should reduce its loss"

    producer = theta.copy()
    for name in producer.names():
        if name.startswith("dis.di.") and not name.endswith(("running_mean", "running_var")):
            producer[name].data[...] -= 1e-3 * grads[name]
    assert di_loss_value(producer) > before, "feature step should increase the domain loss"


# ---------------------------------------------------------------------------
# assembled network


def test_init_theta_shapes():
    theta = network.init_theta(17, seed=0)
    assert theta["stfg.l1.w"].shape == (17, 128)
    assert theta["stfg.l4.w"].shape == (32, 16)
    assert theta["dis.di.fc1.w"].shape == (480, 256)
    assert theta["dis.ds.fc2.w"].shape == (256, 128)
    assert theta["attn.q.w"].shape == (128, 128)
    assert theta["mine.fc1.w"].shape == (128, 32)
    assert theta["mine.fc2.w"].shape == (32, 1)
    assert theta["dom.fc1.w"].shape == (128, 160)
    assert theta["dom.fc2.w"].shape == (160, 2)
    assert theta["clf.fc1.w"].shape == (256, 320)
    assert theta["clf.fc2.w"].shape == (320, 2)


def test_param_groups_split():
    theta = network.init_theta(8, seed=1)
    main, mine = network.param_groups(theta)
    assert all(n.startswith("mine.") for n in mine)
    assert not any(n.startswith("mine.") for n in main)
    assert not any(n.endswith(("running_mean", "running_var")) for n in main + mine)
    assert set(main) | set(mine) | {n for n in theta.names() if n.endswith(("running_mean", "running_var"))} == set(theta.names())


def test_model_forward_shapes_and_prob_rows(theta12):
    sites = [SynthSite("s", 3, True, 0.0)]
    ds = synth_multisite(SynthConfig(sites=sites, n_rois=12, t=24, window=20, top_k=4), seed=1)[0]
    batch = network.make_batch(ds, slice(0, 6), 0)
    res = network.model_forward(theta12, batch, train=False)
    assert res.class_probs.shape == (6, 2)
    assert np.max(np.abs(res.class_probs.data.sum(axis=1) - 1.0)) <= 1e-12


def test_dropout_keep_masks_are_keyed_per_window():
    uids = ["a:0", "b:3", "c:7"]
    key = (5, "drop", "s", 2, "clf")
    first = rng.dropout_keep_masks((4, 6), 0.3, uids, *key)
    last = rng.dropout_keep_masks((4, 6), 0.3, uids[1:] + uids[:1], *key)
    assert first.shape == (3, 4, 6) and first.dtype == bool
    assert np.array_equal(first[0], last[-1])  # a window's row, wherever it lands
    for row, uid in zip(first, uids):
        assert np.array_equal(row, rng.stream(*key, uid).random((4, 6)) >= 0.3)


def test_each_dropout_layer_draws_its_masks_from_its_own_stream(monkeypatch):
    calls = []
    draw = rng.dropout_keep_masks

    def spy(shape, rate, uids, *key):
        calls.append((tuple(shape), rate, key))
        return draw(shape, rate, uids, *key)

    monkeypatch.setattr(rng, "dropout_keep_masks", spy)
    theta = network.init_theta(12, seed=0)  # a training forward moves running statistics
    sites = [SynthSite("s", 3, True, 0.0)]
    ds = synth_multisite(SynthConfig(sites=sites, n_rois=12, t=24, window=20, top_k=4), seed=1)[0]
    batch = network.make_batch(ds, slice(0, 6), 0)
    drop_key = (batch.uids, 0, "drop", "s", 1)
    res = network.model_forward(theta, batch, train=True, drop_key=drop_key)
    fusion.domain_probs(theta, res.f_di, drop_key=drop_key)
    tags = [("stfg.l2", (12, 128), 0.1), ("stfg.l3", (12, 64), 0.1), ("stfg.l4", (12, 32), 0.1),
            ("dis.di", (256,), 0.2), ("dis.ds", (256,), 0.2), ("clf", (320,), 0.5),
            ("dom", (160,), 0.5)]
    assert calls == [(shape, rate, (0, "drop", "s", 1, tag)) for tag, shape, rate in tags]
    with pytest.raises(ValueError, match="needs a drop_key"):
        network.model_forward(theta, batch, train=True)


def test_evaluation_forward_applies_no_dropout(monkeypatch):
    calls = []
    monkeypatch.setattr(rng, "dropout_keep_masks", lambda *args: calls.append(args))
    monkeypatch.setattr(tt, "dropout", lambda *args: calls.append(args))
    theta = network.init_theta(12, seed=0)
    sites = [SynthSite("s", 3, True, 0.0)]
    ds = synth_multisite(SynthConfig(sites=sites, n_rois=12, t=24, window=20, top_k=4), seed=1)[0]
    res = network.model_forward(theta, network.make_batch(ds, slice(0, 6), 0), train=False)
    probs = fusion.domain_probs(theta, res.f_di, reverse_scale=0.5)
    network.eval_hidden(theta, ds.samples[0])
    assert calls == []
    assert not [n for n in tt._topo_order(tt.add(tt.tsum(res.class_probs), tt.tsum(probs)))
                if n.op == "dropout"]


def test_mismatched_train_switch_raises_before_any_layer_runs():
    theta = network.init_theta(12, seed=0)
    sites = [SynthSite("s", 3, True, 0.0)]
    ds = synth_multisite(SynthConfig(sites=sites, n_rois=12, t=24, window=20, top_k=4), seed=1)[0]
    batch = network.make_batch(ds, slice(0, 6), 0)
    before = {name: t.data.tobytes() for name, t in theta.items()}
    with pytest.raises(ValueError, match="needs a drop_key"):
        network.model_forward(theta, batch, train=True)
    with pytest.raises(ValueError, match="needs no drop_key"):
        network.model_forward(theta, batch, train=False, drop_key=(batch.uids, 0, "drop", "s", 1))
    assert {name: t.data.tobytes() for name, t in theta.items()} == before


SMALL_CFG = """
seed = 2
data = synth
rois = 10
t_points = 22
subjects = 2
window = 20
top_k = 3
site.0.id = s
site.0.role = source
"""


def test_make_batch_without_graph_uses_identity_propagation(tmp_path):
    # the loader applies use_stfg = false: every window's propagation is the
    # identity, so no layer aggregates neighbors
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    on = cli._load_datasets(parse_config(cfg))[0]
    cfg.write_text(SMALL_CFG + "use_stfg = false\n")
    off = cli._load_datasets(parse_config(cfg))[0]
    assert not np.array_equal(on.propagation[0], np.eye(10))
    assert off.features.tobytes() == on.features.tobytes()
    assert off.propagation.shape == on.propagation.shape
    assert all(np.array_equal(p, np.eye(10)) for p in off.propagation)
    batch = network.make_batch(off, slice(0, 3), 0)
    assert np.array_equal(batch.adj_norm[0], np.eye(10))


@pytest.mark.parametrize("use_graph", [True, False])
def test_samples_are_views_and_make_batch_stacks_their_rows(use_graph):
    sites = [SynthSite("s", 3, True, 0.0)]
    ds = synth_multisite(SynthConfig(sites=sites, n_rois=10, t=24, window=20, top_k=3), seed=4)[0]
    if not use_graph:  # as loaded with use_stfg = false
        ds = replace(ds, propagation=np.broadcast_to(np.eye(10), ds.propagation.shape))
    for i, g in enumerate(ds.samples):
        assert np.shares_memory(g.features, ds.features[i])
        assert np.shares_memory(g.propagation, ds.propagation[i])
    idx = np.array([7, 0, 12, 3, 3])
    batch = network.make_batch(ds, idx, 1)
    rows = [ds.samples[i] for i in idx]
    want_adj = np.stack([g.propagation if use_graph else np.eye(10) for g in rows])
    assert batch.x.tobytes() == np.stack([g.features for g in rows]).tobytes()
    assert batch.adj_norm.tobytes() == want_adj.tobytes()
    assert batch.uids == [f"{g.subject_id}:{g.window}" for g in rows]
    assert batch.labels.tolist() == [ds.labels[i] for i in idx]
    assert batch.truth.tolist() == [ds.truth[i] for i in idx]
    assert batch.domains.tolist() == [1] * len(idx)
    # a slice gives views, and an evaluation forward over views leaves the stacks as they were
    assert np.shares_memory(network.make_batch(ds, slice(2, 6), 0).x, ds.features)
    before = ds.features.tobytes() + ds.propagation.tobytes()
    network.eval_class_probs(network.init_theta(10, 0), ds.features, ds.propagation)
    assert ds.features.tobytes() + ds.propagation.tobytes() == before
