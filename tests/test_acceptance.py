"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

The heavier criteria share one canonical synthetic task: one labeled central
site and three unlabeled edge sites (40 subjects each, 32 ROIs, 50 rounds).
"""

import hashlib
import math
import time

import numpy as np
import pytest

from dafed import cli, explain, fedsim, rng, wire
from dafed import tensor as tt
from dafed.data import SynthConfig, SynthSite, sliding_windows, synth_multisite
from dafed.disentangle import dv_estimate, marginal_permutation
from dafed.fedsim import (NoiseSpec, TrainSettings, add_noise, aggregate,
                          build_states, contrastive_loss, dataset_accuracy,
                          multi_site_round, run_training, train_source_only,
                          two_site_round)
from dafed.fusion import adversarial_ramp, domain_loss
from dafed.network import init_theta
from dafed.optim import Adam, LrProfile, ParamStore, adam_step
from dafed.tensor import Tensor, backward


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# canonical synthetic task


TARGET_SHIFTS = (0.4, 0.5, 0.6)
ROLES = {"central": "source", "edge0": "target_unlabeled",
         "edge1": "target_unlabeled", "edge2": "target_unlabeled"}


def canonical_datasets(seed):
    sites = [SynthSite("central", 40, True, 0.0)]
    sites += [SynthSite(f"edge{i}", 40, False, s) for i, s in enumerate(TARGET_SHIFTS)]
    cfg = SynthConfig(sites=sites, n_rois=32, t=48, class_sep=0.7,
                      window=20, stride=1, top_k=10)
    return cfg, synth_multisite(cfg, seed=seed)


def canonical_settings(seed, **kw):
    base = dict(seed=seed, rounds=50, alpha=0.01,
                lr=LrProfile("decay", 0.01, 0.99))
    base.update(kw)
    return TrainSettings(**base)


@pytest.fixture(scope="module")
def world():
    """Lazily trained models, shared across the heavy criteria."""
    cache = {}

    def datasets(seed):
        key = ("data", seed)
        if key not in cache:
            cache[key] = canonical_datasets(seed)
        return cache[key]

    def trained(seed, **kw):
        key = ("run", seed, tuple(sorted(kw.items())))
        if key not in cache:
            _, dsets = datasets(seed)
            cache[key] = run_training(canonical_settings(seed, **kw), dsets, ROLES)
        return cache[key]

    def baseline(seed):
        key = ("base", seed)
        if key not in cache:
            _, dsets = datasets(seed)
            cache[key] = train_source_only(canonical_settings(seed), dsets[0])
        return cache[key]

    def target_mean(theta, seed):
        _, dsets = datasets(seed)
        return float(np.mean([dataset_accuracy(theta, ds) for ds in dsets[1:]]))

    return {"datasets": datasets, "trained": trained, "baseline": baseline,
            "target_mean": target_mean}


# ---------------------------------------------------------------------------
# 1. window-count reproduction


def test_criterion_1_window_counts():
    start = time.time()
    published = {176: 157, 296: 277, 236: 217, 116: 97, 187: 168, 200: 181, 190: 171}
    got = {t: len(sliding_windows(t, 20, 1)) for t in published}
    elapsed = time.time() - start
    ok = got == published and elapsed < 1.0
    _report(1, ok, f"window counts {got} in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. gradient fidelity of the full objective


def test_criterion_2_gradient_fidelity(tmp_path, capsys):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text("rounds = 1\nsite.0.role = source\n")
    start = time.time()
    code = cli.main(["gradcheck", "--config", str(cfg)])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    ok = code == 0 and "pass" in out and elapsed < 60.0
    _report(2, ok, f"exit={code} in {elapsed:.1f}s ({out.strip().splitlines()[0]})")


# ---------------------------------------------------------------------------
# 3. closed-form losses


def test_criterion_3_closed_form_losses():
    uniform = domain_loss(Tensor([[0.5, 0.5]] * 6), [0, 1, 0, 1, 1, 0])
    ok_dom = abs(uniform.item() - math.log(2)) <= 1e-12

    v = np.arange(1.0, 9.0)
    anchor = Tensor(np.tile(v, (4, 1)))
    negs = [[v.copy() for _ in range(5)] for _ in range(4)]
    cl = contrastive_loss(anchor, np.tile(v, (4, 1)), negs, tau=0.5)
    ok_cl = abs(cl.item() - math.log(6)) <= 1e-9

    ok_ramp = (adversarial_ramp(0.0, 10.0) == 0.0
               and abs(adversarial_ramp(1.0, 10.0) - 0.99991) <= 1e-5)
    _report(3, ok_dom and ok_cl and ok_ramp,
            f"domain={uniform.item():.12f} (ln2), contrastive={cl.item():.9f} (ln6), "
            f"ramp(1)={adversarial_ramp(1.0, 10.0):.7f}")


# ---------------------------------------------------------------------------
# 4. dependence-estimator sanity on Gaussians


def _toy_statistics_net(seed, hidden=64):
    store = ParamStore()
    g = rng.stream(seed, "toy_mine_init")
    bound = math.sqrt(6.0 / (2 + hidden))
    store.add("w1", g.uniform(-bound, bound, (2, hidden)))
    store.add("b1", np.zeros(hidden))
    bound2 = math.sqrt(6.0 / (hidden + 1))
    store.add("w2", g.uniform(-bound2, bound2, (hidden, 1)))
    store.add("b2", np.zeros(1))
    return store


def _toy_apply(store, xy):
    h = tt.relu(tt.add(tt.matmul(xy, store["w1"]), store["b1"]))
    out = tt.add(tt.matmul(h, store["w2"]), store["b2"])
    return tt.reshape(out, (out.shape[0],))


def _gaussian_pairs(stream, rho, n):
    x = stream.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * stream.standard_normal(n)
    return x[:, None], y[:, None]


def _trained_dv(rho, seed, steps=1200, batch=256, lr=5e-3, eval_n=16384):
    store = _toy_statistics_net(seed)
    opt = Adam(names=tuple(store.names()))
    for step in range(steps):
        s = rng.stream(seed, "toy_mine", rho, step)
        x, y = _gaussian_pairs(s, rho, batch)
        perm = marginal_permutation(batch, s)
        dv = dv_estimate(_toy_apply(store, Tensor(np.hstack([x, y]))),
                         _toy_apply(store, Tensor(np.hstack([x, y[perm]]))))
        adam_step(store, opt, backward(tt.scale(dv, -1.0), store), lr)
    s = rng.stream(seed, "toy_mine_eval", rho)
    x, y = _gaussian_pairs(s, rho, eval_n)
    perm = marginal_permutation(eval_n, s)
    with tt.no_grad():
        return dv_estimate(_toy_apply(store, Tensor(np.hstack([x, y]))),
                           _toy_apply(store, Tensor(np.hstack([x, y[perm]])))).item()


def test_criterion_4_dependence_estimator_gaussians():
    results = []
    ok = True
    for rho, target in ((0.9, -0.5 * math.log(1.0 - 0.81)), (0.0, 0.0)):
        for seed in (0, 1, 2):
            start = time.time()
            est = _trained_dv(rho, seed)
            elapsed = time.time() - start
            good = abs(est - target) <= 0.1 and elapsed < 120.0
            ok = ok and good
            results.append(f"rho={rho} seed={seed}: {est:+.4f} vs {target:.4f} ({elapsed:.0f}s)")
    _report(4, ok, "; ".join(results))


# ---------------------------------------------------------------------------
# 5. protocol equivalence and aggregation fixed point


def _small_task(seed=0):
    cfg = SynthConfig(sites=[SynthSite("central", 4, True, 0.0),
                             SynthSite("edge", 4, False, 0.35)],
                      n_rois=10, t=24, class_sep=0.6, window=20, top_k=3)
    return synth_multisite(cfg, seed=seed)


def test_criterion_5_protocol_equivalence():
    datasets = _small_task()
    roles = {"central": "source", "edge": "target_unlabeled"}
    settings = TrainSettings(seed=0, rounds=10, alpha=0.0, queue_len=3,
                             lr=LrProfile("decay", 0.005, 0.99))

    theta_a = init_theta(10, 0)
    source_a, targets_a = build_states(datasets, roles, theta_a)
    source_a.theta = theta_a
    trajectory_a = []
    for t in range(10):
        two_site_round(source_a, targets_a[0], t, 10, settings)
        trajectory_a.append({n: source_a.theta[n].data.copy() for n in source_a.theta.names()})

    theta_b = init_theta(10, 0)
    source_b, targets_b = build_states(datasets, roles, theta_b)
    noise = NoiseSpec(alpha=0.0)
    trajectory_b = []
    for t in range(10):
        theta_b, _ = multi_site_round(theta_b, source_b, targets_b, t, 10, settings, noise)
        trajectory_b.append({n: theta_b[n].data.copy() for n in theta_b.names()})

    bitwise = all(np.array_equal(a[n], b[n])
                  for a, b in zip(trajectory_a, trajectory_b) for n in a)

    theta = init_theta(10, 3)
    agg = aggregate([theta.copy(), theta.copy(), theta.copy()])
    fixed = all(np.array_equal(agg[n].data, theta[n].data) for n in theta.names())
    _report(5, bitwise and fixed,
            f"two-site vs K=1 bitwise over 10 rounds: {bitwise}; "
            f"averaging identical uploads exact: {fixed}")


# ---------------------------------------------------------------------------
# 6. privacy and noise calibration


def test_criterion_6_privacy_and_noise():
    theta = init_theta(6, 1)
    clean = add_noise(theta, NoiseSpec(alpha=0.0))
    identity = all(np.array_equal(clean[n].data, theta[n].data) for n in theta.names())

    g = np.random.default_rng(0)
    values = g.standard_normal(1_000_000) * 3.0
    store = ParamStore()
    store.add("w", values)
    noised = add_noise(store, NoiseSpec(alpha=0.01, key=("mc",)), "site", 0)
    ratio = (noised["w"].data - values).std() / (0.01 * values.std())
    calibrated = abs(ratio - 1.0) < 0.01

    datasets = _small_task()
    settings = TrainSettings(seed=0, rounds=2, alpha=0.01,
                             lr=LrProfile("decay", 0.005, 0.99))
    theta_run = init_theta(10, 0)
    source, targets = build_states(datasets, {"central": "source", "edge": "target_unlabeled"},
                                   theta_run)
    captured = []
    original = wire.encode_message

    def capture(msg):
        buf = original(msg)
        if msg.kind == wire.KIND_UPLOAD:
            captured.append(buf)
        return buf

    fedsim.wire.encode_message = capture
    try:
        noise = NoiseSpec(alpha=0.01, key=(0, "noise"))
        for t in range(2):
            theta_run, _ = multi_site_round(theta_run, source, targets, t, 2,
                                            settings, noise)
    finally:
        fedsim.wire.encode_message = original
    blob = b"".join(captured)
    samples = [s for ds in datasets for s in ds.samples]
    picks = np.random.default_rng(1).choice(len(samples), min(100, len(samples)), replace=False)
    leaked = 0
    for i in picks:
        row = np.ascontiguousarray(samples[i].features[0], dtype="<f8").tobytes()
        if blob.find(row) != -1:
            leaked += 1
    _report(6, identity and calibrated and leaked == 0,
            f"alpha=0 identity: {identity}; noise std ratio {ratio:.4f}; "
            f"leaked rows: {leaked}/{len(picks)}")


# ---------------------------------------------------------------------------
# 7. federated benefit over the source-only baseline


def test_criterion_7_federated_benefit(world):
    start = time.time()
    fed = world["target_mean"](world["trained"](0).theta, 0)
    base = world["target_mean"](world["baseline"](0), 0)
    elapsed = time.time() - start
    gap = 100.0 * (fed - base)
    ok = gap >= 5.0 and elapsed < 900.0
    _report(7, ok, f"federated {fed:.3f} vs source-only {base:.3f}: "
                   f"+{gap:.1f}pp in {elapsed:.0f}s")


def test_dependence_pressure_decreases_over_training(world):
    # not a numbered criterion: the dependence estimate under training
    # pressure must end lower than it started
    metrics = world["trained"](0).metrics
    first = np.mean([r["L_MI"] for r in metrics if r["round"] == 1])
    last = np.mean([r["L_MI"] for r in metrics if r["round"] >= 45])
    assert last < first


def test_canonical_parameters_are_pinned(world):
    # not a numbered criterion: the canonical 50-round model, bit for bit
    theta = world["trained"](0).theta
    digest = hashlib.sha256(b"".join(theta[n].data.tobytes() for n in theta.names()))
    assert digest.hexdigest()[:16] == "2a98035042d6b1f7"


# ---------------------------------------------------------------------------
# 8. ablation ordering


def test_criterion_8_ablation_ordering(world):
    start = time.time()
    chains = []
    for seed in (0, 1, 2):
        full = world["target_mean"](world["trained"](seed).theta, seed)
        no_cl = world["target_mean"](world["trained"](seed, use_cl=False).theta, seed)
        no_cl_dat = world["target_mean"](
            world["trained"](seed, use_cl=False, use_dat=False).theta, seed)
        chains.append((full, no_cl, no_cl_dat))
    holds = [full >= no_cl >= no_cl_dat for full, no_cl, no_cl_dat in chains]
    elapsed = time.time() - start
    detail = "; ".join(f"seed {i}: {f:.3f} >= {c:.3f} >= {d:.3f} ({'ok' if h else 'no'})"
                       for i, ((f, c, d), h) in enumerate(zip(chains, holds)))
    ok = sum(holds) >= 2 and elapsed < 2700.0
    _report(8, ok, f"{detail} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. interpretability faithfulness


def test_criterion_9_faithfulness(world):
    start = time.time()
    theta = world["trained"](0).theta
    _, dsets = world["datasets"](0)
    src = dsets[0]

    drops = []
    ok_drop = True
    subjects = sorted(src.subject_index)
    for layer in (1, 2, 3, 4):
        graphs = [src.samples[i] for s in subjects[:20]
                  for i in src.subject_index[s][:2]]
        masks = np.stack([explain.score_cam(theta, g, 1)[layer - 1].scores for g in graphs])
        clean, masked = explain.saliency_masked_scores(theta, graphs, masks)
        control = explain.permuted_masks(masks, 0, "acceptance", layer)
        _, masked_ctl = explain.saliency_masked_scores(theta, graphs, control)
        d_sal = explain.average_drop(clean, masked)
        d_ctl = explain.average_drop(clean, masked_ctl)
        drops.append(f"l{layer}: {d_sal:.1f}% vs random {d_ctl:.1f}%")
        ok_drop = ok_drop and d_sal < d_ctl

    subject_maps = []
    for s in subjects:
        idx = src.subject_index[s][:4]
        scores = np.mean([explain.score_cam(theta, src.samples[i], 1)[4 - 1].scores
                          for i in idx], axis=0)
        subject_maps.append(explain.SaliencyMap(scores, 4, 1, s, 0))
    top = set(int(r) for r in explain.top_rois(subject_maps, 10))
    planted = set(range(6))
    ok_rank = planted <= top
    elapsed = time.time() - start
    ok = ok_drop and ok_rank and elapsed < 600.0
    _report(9, ok, f"{'; '.join(drops)}; planted {sorted(planted)} "
                   f"within top-10 {sorted(top)}: {ok_rank}; {elapsed:.0f}s")


def test_attribution_finds_the_planted_rois(world):
    # not a numbered criterion: class-1 saliency at layer 4 on the pooled
    # cohort of all four sites puts at least 5 of the 6 planted ROIs in its
    # top 6; chance is about 1.1 of 6
    theta = world["trained"](0).theta
    cfg, dsets = world["datasets"](0)
    planted = set(cfg.signal_rois().tolist())
    assert planted == set(range(6))
    res = explain.explain_cohort(theta, dsets, 4, 1, windows=1, seed=0)
    hits = len(planted & set(res.top_rois[:6].tolist()))
    assert hits >= 5, f"{hits} planted ROIs in the top 6 {res.top_rois[:6].tolist()}"


# ---------------------------------------------------------------------------
# 10. command determinism


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
seed = 3
rounds = 4
data = synth
rois = 10
t_points = 24
subjects = 4
class_sep = 0.7
window = 20
top_k = 3
lr_profile = decay
lr_base = 0.005
site.0.id = central
site.0.role = source
site.1.id = edge
site.1.role = target_unlabeled
site.1.shift = 0.4
""")
    for out in ("a", "b"):
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / f"s{out}")]) == 0
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / f"t{out}")]) == 0
    synth_same = all((tmp_path / "sa" / p.relative_to(tmp_path / "sb")).read_bytes() == p.read_bytes()
                     for p in sorted((tmp_path / "sb").rglob("*.csv")))
    train_same = ((tmp_path / "ta" / "metrics.csv").read_bytes()
                  == (tmp_path / "tb" / "metrics.csv").read_bytes())
    _report(10, synth_same and train_same,
            f"synth byte-identical: {synth_same}; metrics byte-identical: {train_same}")
