"""Attribution, faithfulness metrics, ROI ranking, and edge significance."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dafed import explain, network
from dafed import tensor as tt
from dafed.data import SynthConfig, SynthSite, synth_multisite, top_k_adjacency
from dafed.stfg import normalize_adjacency, stfg_forward
from dafed.explain import (Edge, SaliencyMap, average_drop, average_increase,
                           permuted_masks, saliency_masked_scores,
                           score_cam, significant_edges, top_rois)


SMALL_WORLD_TOP_K = 3


@pytest.fixture(scope="module")
def small_world():
    cfg = SynthConfig(sites=[SynthSite("s", 4, True, 0.0)],
                      n_rois=10, t=26, class_sep=0.7, window=20, top_k=SMALL_WORLD_TOP_K)
    ds = synth_multisite(cfg, seed=3)[0]
    theta = network.init_theta(10, seed=3)
    return theta, ds


def test_score_cam_constant_activations_give_zero_map(small_world):
    theta, ds = small_world
    frozen = theta.copy()
    # force every layer-2 activation constant: zero weights, bias via BN beta
    frozen["stfg.l2.w"].data[...] = 0.0
    frozen["stfg.l2.bn.beta"].data[...] = 0.7
    frozen["stfg.l2.bn.gamma"].data[...] = 0.0
    m = score_cam(frozen, ds.samples[0], 1)[2 - 1]
    assert np.array_equal(m.scores, np.zeros(10))


def test_score_cam_layer_bounds(small_world):
    theta, ds = small_world
    # one map per layer of the stack, 1..N_LAYERS in order
    assert [m.layer for m in score_cam(theta, ds.samples[0], 0)] == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="class"):
        score_cam(theta, ds.samples[0], 3)


def test_score_cam_weights_are_convex_combination(small_world):
    # saliency = softmax(scores) @ masks with masks in [0,1] implies the
    # map stays within [0, 1]
    theta, ds = small_world
    for layer in (1, 2, 3, 4):
        m = score_cam(theta, ds.samples[1], 1)[layer - 1]
        assert m.scores.shape == (10,)
        assert np.all(m.scores >= 0.0) and np.all(m.scores <= 1.0)
        assert np.all(np.isfinite(m.scores))


def test_score_cam_identical_with_and_without_tape(small_world):
    theta, ds = small_world
    a = score_cam(theta, ds.samples[2], 0)[3 - 1].scores
    # an active surrounding graph context must not change anything
    x = tt.Tensor(np.ones((2, 2)))
    _ = tt.matmul(x, x)
    b = score_cam(theta, ds.samples[2], 0)[3 - 1].scores
    assert np.array_equal(a, b)


def test_score_cam_on_noised_parameters_still_works(small_world):
    from dafed.fedsim import NoiseSpec, add_noise
    theta, ds = small_world
    noised = add_noise(theta, NoiseSpec(alpha=0.05, key=("x",)), "s", 0)
    m = score_cam(noised, ds.samples[0], 1)[4 - 1]
    assert np.all(np.isfinite(m.scores))


def _minmax_columns(act):
    act = act.T
    lo = act.min(axis=1, keepdims=True)
    span = act.max(axis=1, keepdims=True) - lo
    return np.where(span > 0, (act - lo) / np.where(span > 0, span, 1.0), 0.0)


def _propagation(graph, use_graph):
    if use_graph:
        return normalize_adjacency(top_k_adjacency(graph.features, SMALL_WORLD_TOP_K))
    return np.eye(len(graph.features))


def _forward_probs(theta, x, adj):
    """Evaluation-mode class probabilities of raw arrays in one forward."""
    batch = network.Batch(x=x, adj_norm=adj, labels=None,
                          domains=np.zeros(x.shape[0], dtype=np.int64),
                          uids=[str(i) for i in range(x.shape[0])])
    with tt.no_grad():
        return network.model_forward(theta, batch, train=False).class_probs.data


def _forward_hidden(theta, x, adj):
    """Per-layer activations of raw arrays in one forward."""
    with tt.no_grad():
        _, hidden = stfg_forward(theta, tt.Tensor(x), tt.Tensor(adj), want_hidden=True)
    return [h.data for h in hidden]


def _score_cam_oracle(theta, graph, layer, target_class, use_graph=True):
    """Score-CAM one layer at a time: every channel of the layer, dead ones
    included, in one batch against the layer's own baseline forward."""
    adj = _propagation(graph, use_graph)
    x = graph.features
    masks = _minmax_columns(_forward_hidden(theta, x[None], adj[None])[layer - 1][0])
    masked_x = x[None] * masks[:, :, None]
    masked_adj = np.broadcast_to(adj, (masks.shape[0],) + adj.shape).copy()
    scores = _forward_probs(theta, masked_x, masked_adj)[:, target_class]
    baseline = _forward_probs(theta, np.zeros_like(x)[None], adj[None])[0, target_class]
    cic = scores - baseline
    shifted = np.exp(cic - cic.max())
    return (shifted / shifted.sum()) @ masks


def _with_dead_channels(theta):
    # zero weights and gamma with a negative beta make a channel's
    # post-activation column constant (all zero), so its mask is all zero
    dead = theta.copy()
    for layer, n_dead in ((1, 40), (2, 20), (3, 8)):
        dead[f"stfg.l{layer}.w"].data[:, :n_dead] = 0.0
        dead[f"stfg.l{layer}.bn.gamma"].data[:n_dead] = 0.0
        dead[f"stfg.l{layer}.bn.beta"].data[:n_dead] = -1.0
    return dead


@pytest.mark.parametrize("dead, use_graph", [
    pytest.param(False, True, id="False"),
    pytest.param(True, True, id="True"),
    pytest.param(False, False, id="identity-propagation"),
])
def test_score_cam_matches_per_layer_oracle(small_world, dead, use_graph):
    theta, ds = small_world
    if dead:
        theta = _with_dead_channels(theta)
    for g in ds.samples[:3]:
        adj = _propagation(g, use_graph)
        hidden = _forward_hidden(theta, g.features[None], adj[None])
        n_dead = sum(int((~_minmax_columns(h[0]).any(axis=1)).sum()) for h in hidden)
        if dead:
            assert n_dead >= 40 + 20 + 8
        if not use_graph:  # as loaded with use_stfg = false
            g = replace(g, propagation=np.eye(10))
        for target_class in (0, 1):
            maps = score_cam(theta, g, target_class)
            assert len(maps) == explain.N_LAYERS
            for layer, m in enumerate(maps, start=1):
                want = _score_cam_oracle(theta, g, layer, target_class, use_graph)
                assert np.max(np.abs(m.scores - want)) <= 1e-12
                assert (m.layer, m.target_class, m.subject_id, m.window) == \
                    (layer, target_class, g.subject_id, g.window)


def test_score_cam_chunks_beyond_one_forward(small_world, monkeypatch):
    theta, ds = small_world
    whole = score_cam(theta, ds.samples[0], 1)
    monkeypatch.setattr(network, "EVAL_CHUNK", 7)
    chunked = score_cam(theta, ds.samples[0], 1)
    for a, b in zip(whole, chunked):
        assert np.max(np.abs(a.scores - b.scores)) <= 1e-12


def test_saliency_masked_scores_match_per_graph_loop(small_world, monkeypatch):
    _, ds = small_world
    theta = network.init_theta(10, seed=7)  # masking flips some predictions
    graphs = ds.samples[:9]
    masks = np.abs(np.random.default_rng(9).standard_normal((9, 10)))
    masks[4] = 0.25  # a constant mask scales every row by zero
    want_clean, want_masked, flips = [], [], 0
    for g, m in zip(graphs, masks):
        adj = _propagation(g, True)[None]
        probs = _forward_probs(theta, g.features[None], adj)[0]
        cls = int(np.argmax(probs))
        span = m.max() - m.min()
        m = (m - m.min()) / span if span > 0 else np.zeros_like(m)
        probs_masked = _forward_probs(theta, (g.features * m[:, None])[None], adj)[0]
        flips += int(np.argmax(probs_masked) != cls)
        want_clean.append(probs[cls])
        want_masked.append(probs_masked[cls])
    assert flips > 0  # so the class must be the clean prediction's
    monkeypatch.setattr(network, "EVAL_CHUNK", 4)  # three chunks
    clean, masked = saliency_masked_scores(theta, graphs, masks)
    assert np.max(np.abs(clean - want_clean)) <= 1e-12
    assert np.max(np.abs(masked - want_masked)) <= 1e-12


def test_average_drop_formula():
    assert average_drop([0.8, 0.6], [0.8, 0.6]) == 0.0
    assert average_drop([0.8, 0.6], [0.4, 0.3]) == pytest.approx(50.0)
    assert average_drop([0.5, 0.5], [0.9, 0.7]) == 0.0  # clamped at zero
    assert average_drop([0.5, 0.5], [0.25, 0.5]) == pytest.approx(25.0)


def test_average_drop_excludes_nonpositive_scores():
    assert average_drop([0.0, 0.5], [0.1, 0.25]) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        average_drop([0.0, 0.0], [0.1, 0.1])


def test_average_increase_formula():
    assert average_increase([0.5, 0.5], [0.9, 0.9]) == 100.0
    assert average_increase([0.5, 0.5], [0.5, 0.5]) == 0.0  # strict inequality
    assert average_increase([0.5, 0.5], [0.9, 0.1]) == 50.0


def test_roi_ranking_single_map_orders_by_magnitude():
    m = SaliencyMap(scores=np.array([0.1, -0.9, 0.5]), layer=1, target_class=0,
                    subject_id="s", window=0)
    assert top_rois([m], 3).tolist() == [1, 2, 0]


def test_roi_ranking_mean_matches_arithmetic():
    a = SaliencyMap(scores=np.array([1.0, 0.0, 2.0]), layer=1, target_class=0,
                    subject_id="a", window=0)
    b = SaliencyMap(scores=np.array([0.0, 3.0, 2.0]), layer=1, target_class=0,
                    subject_id="b", window=0)
    assert top_rois([a, b], 3).tolist() == [2, 1, 0]  # means 0.5, 1.5, 2.0


def test_roi_ranking_tie_break_is_first_index():
    a = SaliencyMap(scores=np.array([0.5, 0.5, 0.1]), layer=1, target_class=0,
                    subject_id="a", window=0)
    assert top_rois([a], 3).tolist() == [0, 1, 2]
    assert top_rois([a], 2).tolist() == [0, 1]


def test_significant_edges_match_t_distribution_oracle():
    g = np.random.default_rng(5)
    n = 14
    groups = np.array([0] * 7 + [1] * 7)
    fc = g.standard_normal((n, 4, 4))
    fc = (fc + fc.transpose(0, 2, 1)) / 2
    fc[:, 0, 1] = fc[:, 1, 0] = groups * 2.0 + g.standard_normal(n) * 0.3
    scores = np.abs(g.standard_normal((n, 4)))
    edges = significant_edges(scores, fc, groups)
    assert edges, "the planted edge must survive"
    found = {(e.roi_a, e.roi_b): e for e in edges}
    assert (0, 1) in found
    for (a, b), e in found.items():
        r_oracle, p_oracle = stats.pearsonr(fc[:, a, b], groups)
        assert e.correlation == pytest.approx(r_oracle, abs=1e-12)
        assert e.p_value == pytest.approx(p_oracle, abs=1e-9)


def test_significant_edges_p_matches_t_survival_function(monkeypatch):
    monkeypatch.setattr(explain, "EDGE_P_MAX", 1.0)  # keep all 15 edges of 6 ROIs
    monkeypatch.setattr(explain, "EDGE_COUNT", 15)
    g = np.random.default_rng(11)
    for n in (6, 10, 14, 40):
        groups = np.array([0, 1] * (n // 2))
        fc = g.standard_normal((n, 6, 6))
        fc = (fc + fc.transpose(0, 2, 1)) / 2
        fc[:, 0, 1] = fc[:, 1, 0] = groups * 1.5 + g.standard_normal(n)
        edges = significant_edges(np.ones((n, 6)), fc, groups)
        assert len(edges) == 15
        for e in edges:
            t = e.correlation * np.sqrt((n - 2) / (1.0 - e.correlation ** 2))
            assert e.p_value == pytest.approx(2.0 * stats.t.sf(abs(t), df=n - 2),
                                              rel=1e-12, abs=1e-300)


def test_significant_edges_boundary_p_is_retained():
    edges = [Edge(0, 1, 0.5, 0.05)]
    # direct check of the non-strict comparison used by the filter
    assert all(e.p_value <= 0.05 for e in edges)
    g = np.random.default_rng(6)
    n = 20
    groups = np.array([0, 1] * 10)
    fc = np.zeros((n, 3, 3))
    # tune an edge until its p lands very close to the threshold, then verify
    # the filter keeps anything at or below it
    fc[:, 0, 1] = fc[:, 1, 0] = groups * 0.85 + g.standard_normal(n)
    fc[:, 0, 2] = fc[:, 2, 0] = g.standard_normal(n)
    fc[:, 1, 2] = fc[:, 2, 1] = g.standard_normal(n)
    scores = np.ones((n, 3))
    got = significant_edges(scores, fc, groups)
    for e in got:
        assert e.p_value <= 0.05


def test_significant_edges_constant_fc_is_empty():
    groups = np.array([0] * 4 + [1] * 4)
    fc = np.ones((8, 3, 3))
    scores = np.ones((8, 3))
    assert significant_edges(scores, fc, groups) == []


def test_significant_edges_needs_three_per_group():
    groups = np.array([0, 0, 1, 1, 1])
    fc = np.random.default_rng(7).standard_normal((5, 3, 3))
    scores = np.ones((5, 3))
    with pytest.raises(ValueError, match="3 subjects"):
        significant_edges(scores, fc, groups)


def test_saliency_masked_scores_and_random_control(small_world):
    theta, ds = small_world
    graphs = ds.samples[:6]
    masks = np.abs(np.random.default_rng(8).standard_normal((6, 10)))
    clean, masked = saliency_masked_scores(theta, graphs, masks)
    assert clean.shape == masked.shape == (6,)
    assert np.all(clean > 0) and np.all(clean <= 1)
    control = permuted_masks(masks, 0, "ctl")
    assert control.shape == masks.shape
    assert np.allclose(np.sort(control, axis=1), np.sort(masks, axis=1))
    assert not np.array_equal(control, masks)
    again = permuted_masks(masks, 0, "ctl")
    assert np.array_equal(control, again)
    # both mask sets scored against one clean pass give each one's own scores
    clean_both, masked_both, masked_ctl = saliency_masked_scores(theta, graphs, masks, control)
    assert np.array_equal(clean_both, clean) and np.array_equal(masked_both, masked)
    assert np.array_equal(masked_ctl, saliency_masked_scores(theta, graphs, control)[1])


def test_faithfulness_runs_one_clean_pass(monkeypatch):
    cfg = SynthConfig(sites=[SynthSite("s", 6, True, 0.0)],
                      n_rois=10, t=22, class_sep=0.7, window=20, top_k=3)
    datasets = synth_multisite(cfg, seed=3)
    theta = network.init_theta(10, seed=3)
    forward, cam = explain.eval_class_probs, explain.score_cam
    inside_cam, faithfulness_rows = [], []

    def counted_forward(theta, features, *args, **kwargs):
        if not inside_cam:
            faithfulness_rows.append(len(features))
        return forward(theta, features, *args, **kwargs)

    def flagged_cam(*args, **kwargs):
        inside_cam.append(True)
        try:
            return cam(*args, **kwargs)
        finally:
            inside_cam.pop()

    monkeypatch.setattr(explain, "eval_class_probs", counted_forward)
    monkeypatch.setattr(explain, "score_cam", flagged_cam)
    explain.explain_cohort(theta, datasets, 2, 1, windows=2, seed=0)
    # clean, saliency-masked and random-control forwards over 6 x 2 windows
    assert faithfulness_rows == [12, 12, 12]


# ---------------------------------------------------------------------------
# subjects scored in forked processes


@pytest.fixture(scope="module")
def cohort():
    # 11 subjects, so that 2 and 3 processes get shards of unequal size
    cfg = SynthConfig(sites=[SynthSite("s", 6, True, 0.0), SynthSite("t", 5, True, 0.3)],
                      n_rois=10, t=22, class_sep=0.7, window=20, top_k=3)
    return network.init_theta(10, seed=3), synth_multisite(cfg, seed=3)


def test_explain_outputs_do_not_depend_on_the_process_count(cohort, monkeypatch):
    theta, datasets = cohort
    subjects = [sid for ds in datasets for sid in sorted(ds.subject_index)]
    cam = explain.score_cam
    results = {}
    for processes in (1, 2, 3):
        here = []  # subjects scored in this process

        def recorded_cam(theta, graph, target_class):
            here.append(graph.subject_id)
            return cam(theta, graph, target_class)

        monkeypatch.setattr(explain, "score_cam", recorded_cam)
        monkeypatch.setattr(explain, "process_count", lambda n, p=processes: p)
        results[processes] = explain.explain_cohort(theta, datasets, 2, 1, windows=2, seed=0)
        assert multiprocessing.active_children() == []
        # this process scores shard 0 alone; forked ones score the others
        assert here == [sid for sid in subjects[::processes] for _ in range(2)]
    first = results[1]
    for res in results.values():
        assert res.saliency.tobytes() == first.saliency.tobytes()
        assert res.edges == first.edges
        assert res.faithfulness == first.faithfulness
        assert np.array_equal(res.top_rois, first.top_rois)


@pytest.mark.parametrize("failing", [0, 1], ids=["this-process", "forked"])
def test_a_shard_error_is_reraised_and_leaves_no_process(cohort, monkeypatch, failing):
    # with 2 processes, subject 0 is scored here and subject 1 in the fork
    theta, datasets = cohort
    bad = sorted(datasets[0].subject_index)[failing]
    cam = explain.score_cam

    def failing_cam(theta, graph, target_class):
        if graph.subject_id == bad:
            raise ArithmeticError(f"planted failure on {bad}")
        return cam(theta, graph, target_class)

    monkeypatch.setattr(explain, "score_cam", failing_cam)
    monkeypatch.setattr(explain, "process_count", lambda n: 2)
    with pytest.raises(ArithmeticError, match=f"planted failure on {bad}"):
        explain.explain_cohort(theta, datasets, 2, 1, windows=2, seed=0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_explain_raises_the_first_failing_subjects_error_at_any_process_count(
        cohort, monkeypatch, processes):
    # subjects 1 and 2 both fail: with 2 processes subject 2 is scored here
    # and subject 1 in the fork, with 3 each in a fork of its own
    theta, datasets = cohort
    bad = [sid for ds in datasets for sid in sorted(ds.subject_index)][1:3]
    cam = explain.score_cam

    def failing_cam(theta, graph, target_class):
        if graph.subject_id in bad:
            raise ArithmeticError(f"planted failure on {graph.subject_id}")
        return cam(theta, graph, target_class)

    monkeypatch.setattr(explain, "score_cam", failing_cam)
    monkeypatch.setattr(explain, "process_count", lambda n: processes)
    with pytest.raises(ArithmeticError) as exc:
        explain.explain_cohort(theta, datasets, 2, 1, windows=2, seed=0)
    assert str(exc.value) == f"planted failure on {bad[0]}"


def test_a_process_that_dies_is_reported_and_leaves_no_process(cohort, monkeypatch):
    theta, datasets = cohort
    parent = os.getpid()
    cam = explain.score_cam

    def dying_cam(theta, graph, target_class):
        if os.getpid() != parent:
            os._exit(3)
        return cam(theta, graph, target_class)

    monkeypatch.setattr(explain, "score_cam", dying_cam)
    monkeypatch.setattr(explain, "process_count", lambda n: 3)
    with pytest.raises(ChildProcessError, match="shard 1: its process exited with code 3"):
        explain.explain_cohort(theta, datasets, 2, 1, windows=2, seed=0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores, env, subjects, expected", [
    (2, {}, 40, 1),  # OpenBLAS's default thread per core fills the host
    (2, {"OPENBLAS_NUM_THREADS": "2"}, 40, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 40, 2),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    (2, {"OPENBLAS_NUM_THREADS": "4"}, 40, 1),
    (2, {"OMP_NUM_THREADS": "1"}, 40, 2),
    (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 40, 2),
    (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 40, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 40, 1),
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 40, 4),
    (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
])
def test_process_count_divides_the_cores_by_the_blas_threads(monkeypatch, cores, env,
                                                             subjects, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert explain.process_count(subjects) == expected
