"""Connectivity pipeline: window arithmetic, Pearson/Fisher oracles, graph
construction, synthetic generator, CSV ingestion."""

import hashlib
import logging
import math

import numpy as np
import pytest

from dafed import data, rng
from conftest import normalize_adjacency_oracle


def pearson_pair(x, y):
    """Textbook two-pass Pearson formula, the independent oracle."""
    mx, my = x.mean(), y.mean()
    num = ((x - mx) * (y - my)).sum()
    den = math.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
    return num / den


# ---------------------------------------------------------------------------
# sliding windows


@pytest.mark.parametrize("t,expected", [
    (176, 157), (296, 277), (236, 217), (116, 97),  # four-site cohort
    (187, 168), (200, 181), (190, 171),             # three-scanner cohort
])
def test_window_counts_match_published_truncations(t, expected):
    assert len(data.sliding_windows(t, 20, 1)) == expected


def test_single_window_at_boundary():
    assert data.sliding_windows(20, 20, 1) == [(0, 20)]


def test_window_count_formula_with_stride():
    for t in (21, 35, 64):
        for w in (5, 20):
            for stride in (1, 2, 3):
                got = len(data.sliding_windows(t, w, stride))
                assert got == (t - w) // stride + 1


def test_too_short_series_rejected():
    with pytest.raises(ValueError, match="at least 20"):
        data.sliding_windows(19, 20)


# ---------------------------------------------------------------------------
# correlations


def test_identical_columns_correlate_to_one():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(20)
    win = np.column_stack([col, col, rng.standard_normal(20)])
    corr = data.pearson_matrix(win)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
    win2 = np.column_stack([col, -col])
    assert data.pearson_matrix(win2)[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        win = rng.standard_normal((20, 4))
        corr = data.pearson_matrix(win)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(corr[i, j] - pearson_pair(win[:, i], win[:, j])) < 1e-12
        assert np.array_equal(corr, corr.T)
        assert np.all(np.diag(corr) == 1.0)
        assert corr.min() >= -1.0 and corr.max() <= 1.0


def test_flat_column_raises_with_roi():
    win = np.random.default_rng(1).standard_normal((20, 3))
    win[:, 2] = 4.2
    with pytest.raises(data.ZeroVarianceError) as exc:
        data.pearson_matrix(win)
    assert exc.value.roi == 2


def test_pearson_on_a_stack_equals_each_window():
    stack = np.random.default_rng(8).standard_normal((5, 20, 6))
    corr = data.pearson_matrix(stack)
    for i in range(5):
        assert corr[i].tobytes() == data.pearson_matrix(stack[i]).tobytes()
    stack[3, :, 4] = -1.5
    with pytest.raises(data.ZeroVarianceError) as exc:
        data.pearson_matrix(stack)
    assert exc.value.roi == 4
    assert np.array_equal(np.argwhere(exc.value.flat), [[3, 4]])


def test_fisher_z_values():
    assert data.fisher_z(0.0) == 0.0
    assert data.fisher_z(0.5) == pytest.approx(math.atanh(0.5), abs=1e-15)
    assert data.fisher_z(1.0) == pytest.approx(math.atanh(0.999), abs=1e-15)
    assert data.fisher_z(1.0) == pytest.approx(3.8002, abs=1e-4)


def test_fisher_z_is_odd():
    rs = np.linspace(-1.0, 1.0, 41)
    assert np.array_equal(data.fisher_z(-rs), -data.fisher_z(rs))


# ---------------------------------------------------------------------------
# graph construction


def _sym(r, seed):
    m = np.random.default_rng(seed).standard_normal((r, r))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, data.fisher_z(1.0))
    return m


def test_build_graph_matches_brute_force_topk():
    fc = _sym(6, 3)
    adj = data.top_k_adjacency(fc, 2)
    expect = np.zeros((6, 6))
    for i in range(6):
        strengths = [(abs(fc[i, j]), -j) for j in range(6) if j != i]
        keep = sorted(strengths, reverse=True)[:2]
        for s, nj in keep:
            expect[i, -nj] = s
    expect = np.maximum(expect, expect.T)
    assert np.array_equal(adj, expect)


def test_build_graph_symmetry_and_degree_bounds():
    # every row keeps at least its own k picks; max-symmetrization can only
    # add, and the total edge count is bounded by 2k per row on average
    for seed in range(5):
        fc = _sym(9, seed)
        for k in (1, 3, 5):
            adj = data.top_k_adjacency(fc, k)
            assert np.array_equal(adj, adj.T)
            assert np.all(np.diag(adj) == 0.0)
            nnz = (adj != 0).sum(axis=1)
            assert np.all(nnz >= k)
            assert nnz.sum() <= 2 * k * 9


def test_build_graph_tie_break_is_first_index():
    fc = np.full((4, 4), 0.3)
    np.fill_diagonal(fc, data.fisher_z(1.0))
    adj = data.top_k_adjacency(fc, 1)
    # row 0 keeps column 1 (first off-diagonal), row 1 keeps column 0, etc.
    assert adj[0, 1] == 0.3 and adj[0, 2] == 0.3  # symmetrization adds row 2's pick
    assert adj[1, 0] == 0.3
    assert adj[3, 0] == 0.3 and adj[3, 2] == 0.0


def _top_k_by_stable_sort(fc, k):
    """The top-k rule written as a full stable sort of each row by -|z|: the
    k first entries of the sorted row, so ties keep their lowest indices."""
    strength = np.abs(fc)
    r = fc.shape[-1]
    strength[..., np.arange(r), np.arange(r)] = -np.inf
    top = np.argsort(-strength, axis=-1, kind="stable")[..., :k]
    adj = np.zeros_like(strength)
    np.put_along_axis(adj, top, np.take_along_axis(strength, top, axis=-1), axis=-1)
    return np.maximum(adj, np.swapaxes(adj, -1, -2))


@pytest.mark.parametrize("r", [2, 3, 7, 16])
@pytest.mark.parametrize("seed", range(3))
def test_top_k_adjacency_matches_the_stable_sort_rule(r, seed):
    g = np.random.default_rng(seed)
    ints = g.integers(-3, 4, size=(5, r, r)).astype(np.float64)
    plain = g.standard_normal((5, r, r))
    rows = np.repeat(g.integers(0, 3, size=(4, r, 1)).astype(np.float64), r, axis=-1)
    stacks = {
        "integer": ints + np.swapaxes(ints, -1, -2),  # ties are common
        "negated integer": -(ints + np.swapaxes(ints, -1, -2)),  # -0.0 ties +0.0 in |z|
        "plain": plain + np.swapaxes(plain, -1, -2),
        "all equal": np.full((2, r, r), 0.25 * (seed + 1)),
        "equal rows": np.minimum(rows, np.swapaxes(rows, -1, -2)),
    }
    for name, fc in stacks.items():
        for k in range(1, r):  # k = 1 to k = R - 1
            got = data.top_k_adjacency(fc, k)
            want = _top_k_by_stable_sort(fc, k)
            assert got.tobytes() == want.tobytes(), (name, k)
            assert data.top_k_adjacency(fc[0], k).tobytes() == want[0].tobytes(), (name, k)


def test_build_graph_k_out_of_range():
    fc = _sym(4, 0)
    with pytest.raises(ValueError):
        data.top_k_adjacency(fc, 0)
    with pytest.raises(ValueError):
        data.top_k_adjacency(fc, 4)


def _graphs_oracle(ts, window, stride, k):
    """(window index, adjacency, features) per kept window, computed one
    window and one ROI row at a time, as the pipeline was first written."""
    out = []
    for w_idx, (start, stop) in enumerate(data.sliding_windows(ts.values.shape[0], window, stride)):
        x = np.asarray(ts.values[start:stop], dtype=np.float64)
        centered = x - x.mean(axis=0)
        ss = (centered * centered).sum(axis=0)
        if np.any(ss / x.shape[0] <= data.VAR_FLOOR):
            continue
        denom = np.sqrt(ss)
        corr = (centered.T @ centered) / np.outer(denom, denom)
        corr = (corr + corr.T) / 2.0
        np.clip(corr, -1.0, 1.0, out=corr)
        np.fill_diagonal(corr, 1.0)
        fc = np.arctanh(np.clip(corr, -data.R_CLIP, data.R_CLIP))
        r = fc.shape[0]
        strength = np.abs(fc)
        np.fill_diagonal(strength, -np.inf)
        adj = np.zeros((r, r))
        for i in range(r):
            top = np.argsort(-strength[i], kind="stable")[:k]
            adj[i, top] = strength[i, top]
        out.append((w_idx, np.maximum(adj, adj.T), fc))
    return out


def _random_series(t=40, r=8, seed=0):
    return np.random.default_rng(seed).standard_normal((t, r))


def _tied_series():
    # duplicated and negated columns give exactly equal |z| in every row
    x = _random_series(36, 9, 1)
    x[:, 1] = x[:, 0]
    x[:, 4] = -x[:, 3]
    x[:, 7] = x[:, 3]
    return x


def _flat_series():
    x = _random_series(30, 6, 2)
    x[5:20, 2] = 1.25  # windows 5..10 of width 10 see ROI 2 flat
    return x


@pytest.mark.parametrize("values, window, stride, k", [
    pytest.param(_random_series(), 20, 1, 3, id="random"),
    pytest.param(_tied_series(), 12, 1, 4, id="tied"),
    pytest.param(_flat_series(), 10, 1, 2, id="flat-roi"),
    pytest.param(_random_series(41, 7, 3), 10, 2, 3, id="stride-2"),
    pytest.param(_random_series(30, 6, 4), 12, 1, 1, id="k-1"),
    pytest.param(_random_series(30, 6, 5), 12, 3, 5, id="k-r-minus-1"),
])
def test_series_to_graphs_matches_per_window_oracle_bytes(values, window, stride, k, caplog):
    ts = data.TimeSeries("subj", "site", 1, values, truth=1)
    with caplog.at_level(logging.WARNING, logger="dafed.data"):
        ds = data.series_to_graphs([ts], window, stride, k)
    graphs = ds.samples
    expect = _graphs_oracle(ts, window, stride, k)
    assert [g.window for g in graphs] == [w for w, _, _ in expect]
    rows = zip(graphs, data.top_k_adjacency(ds.features, k), ds.labels, ds.truth, expect)
    for g, a, label, truth, (_, adj, fc) in rows:
        assert a.tobytes() == adj.tobytes()
        assert g.propagation.tobytes() == normalize_adjacency_oracle(adj).tobytes()
        assert g.features.tobytes() == fc.tobytes()
        assert (label, truth, ds.site_id, g.subject_id) == (1, 1, "site", "subj")
    skipped = sorted(set(range(len(data.sliding_windows(len(values), window, stride))))
                     - {g.window for g in graphs})
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping window: subject=subj window={w} roi=2 has zero variance" for w in skipped]


def test_flat_roi_windows_are_skipped_and_later_indices_kept():
    ts = data.TimeSeries("subj", "site", 0, _flat_series())
    windows = [g.window for g in data.series_to_graphs([ts], 10, 1, 2).samples]
    assert windows == [0, 1, 2, 3, 4] + list(range(11, 21))


def test_series_with_only_flat_windows_gives_no_graphs():
    values = _random_series(12, 4, 6)
    values[:, 1] = 0.0
    ts = data.TimeSeries("subj", "site", 0, values)
    assert data.series_to_graphs([ts], 10, 1, 2).samples == []


def test_subject_index_is_in_id_order_whatever_the_series_order():
    s2 = data.TimeSeries("s2", "site", 0, _random_series(22, 4, 1))
    s1 = data.TimeSeries("s1", "site", 1, _random_series(21, 4, 2))
    ds = data.series_to_graphs([s2, s1], 20, 1, 2)
    assert list(ds.subject_index.items()) == [("s1", [3, 4]), ("s2", [0, 1, 2])]


def test_graph_features_diagonal_is_clipped_transform():
    ts = data.TimeSeries("s", "a", 0, np.random.default_rng(2).standard_normal((25, 5)))
    graphs = data.series_to_graphs([ts], 20, 1, 2).samples
    assert len(graphs) == 6
    for g in graphs:
        assert np.allclose(np.diag(g.features), math.atanh(0.999))
        assert np.array_equal(g.features, g.features.T)


# ---------------------------------------------------------------------------
# synthetic generator


def _cfg(**kw):
    sites = kw.pop("sites", [
        data.SynthSite("src", 6, True, 0.0),
        data.SynthSite("tgt", 6, False, 0.3),
    ])
    base = dict(n_rois=10, t=30, class_sep=0.6, window=20, top_k=3)
    base.update(kw)
    return data.SynthConfig(sites=sites, **base)


def test_synth_is_deterministic():
    a = data.synth_multisite(_cfg(), seed=11)
    b = data.synth_multisite(_cfg(), seed=11)
    for da, db in zip(a, b):
        assert da.site_id == db.site_id
        assert len(da.samples) == len(db.samples)
        for ga, gb in zip(da.samples, db.samples):
            assert np.array_equal(ga.features, gb.features)
            assert np.array_equal(ga.propagation, gb.propagation)
        assert np.array_equal(da.labels, db.labels)


# SHA-256 of the stacked adjacency and feature bytes of every window of a small
# cohort, recorded when each window and each ROI row was still built on its own,
# and of the propagation matrices, recorded when each was still normalized on
# its own
PINNED_ADJACENCY = "9e0c6be5be681a06180d0841efd87530335beabebe6e2596e36cbe36a77c2209"
PINNED_FEATURES = "25416223b6a7288ba5ad10979a9da08a0bff0f790d6c8c3c0de9279b0399e979"
PINNED_PROPAGATION = "7f0d8ea576db8b7e7dbf95d34ffee04e1180f4b2a76c4aa8dbcbcf5cdc4c04c3"


def test_synth_graph_bytes_are_pinned():
    datasets = data.synth_multisite(_cfg(), seed=5)
    features = np.concatenate([ds.features for ds in datasets])
    assert len(features) == 132
    propagation = np.concatenate([ds.propagation for ds in datasets])
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in
                    (data.top_k_adjacency(features, _cfg().top_k), features, propagation))
    assert digests == (PINNED_ADJACENCY, PINNED_FEATURES, PINNED_PROPAGATION)


def _synth_series_oracle(cfg, seed):
    """The generator with its AR(1) recursion run subject by subject."""
    chol = {0: data._class_chol(cfg, 0), 1: data._class_chol(cfg, 1)}
    out = []
    for site in cfg.sites:
        mixer = data._site_mixer(cfg, site, seed)
        t_len = site.t or cfg.t
        n0 = int(round(cfg.class_balance * site.subjects))
        for j in range(site.subjects):
            label = 0 if j < n0 else 1
            subject_id = f"{site.site_id}_s{j:03d}"
            z = rng.stream(seed, "subject", site.site_id, subject_id).standard_normal(
                (data.BURN_IN + t_len, cfg.n_rois))
            innov = z @ chol[label].T @ mixer.T
            x = np.empty_like(innov)
            x[0] = innov[0]
            for step in range(1, innov.shape[0]):
                x[step] = cfg.ar_coeff * x[step - 1] + innov[step]
            out.append((subject_id, site.site_id, label if site.labeled else None, label,
                        x[data.BURN_IN:]))
    return out


@pytest.mark.parametrize("cfg", [
    _cfg(),
    _cfg(sites=[data.SynthSite("a", 1, True, 0.0), data.SynthSite("b", 5, False, 0.7, t=41),
                data.SynthSite("c", 3, True, 1.0, t=20)], ar_coeff=-0.9, class_balance=0.3),
])
def test_synth_series_matches_per_subject_oracle_bytes(cfg):
    got = data.synth_series(cfg, seed=7)
    want = _synth_series_oracle(cfg, seed=7)
    assert len(got) == len(want)
    for ts, (subject_id, site_id, label, truth, values) in zip(got, want):
        assert (ts.subject_id, ts.site_id, ts.label, ts.truth) == (subject_id, site_id, label, truth)
        assert ts.values.shape == values.shape
        assert ts.values.tobytes() == values.tobytes()


def test_synth_different_seeds_differ():
    a = data.synth_multisite(_cfg(), seed=11)
    b = data.synth_multisite(_cfg(), seed=12)
    assert not np.array_equal(a[0].samples[0].features, b[0].samples[0].features)


def test_zero_shift_sites_share_distribution():
    # windows of one subject are dependent, so compare subject-level mean FC;
    # subjects are independent draws from the same distribution when shift=0
    sites = [data.SynthSite("a", 16, True, 0.0), data.SynthSite("b", 16, True, 0.0)]
    dsets = data.synth_multisite(_cfg(sites=sites), seed=4)
    per_subject = []
    for ds in dsets:
        rows = {}
        for g in ds.samples:
            rows.setdefault(g.subject_id, []).append(g.features[np.triu_indices(10, 1)])
        per_subject.append(np.array([np.mean(v, axis=0) for v in rows.values()]))
    means = [f.mean(axis=0) for f in per_subject]
    pooled_var = (per_subject[0].var(axis=0) + per_subject[1].var(axis=0)) / 2
    n = per_subject[0].shape[0]
    bound = 4.0 * np.sqrt(pooled_var * 2.0 / n)
    assert np.all(np.abs(means[0] - means[1]) <= bound + 1e-9)


def test_strong_separation_is_linearly_probeable():
    sites = [data.SynthSite("one", 20, True, 0.0)]
    ds = data.synth_multisite(_cfg(sites=sites, class_sep=0.8), seed=0)[0]
    feats = np.array([g.features[np.triu_indices(10, 1)] for g in ds.samples])
    labels = ds.labels
    subjects = ds.subject
    train = np.isin(subjects, np.unique(subjects)[::2])
    mu, sd = feats[train].mean(0), feats[train].std(0) + 1e-12
    z = (feats - mu) / sd
    # nearest-centroid linear probe on held-out subjects
    w = z[train & (labels == 1)].mean(0) - z[train & (labels == 0)].mean(0)
    mid = (z[train & (labels == 1)].mean(0) + z[train & (labels == 0)].mean(0)) / 2
    pred = ((z - mid) @ w > 0).astype(int)
    acc = (pred[~train] == labels[~train]).mean()
    assert acc > 0.9


def test_synth_hidden_labels_align_with_labeled_sites():
    dsets = data.synth_multisite(_cfg(), seed=2)
    labeled = dsets[0]
    assert np.array_equal(labeled.truth, labeled.labels)
    unlabeled = dsets[1]
    assert unlabeled.labels is None
    assert set(np.unique(unlabeled.truth)) == {0, 1}


def test_synth_config_validation():
    with pytest.raises(ValueError):
        data.synth_multisite(_cfg(class_sep=1.5), seed=0)
    with pytest.raises(ValueError):
        data.synth_multisite(_cfg(sites=[data.SynthSite("x", 0, True, 0.0)]), seed=0)
    with pytest.raises(ValueError):
        data.synth_multisite(_cfg(sites=[data.SynthSite("x", 3, True, -0.1)]), seed=0)


# ---------------------------------------------------------------------------
# ingestion


def _write_series(path, arr):
    with open(path, "w") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_manifest(path, rows):
    with open(path, "w") as fh:
        fh.write("subject_id,site_id,label,path\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def test_ingest_single_subject(tmp_path):
    arr = np.random.default_rng(0).standard_normal((20, 3))
    _write_series(tmp_path / "s1.csv", arr)
    _write_manifest(tmp_path / "manifest.csv", [("s1", "site_a", "1", "s1.csv")])
    dsets = data.ingest_csv(tmp_path / "manifest.csv", {"site_a": "source"},
                            window=20, stride=1, k=2)
    assert len(dsets) == 1
    assert len(dsets[0].samples) == 1
    assert dsets[0].labeled and dsets[0].labels[0] == 1


def test_ingest_cohort_shape_window_count(tmp_path):
    arr = np.random.default_rng(1).standard_normal((176, 111))
    _write_series(tmp_path / "s1.csv", arr)
    _write_manifest(tmp_path / "manifest.csv", [("s1", "site_a", "0", "s1.csv")])
    dsets = data.ingest_csv(tmp_path / "manifest.csv", {"site_a": "source"},
                            window=20, stride=1, k=10)
    assert len(dsets[0].samples) == 157


def test_ingest_empty_label_means_unlabeled(tmp_path):
    arr = np.random.default_rng(2).standard_normal((22, 4))
    _write_series(tmp_path / "s1.csv", arr)
    _write_manifest(tmp_path / "manifest.csv", [("s1", "site_u", "", "s1.csv")])
    ds = data.ingest_csv(tmp_path / "manifest.csv", {"site_u": "target_unlabeled"},
                         window=20, stride=1, k=2)[0]
    assert not ds.labeled
    assert ds.labels is None


def test_ingest_ragged_rows_rejected_with_location(tmp_path):
    with open(tmp_path / "bad.csv", "w") as fh:
        fh.write("1.0,2.0,3.0\n1.0,2.0\n")
    _write_manifest(tmp_path / "manifest.csv", [("s1", "a", "0", "bad.csv")])
    with pytest.raises(data.IngestError, match=r"bad\.csv:2"):
        data.ingest_csv(tmp_path / "manifest.csv", {"a": "source"}, window=2, stride=1, k=1)


def test_ingest_non_numeric_rejected(tmp_path):
    with open(tmp_path / "bad.csv", "w") as fh:
        fh.write("1.0,2.0\n1.0,oops\n")
    _write_manifest(tmp_path / "manifest.csv", [("s1", "a", "0", "bad.csv")])
    with pytest.raises(data.IngestError, match=r"bad\.csv:2"):
        data.ingest_csv(tmp_path / "manifest.csv", {"a": "source"}, window=2, stride=1, k=1)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_ingest_non_finite_rejected(tmp_path, cell):
    with open(tmp_path / "bad.csv", "w") as fh:
        fh.write(f"1.0,2.0\n1.0,{cell}\n")
    _write_manifest(tmp_path / "manifest.csv", [("s1", "a", "0", "bad.csv")])
    with pytest.raises(data.IngestError, match=r"bad\.csv:2: non-finite"):
        data.ingest_csv(tmp_path / "manifest.csv", {"a": "source"}, window=2, stride=1, k=1)


@pytest.mark.parametrize("label", ["2", "-1", "1.0", "yes"])
def test_ingest_label_outside_0_1_rejected(tmp_path, label):
    _write_series(tmp_path / "s1.csv", np.random.default_rng(7).standard_normal((20, 3)))
    _write_series(tmp_path / "s2.csv", np.random.default_rng(8).standard_normal((20, 3)))
    _write_manifest(tmp_path / "manifest.csv",
                    [("s1", "site", "0", "s1.csv"), ("s2", "site", label, "s2.csv")])
    with pytest.raises(data.IngestError, match=r"manifest\.csv:3: label must be 0, 1 or empty"):
        data.ingest_csv(tmp_path / "manifest.csv", {"site": "source"}, window=20, stride=1, k=2)


def test_ingest_inconsistent_rois_rejected(tmp_path):
    _write_series(tmp_path / "a.csv", np.zeros((20, 3)) + np.random.default_rng(3).standard_normal((20, 3)))
    _write_series(tmp_path / "b.csv", np.random.default_rng(4).standard_normal((20, 4)))
    _write_manifest(tmp_path / "manifest.csv",
                    [("s1", "site", "0", "a.csv"), ("s2", "site", "1", "b.csv")])
    with pytest.raises(data.IngestError, match="inconsistent"):
        data.ingest_csv(tmp_path / "manifest.csv", {"site": "source"}, window=20, stride=1, k=2)


def test_ingest_mixed_labeling_rejected(tmp_path):
    _write_series(tmp_path / "a.csv", np.random.default_rng(5).standard_normal((20, 3)))
    _write_series(tmp_path / "b.csv", np.random.default_rng(6).standard_normal((20, 3)))
    _write_manifest(tmp_path / "manifest.csv",
                    [("s1", "site", "0", "a.csv"), ("s2", "site", "", "b.csv")])
    with pytest.raises(data.IngestError, match="mixes"):
        data.ingest_csv(tmp_path / "manifest.csv", {"site": "source"}, window=20, stride=1, k=2)
