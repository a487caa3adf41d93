"""Command-line behavior: determinism, exit codes, ablation switches, fold
contracts, and output files."""

import csv

import numpy as np
import pytest

from dafed import cli, wire
from dafed import tensor as tt
from dafed.cli import subject_folds
from dafed.config import ConfigError, parse_config
from dafed.data import SynthConfig, SynthSite, synth_multisite


BASE_CFG = """
seed = 0
rounds = {rounds}
mode = {mode}
data = synth
rois = 10
t_points = 24
subjects = 4
class_sep = 0.6
window = 20
top_k = 3
alpha = 0.01
lr_profile = decay
lr_base = 0.005
lr_decay = 0.99
explain_windows = 2
use_cl = {use_cl}
site.0.id = central
site.0.role = source
site.0.shift = 0.0
site.1.id = edge
site.1.role = {target_role}
site.1.shift = 0.3
"""


def write_cfg(path, rounds=3, mode="dafed_u", use_cl="true",
              target_role="target_unlabeled", extra=""):
    path.write_text(BASE_CFG.format(rounds=rounds, mode=mode, use_cl=use_cl,
                                    target_role=target_role) + extra)
    return path


def read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_cfg(cfg, extra="window = 20\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("", "batch_denom = 0", "batch_denom"),
    ("top_k = 3", "top_k = 10", "top_k"),  # rois = 10
    ("top_k = 3", "top_k = 0", "top_k"),
    ("window = 20", "window = 30", "window"),  # t_points = 24
    ("", "site.1.t_points = 18", "site.1.t_points"),  # window = 20
    ("lr_base = 0.005", "lr_base = 0", "lr_base"),
])
def test_bad_value_exits_2_naming_the_key(tmp_path, capsys, old, new, key):
    cfg = write_cfg(tmp_path / "run.cfg")
    text = cfg.read_text()
    cfg.write_text(text.replace(old, new) if old else text + new + "\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


def test_config_requires_one_source(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("site.0.role = target_unlabeled\n")
    with pytest.raises(ConfigError, match="source"):
        parse_config(cfg)


def test_config_defaults_and_overrides(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg")
    parsed = parse_config(cfg)
    assert parsed.lambda_mi == 1.0 and parsed.gamma == 10.0 and parsed.queue == 5
    assert parsed.seed == 0
    overridden = parse_config(cfg, {"seed": 7})
    assert overridden.seed == 7
    assert overridden.digest() != parsed.digest()


def test_config_digest_is_stable(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg")
    assert parse_config(cfg).digest() == parse_config(cfg).digest()


def test_labeled_target_requires_labeled_mode(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", target_role="target_labeled")
    with pytest.raises(ConfigError, match="dafed_l"):
        parse_config(cfg)


# ---------------------------------------------------------------------------
# synth


def test_synth_is_byte_identical_across_runs(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg")
    for out in ("a", "b"):
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    files_a = sorted((tmp_path / "a").rglob("*.csv"))
    files_b = sorted((tmp_path / "b").rglob("*.csv"))
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_synth_manifest_round_trips_through_training(tmp_path):
    cfg_path = write_cfg(tmp_path / "run.cfg", rounds=2)
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    manifest_cfg = tmp_path / "mrun.cfg"
    base = cfg_path.read_text().replace("data = synth",
                                        f"data = manifest\nmanifest = {tmp_path / 'd' / 'manifest.csv'}")
    manifest_cfg.write_text(base)
    assert cli.main(["train", "--config", str(manifest_cfg),
                     "--out", str(tmp_path / "mtrain")]) == 0
    rows = read_metrics(tmp_path / "mtrain" / "metrics.csv")
    assert {r["site"] for r in rows} == {"central", "edge"}


@pytest.mark.parametrize("old, new, message", [
    ("window = 20", "window = 30", r"window = 30 is longer than the 24 points of .*\.csv"),
    ("top_k = 3", "top_k = 10", r"top_k = 10 must be below the 10 ROIs of .*\.csv"),
])
def test_manifest_config_errors_exit_2_naming_key_and_file(tmp_path, capsys, old, new, message):
    cfg_path = write_cfg(tmp_path / "run.cfg")
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    manifest_cfg = tmp_path / "mrun.cfg"
    text = cfg_path.read_text().replace(
        "data = synth", f"data = manifest\nmanifest = {tmp_path / 'd' / 'manifest.csv'}")
    manifest_cfg.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=message):
        cli._load_datasets(parse_config(manifest_cfg))
    assert cli.main(["train", "--config", str(manifest_cfg),
                     "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {new}")


def test_synth_window_count_matches_published_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
seed = 0
rounds = 1
data = synth
rois = 6
t_points = 176
subjects = 1
window = 20
top_k = 2
lr_profile = decay
lr_base = 0.001
site.0.id = central
site.0.role = source
site.1.id = edge
site.1.role = target_unlabeled
site.1.shift = 0.2
""")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "157 windows/subject" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train


def test_train_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=4)
    for out in ("r1", "r2"):
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    m1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
    assert m1 == m2
    c1 = (tmp_path / "r1" / "checkpoint_final.ckpt").read_bytes()
    c2 = (tmp_path / "r2" / "checkpoint_final.ckpt").read_bytes()
    assert c1 == c2


def test_train_metrics_header_contract(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=2)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    first = (tmp_path / "o" / "metrics.csv").read_text().splitlines()[0]
    assert first == "round,site,role,L_C,L_MI,L_CL,L_DI,lambda_p,lr,acc,bytes_up,bytes_down"


def test_train_without_contrastive_zeroes_column(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=4, use_cl="false")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = read_metrics(tmp_path / "o" / "metrics.csv")
    assert all(float(r["L_CL"]) == 0.0 for r in rows)


def test_labeled_mode_adds_classification_at_targets(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=3, mode="dafed_l",
                    target_role="target_labeled")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = read_metrics(tmp_path / "o" / "metrics.csv")
    target_rows = [r for r in rows if r["site"] == "edge"]
    assert all(r["role"] == "target_labeled" for r in target_rows)
    assert all(float(r["L_C"]) > 0.0 for r in target_rows)


def test_train_writes_periodic_checkpoints(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=21)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    names = {p.name for p in (tmp_path / "o").glob("*.ckpt")}
    assert {"checkpoint_r0010.ckpt", "checkpoint_r0020.ckpt", "checkpoint_final.ckpt"} <= names


# ---------------------------------------------------------------------------
# eval


@pytest.fixture()
def trained(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=3)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    return cfg, tmp_path / "t" / "checkpoint_final.ckpt"


def test_eval_constant_model_scores_half(tmp_path, trained, capsys):
    cfg, ckpt = trained
    theta, round_idx, digest, digs = wire.load_checkpoint(ckpt)
    theta["clf.fc2.w"].data[...] = 0.0
    theta["clf.fc2.b"].data[...] = 0.0
    flat = tmp_path / "flat.ckpt"
    wire.save_checkpoint(flat, theta, round_idx, digest, digs)
    assert cli.main(["eval", str(flat), "--config", str(cfg), "--folds", "2",
                     "--out", str(tmp_path / "ev")]) == 0
    out = capsys.readouterr().out
    assert "window accuracy 0.5" in out


def test_eval_fold_mean_matches_csv(tmp_path, trained, capsys):
    cfg, ckpt = trained
    assert cli.main(["eval", str(ckpt), "--config", str(cfg), "--folds", "2",
                     "--out", str(tmp_path / "ev")]) == 0
    rows = list(csv.DictReader((tmp_path / "ev" / "eval.csv").open()))
    for site in ("central", "edge"):
        fold_accs = [float(r["acc"]) for r in rows
                     if r["site"] == site and r["fold"] not in ("mean", "std")]
        mean = [float(r["acc"]) for r in rows if r["site"] == site and r["fold"] == "mean"][0]
        assert abs(np.mean(fold_accs) - mean) < 1e-12


def test_eval_rejects_too_many_folds(tmp_path, trained, capsys):
    cfg, ckpt = trained
    code = cli.main(["eval", str(ckpt), "--config", str(cfg), "--folds", "5"])
    assert code == 2
    assert "subjects" in capsys.readouterr().err


def test_subject_folds_partition_exactly_once():
    cfg = SynthConfig(sites=[SynthSite("s", 8, True, 0.0)], n_rois=8, t=24,
                      class_sep=0.6, window=20, top_k=3)
    ds = synth_multisite(cfg, seed=0)[0]
    folds = subject_folds(ds, 4)
    seen = sorted(i for fold in folds for i in fold)
    assert seen == list(range(len(ds.samples)))
    for fold in folds:
        subjects = {ds.samples[i].subject_id for i in fold}
        for other in folds:
            if other is not fold:
                assert subjects.isdisjoint({ds.samples[i].subject_id for i in other})


# ---------------------------------------------------------------------------
# explain


def test_explain_outputs_and_ranges(tmp_path, trained):
    cfg, ckpt = trained
    assert cli.main(["explain", str(ckpt), "--config", str(cfg),
                     "--out", str(tmp_path / "ex")]) == 0
    sal = list(csv.DictReader((tmp_path / "ex" / "saliency.csv").open()))
    assert len(sal) == 10 * 4  # one row per (roi, layer)
    assert {(r["roi_index"], r["layer"]) for r in sal} == {(str(i), str(l))
                                                           for i in range(10) for l in range(1, 5)}
    faith = list(csv.DictReader((tmp_path / "ex" / "faithfulness.csv").open()))
    for row in faith:
        assert 0.0 <= float(row["average_drop"]) <= 100.0
        assert 0.0 <= float(row["average_increase"]) <= 100.0
    edges = list(csv.DictReader((tmp_path / "ex" / "edges.csv").open()))
    for row in edges:
        assert 0.0 <= float(row["p_value"]) <= 0.05


def test_explain_rerun_is_byte_identical(tmp_path, trained):
    cfg, ckpt = trained
    for out in ("e1", "e2"):
        assert cli.main(["explain", str(ckpt), "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
    for name in ("saliency.csv", "edges.csv", "faithfulness.csv"):
        assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes()


def test_explain_rejects_bad_layer(tmp_path, trained):
    cfg, ckpt = trained
    assert cli.main(["explain", str(ckpt), "--config", str(cfg), "--layer", "7",
                     "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_reports_worst(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg")
    assert cli.main(["gradcheck", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "at parameter" in out and "pass" in out


def test_gradcheck_detects_corrupted_backward_rule(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path / "run.cfg")
    true_relu = tt.relu

    def broken_relu(a):
        a = a if isinstance(a, tt.Tensor) else tt.Tensor(a)
        mask = a.data > 0
        # wrong slope on the active branch
        return tt.Tensor(np.where(mask, a.data, 0.0),
                         parents=[(a, lambda g: 1.5 * g * mask)], op="relu")

    monkeypatch.setattr(tt, "relu", broken_relu)
    try:
        code = cli.main(["gradcheck", "--config", str(cfg)])
    finally:
        monkeypatch.setattr(tt, "relu", true_relu)
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
