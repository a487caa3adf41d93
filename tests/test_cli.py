"""Command-line behavior: determinism, exit codes, ablation switches, fold
contracts, and output files."""

import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dafed import cli, explain, fedsim, network, wire
from dafed import tensor as tt
from dafed.explain import subject_folds
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
    # ranges of the generator and of the window pipeline
    ("class_sep = 0.6", "class_sep = 1.5", "class_sep"),
    ("", "class_balance = 1", "class_balance"),
    ("", "signal_frac = 0", "signal_frac"),
    ("", "ar_coeff = 1.0", "ar_coeff"),
    ("", "stride = 0", "stride"),
    ("window = 20", "window = 1", "window"),
    ("site.1.shift = 0.3", "site.1.shift = -0.5", "shift"),
    # a zero per-site value is a value, not "use the global one"
    ("", "site.1.subjects = 0", "subjects"),
    ("", "site.1.t_points = 0", "site.1.t_points"),
    # non-finite numbers
    ("", "lambda_mi = nan", "lambda_mi"),
    ("alpha = 0.01", "alpha = nan", "alpha"),
    ("", "tau = inf", "tau"),
    ("site.1.shift = 0.3", "site.1.shift = nan", "shift"),
    # read only by explain, which indexed an empty window list
    ("explain_windows = 2", "explain_windows = 0", "explain_windows"),
    # negative loss weights and schedule values
    ("", "lambda_mi = -1", "lambda_mi"),
    ("", "lambda_cl = -0.5", "lambda_cl"),
    ("", "gamma = -1", "gamma"),
    ("", "lr_warmup = -5", "lr_warmup"),
    # a decay rate outside (0, 1] freezes, flips or grows the step size
    ("lr_decay = 0.99", "lr_decay = 0", "lr_decay"),
    ("lr_decay = 0.99", "lr_decay = -1", "lr_decay"),
    ("lr_decay = 0.99", "lr_decay = 1.5", "lr_decay"),
    # per-site values that do not parse name their full key
    ("", "site.1.subjects = abc", "site.1.subjects"),
    ("", "site.1.t_points = 2.5", "site.1.t_points"),
    ("site.1.shift = 0.3", "site.1.shift = abc", "site.1.shift"),
    # range and site-set errors name the full key too
    ("site.1.shift = 0.3", "site.1.shift = -1", "site.1.shift"),
    ("", "site.1.subjects = -2", "site.1.subjects"),
    ("subjects = 4", "subjects = 0", "error: subjects must"),
    ("site.1.id = edge", "site.1.id = central", "site.1.id"),
    ("site.1.role = target_unlabeled", "site.1.role = source", "site.N.role"),
    ("", " = 5", "run.cfg:24: expected 'key = value'"),  # no key: name the line
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


def test_empty_site_id_exits_2_naming_the_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("site.1.id = edge", "site.1.id = "))
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "site.1.id" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


EVERY_KIND_CFG = """
seed = 3
rounds = 2
mode = dafed_l
data = synth
manifest =
rois = 12
t_points = 30
subjects = 6
gamma = 12
alpha = 0
lr_profile = warmup_decay
lr_warmup = 4
use_stfg = off
use_cl = yes
reversal = 0
subject_vote = TRUE
site.0.id = central
site.0.role = source
site.1.id = edge
site.1.role = target_labeled
site.1.shift = 0.25
site.1.subjects = 5
site.1.t_points = 28
"""


@pytest.mark.parametrize("text, want", [
    (None, "85fd05ed0da83123b11130bfb56e0ca90b83a954ca33f4355c94e13b4114d46a"),
    (EVERY_KIND_CFG, "286866c475c809337336e785e89e14ee88692e484ae33fefeb5697964c6c4962"),
    (EVERY_KIND_CFG.replace("lr_warmup = 4", "lr_warmup ="),
     "9511b3630be222a9e12b26865d1628ded779cf7153596916341e7005885a1c32"),
], ids=["canonical", "every-kind", "every-kind-empty-warmup"])
def test_config_digest_is_pinned(tmp_path, text, want):
    # checkpoints store this digest, so its bytes must not move
    path = Path(__file__).resolve().parents[1] / "configs" / "synthetic_4site.cfg"
    if text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(text)
    assert parse_config(path).digest().hex() == want


def test_flags_override_the_keys_they_name(tmp_path):
    parser = cli.build_parser()
    args = parser.parse_args(["explain", "ck", "--config", "c", "--seed", "4",
                              "--layer", "2", "--class", "0", "--out", "o"])
    assert cli._overrides(args) == {"seed": 4, "explain_layer": 2, "explain_class": 0}
    args = parser.parse_args(["eval", "ck", "--config", "c", "--folds", "3"])
    assert cli._overrides(args) == {"folds": 3}
    cfg = write_cfg(tmp_path / "run.cfg")
    assert parse_config(cfg, cli._overrides(args)).folds == 3


@pytest.mark.parametrize("command, flag, value, key", [
    ("eval", "--folds", "1", "folds"),
    ("explain", "--layer", "7", "explain_layer"),
    ("explain", "--class", "3", "explain_class"),
])
def test_bad_flag_exits_2_naming_its_key(tmp_path, capsys, command, flag, value, key):
    cfg = write_cfg(tmp_path / "run.cfg")  # rois = 10
    ckpt = tmp_path / "init.ckpt"
    wire.save_checkpoint(ckpt, network.init_theta(10, 0), 1, bytes(32))
    code = cli.main([command, str(ckpt), "--config", str(cfg), flag, value,
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, key", [("window = 1", "window"), ("stride = 0", "stride")])
def test_window_and_stride_are_checked_for_manifest_data(tmp_path, line, key):
    (tmp_path / "manifest.csv").write_text("subject_id,site_id,label,path\n")
    cfg = write_cfg(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("window = 20", line).replace(
        "data = synth", "data = manifest\nmanifest = manifest.csv"))
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)


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


@pytest.mark.parametrize("case, where", [
    ("label", r"manifest\.csv:2: label must be 0, 1 or empty"),
    ("cell", r"central_s000\.csv:3: non-finite cell"),
    ("role", r"site\.1\.role = target_labeled needs labels, but site edge has none"),
    ("repeat", r"manifest\.csv:\d+: subject 'central_s000' of site 'central' repeats line 2"),
    ("short", r"manifest\.csv:11: row has no cell for path"),
    ("blank path", r"manifest\.csv:11: empty path"),
    ("blank ids", r"manifest\.csv:11: empty subject_id"),
    ("nul path", r"manifest\.csv:2: NUL byte in path"),
    ("missing path", r"manifest\.csv:11: cannot read \S*missing\.csv: No such file or directory"),
    ("directory path", r"manifest\.csv:11: cannot read \S*series: Is a directory"),
    ("unnamed site", r"manifest\.csv has sites without a configured site\.N\.id: \['other'\]"),
    ("mixed labels", r"manifest\.csv: site edge: mixes labeled and unlabeled subjects"),
])
def test_bad_manifest_data_exits_2_naming_where(tmp_path, capsys, case, where):
    data_dir = tmp_path / "d"
    assert cli.main(["synth", "--config", str(write_cfg(tmp_path / "run.cfg")),
                     "--out", str(data_dir)]) == 0
    manifest = data_dir / "manifest.csv"
    if case == "label":  # line 2 is the first central subject, labeled 0
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace(",0,", ",2,")
        manifest.write_text("\n".join(lines) + "\n")
    if case == "repeat":  # line 2's subject again, with the other label and another series
        lines = manifest.read_text().splitlines()
        subject, site = lines[1].split(",")[:2]
        lines.append(f"{subject},{site},1,{lines[2].split(',')[3]}")
        manifest.write_text("\n".join(lines) + "\n")
    if case == "short":  # after the header, 8 subjects and a blank line: line 11
        manifest.write_text(manifest.read_text() + "\na2,a,0\n")
    if case == "blank path":
        manifest.write_text(manifest.read_text() + "\na2,a,0,\n")
    if case == "blank ids":
        manifest.write_text(manifest.read_text() + "\n,,0,x.csv\n")
    if case in ("missing path", "directory path"):
        path = "series/missing.csv" if case == "missing path" else "series"
        manifest.write_text(manifest.read_text() + f"\na2,a,0,{path}\n")
    if case == "nul path":  # in line 2's path
        manifest.write_text(manifest.read_text().replace("series/", "ser\0ies/", 1))
    if case in ("unnamed site", "mixed labels"):  # line 2's labeled subject again, at another site
        line = manifest.read_text().splitlines()[1]
        site = "other" if case == "unnamed site" else "edge"
        manifest.write_text(manifest.read_text() + line.replace(",central,", f",{site},") + "\n")
    if case == "cell":
        series = data_dir / "series" / "central_s000.csv"
        lines = series.read_text().splitlines()
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        series.write_text("\n".join(lines) + "\n")
    roles = {"mode": "dafed_l", "target_role": "target_labeled"} if case == "role" else {}
    cfg = write_cfg(tmp_path / "mrun.cfg", **roles)
    cfg.write_text(cfg.read_text().replace("data = synth", f"data = manifest\nmanifest = {manifest}"))
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(where, err) and "Traceback" not in err


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("kind", ["config", "manifest", "series"])
def test_non_utf8_input_exits_2_naming_file_and_line(tmp_path, capsys, kind, newline):
    data_dir = tmp_path / "d"
    assert cli.main(["synth", "--config", str(write_cfg(tmp_path / "run.cfg")),
                     "--out", str(data_dir)]) == 0
    cfg = write_cfg(tmp_path / "mrun.cfg")
    cfg.write_text(cfg.read_text().replace(
        "data = synth", f"data = manifest\nmanifest = {data_dir / 'manifest.csv'}"))
    bad = {"config": cfg, "manifest": data_dir / "manifest.csv",
           "series": data_dir / "series" / "central_s000.csv"}[kind]
    lines = bad.read_bytes().splitlines()
    lines[3] += " # café".encode("latin-1") if kind == "config" else b"\xe9"
    bad.write_bytes(newline.join(lines) + newline)
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {bad}:4: not UTF-8 text" in err and "Traceback" not in err


def test_site_with_only_flat_windows_exits_2_naming_it(tmp_path):
    # every central subject has a constant ROI column, so no window is usable
    g = np.random.default_rng(0)
    rows = []
    for site in ("central", "edge"):
        for j in range(4):
            values = g.standard_normal((30, 10))
            label = ""
            if site == "central":
                values[:, 2] = 0.5
                label = str(j % 2)
            np.savetxt(tmp_path / f"{site}{j}.csv", values, delimiter=",")
            rows.append(f"{site}{j},{site},{label},{site}{j}.csv")
    (tmp_path / "manifest.csv").write_text("subject_id,site_id,label,path\n" + "\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path / "run.cfg").read_text().replace(
        "data = synth", f"data = manifest\nmanifest = {tmp_path / 'manifest.csv'}")
    (tmp_path / "run.cfg").write_text(cfg)
    ckpt = tmp_path / "model.ckpt"
    wire.save_checkpoint(ckpt, network.init_theta(10, 0), 1, bytes(32))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv in (["train", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "t")],
                 ["eval", str(ckpt), "--config", str(tmp_path / "run.cfg"), "--folds", "2"]):
        out = subprocess.run([sys.executable, "-m", "dafed.cli", *argv],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 2
        assert "site central" in out.stderr and "flat ROI" in out.stderr
        assert "Traceback" not in out.stderr


def test_site_with_fewer_than_2_windows_exits_2_naming_it(tmp_path, capsys):
    # one subject of 20 time points gives each site one window of 20
    cfg = write_cfg(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("subjects = 4", "subjects = 1")
                   .replace("t_points = 24", "t_points = 20"))
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert code == 2
    assert "site central: 1 window(s)" in err and "Traceback" not in err
    assert not (tmp_path / "t").exists()


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


def test_non_finite_upload_exits_1_naming_site_and_round(tmp_path, capsys, monkeypatch):
    real = fedsim.add_noise

    def inf_noise(theta, spec, site_id, round_idx):
        out = real(theta, spec, site_id, round_idx)
        out["clf.fc2.w"].data[0, 0] = float("inf")
        return out

    monkeypatch.setattr(fedsim, "add_noise", inf_noise)
    cfg = write_cfg(tmp_path / "run.cfg")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite upload tensor 'clf.fc2.w' at round 0, site edge\n"


def test_out_of_memory_exits_1_naming_the_command(tmp_path, capsys, monkeypatch):
    def no_room(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_datasets", no_room)
    cfg = write_cfg(tmp_path / "run.cfg")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: out of memory during train\n"


# ---------------------------------------------------------------------------
# eval


@pytest.fixture()
def trained(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=3)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    return cfg, tmp_path / "t" / "checkpoint_final.ckpt"


def test_eval_constant_model_scores_half(tmp_path, trained, capsys):
    cfg, ckpt = trained
    theta, round_idx, digest, _ = wire.load_checkpoint(ckpt)
    theta["clf.fc2.w"].data[...] = 0.0
    theta["clf.fc2.b"].data[...] = 0.0
    flat = tmp_path / "flat.ckpt"
    wire.save_checkpoint(flat, theta, round_idx, digest)
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


def test_truncated_checkpoint_exits_1_naming_it(tmp_path, trained, capsys):
    cfg, ckpt = trained
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:46])
    for argv in (["eval", str(cut), "--config", str(cfg), "--folds", "2"],
                 ["explain", str(cut), "--config", str(cfg), "--out", str(tmp_path / "x")]):
        assert cli.main(argv) == 1
        assert str(cut) in capsys.readouterr().err


def test_checkpoint_that_does_not_fit_the_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg")  # rois = 10
    ckpt = tmp_path / "wide.ckpt"
    wire.save_checkpoint(ckpt, network.init_theta(16, 0), 1, bytes(32))
    for argv in (["eval", str(ckpt), "--config", str(cfg), "--folds", "2"],
                 ["explain", str(ckpt), "--config", str(cfg), "--out", str(tmp_path / "x")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "stfg.l1.w has shape (16, 128)" in err


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


def test_explain_bytes_do_not_depend_on_the_blas_threads(tmp_path, trained):
    # one BLAS thread per process lets explain fork a process per core; two
    # on a 2-core host keep it in one process. OpenBLAS reads its thread
    # count once, at load, so each count needs its own process
    cfg, ckpt = trained
    root = Path(__file__).resolve().parents[1]
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "dafed.cli", "explain", str(ckpt), "--config",
                        str(cfg), "--out", str(tmp_path / threads)],
                       env=env, capture_output=True, text=True, check=True, timeout=600)
    for name in ("saliency.csv", "edges.csv", "faithfulness.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


# two more unlabeled targets, so that training has work for 2 and 3 processes
MORE_TARGETS = "".join(f"site.{i}.id = edge{i}\nsite.{i}.role = target_unlabeled\n"
                       f"site.{i}.shift = 0.{i + 2}\n" for i in (2, 3))


def test_train_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # one BLAS thread per process lets train fork a target worker per spare
    # core; two on a 2-core host keep it in one process
    cfg = write_cfg(tmp_path / "run.cfg", rounds=3, extra=MORE_TARGETS)
    root = Path(__file__).resolve().parents[1]
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "dafed.cli", "train", "--config", str(cfg),
                        "--out", str(tmp_path / threads)],
                       env=env, capture_output=True, text=True, check=True, timeout=600)
    for name in ("metrics.csv", "checkpoint_final.ckpt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("failure, message", [
    ("diverge", "error: non-finite mi loss at round 1, site edge3"),
    ("die", "error: target worker 1: its process exited with code 3 before it replied"),
])
def test_a_failing_target_worker_exits_1(tmp_path, capsys, monkeypatch, failure, message):
    # with 2 processes, edge and edge3 train in the worker, edge2 here
    import multiprocessing

    cfg = write_cfg(tmp_path / "run.cfg", rounds=3, extra=MORE_TARGETS)
    parent = os.getpid()
    real_objective = fedsim.site_objective

    def failing_objective(*args, key, **kwargs):
        obj = real_objective(*args, key=key, **kwargs)
        if key[2:] == ("edge3", 1):
            if failure == "die" and os.getpid() != parent:
                os._exit(3)
            obj.parts["mi"] = float("nan")
        return obj

    monkeypatch.setattr(fedsim, "site_objective", failing_objective)
    monkeypatch.setattr(fedsim, "process_count", lambda n: 2)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err.strip() == message
    assert multiprocessing.active_children() == []


def _announced_train(tmp_path, rounds=500, at_round=1, hold=False) -> str:
    """A script that trains with one target worker and prints the worker's
    pid as round `at_round` starts; with `hold` it then sleeps there."""
    cfg = write_cfg(tmp_path / "run.cfg", rounds=rounds, extra=MORE_TARGETS)
    return "\n".join([
        "import multiprocessing, sys, time",
        f"sys.path[:0] = [{str(Path(__file__).resolve().parents[1] / 'src')!r}]",
        "from dafed import cli, fedsim",
        "fedsim.process_count = lambda n: 2",
        "real_round = fedsim.multi_site_round",
        "def announced_round(*args):",
        f"    if args[3] == {at_round}:",
        "        print(*[p.pid for p in multiprocessing.active_children()], flush=True)",
        f"        time.sleep({600 if hold else 0})",
        "    return real_round(*args)",
        "fedsim.multi_site_round = announced_round",
        f"sys.exit(cli.main(['train', '--config', {str(cfg)!r},",
        f"                   '--out', {str(tmp_path / 't')!r}]))",
    ])


def test_a_killed_train_leaves_no_worker(tmp_path):
    proc = subprocess.Popen([sys.executable, "-c", _announced_train(tmp_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    workers = []
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 1
        proc.kill()
        # the worker inherited the write ends of both pipes, so they read
        # end-of-file only once it has exited too
        proc.communicate(timeout=10)
    finally:
        proc.kill()
        for pid in workers:  # a worker that did not exit must not outlive the test
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass


def _interrupt_when_announced(script: str):
    """Run `script`, send Ctrl-C to its process group once it prints its
    worker's pid, and check that it exits 130 saying so once, with the
    worker gone."""
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    workers = []
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 1
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        assert (proc.returncode, err) == (130, "error: interrupted\n")
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        proc.kill()
        proc.communicate()
        for pid in workers:  # a worker that did not exit must not outlive the test
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_an_interrupted_train_exits_130_and_leaves_no_worker(tmp_path):
    # Ctrl-C reaches every process in the terminal's group: the worker
    # ignores it, and the training process reaps the worker and says so once
    _interrupt_when_announced(_announced_train(tmp_path))


def test_an_interrupted_train_keeps_the_rows_of_its_finished_rounds(tmp_path):
    # Ctrl-C while round 3 waits to start: rounds 0-2 have ended, so their
    # rows are in the file, byte for byte as an uninterrupted run writes them
    _interrupt_when_announced(_announced_train(tmp_path, rounds=5, at_round=3, hold=True))
    kept = (tmp_path / "t" / "metrics.csv").read_bytes()
    assert cli.main(["train", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "metrics.csv").read_bytes()
    assert full.startswith(kept)
    assert [row["round"] for row in read_metrics(tmp_path / "t" / "metrics.csv")] == \
        [str(r) for r in range(3) for _ in range(4)]


# ---------------------------------------------------------------------------
# eval's sites scored in forked processes

SITES = ["central", "edge", "edge2", "edge3"]


@pytest.fixture(scope="module")
def trained4(tmp_path_factory):
    # four sites, so that 2 and 3 processes get shards of unequal size
    root = tmp_path_factory.mktemp("trained4")
    cfg = write_cfg(root / "run.cfg", rounds=3, extra=MORE_TARGETS + "subject_vote = true\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(root / "t")]) == 0
    return cfg, root / "t" / "checkpoint_final.ckpt"


def _eval(cfg, ckpt, *extra):
    return cli.main(["eval", str(ckpt), "--config", str(cfg), "--folds", "2", *extra])


def test_eval_outputs_do_not_depend_on_the_process_count(trained4, tmp_path, capsys,
                                                         monkeypatch):
    import multiprocessing

    cfg, ckpt = trained4
    predict = explain.dataset_predictions
    outputs = {}
    for processes in (1, 2, 3):
        here = []  # sites scored in this process

        def recorded_predictions(theta, ds):
            here.append(ds.site_id)
            return predict(theta, ds)

        monkeypatch.setattr(explain, "dataset_predictions", recorded_predictions)
        monkeypatch.setattr(explain, "process_count", lambda n, p=processes: p)
        out = tmp_path / str(processes)
        assert _eval(cfg, ckpt, "--out", str(out)) == 0
        outputs[processes] = (capsys.readouterr().out, (out / "eval.csv").read_bytes())
        assert multiprocessing.active_children() == []
        # this process scores shard 0 alone; forked ones score the others
        assert here == SITES[::processes]
    assert outputs[1][0].count("majority-vote") == len(SITES)
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


@pytest.mark.parametrize("failing", ["central", "edge"], ids=["this-process", "forked"])
def test_an_eval_shard_error_exits_1_and_leaves_no_process(trained4, capsys, monkeypatch,
                                                           failing):
    # with 2 processes, central and edge2 are scored here, edge and edge3 in the fork
    import multiprocessing

    cfg, ckpt = trained4
    predict = explain.dataset_predictions

    def failing_predictions(theta, ds):
        if ds.site_id == failing:
            raise ValueError(f"planted failure at {failing}")
        return predict(theta, ds)

    monkeypatch.setattr(explain, "dataset_predictions", failing_predictions)
    monkeypatch.setattr(explain, "process_count", lambda n: 2)
    assert _eval(cfg, ckpt) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: planted failure at {failing}\n"
    assert captured.out == ""  # not even the vote of a site scored before the error
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_eval_reports_the_first_failing_sites_error_at_any_process_count(
        trained4, capsys, monkeypatch, processes):
    # edge and edge2 both fail: with 2 processes edge2 is scored here and
    # edge in the fork, with 3 each in a fork of its own
    cfg, ckpt = trained4
    predict = explain.dataset_predictions

    def failing_predictions(theta, ds):
        if ds.site_id in ("edge", "edge2"):
            raise ValueError(f"planted failure at {ds.site_id}")
        return predict(theta, ds)

    monkeypatch.setattr(explain, "dataset_predictions", failing_predictions)
    monkeypatch.setattr(explain, "process_count", lambda n: processes)
    assert _eval(cfg, ckpt) == 1
    assert capsys.readouterr().err == "error: planted failure at edge\n"


def test_an_eval_shard_process_that_dies_exits_1(trained4, capsys, monkeypatch):
    import multiprocessing

    cfg, ckpt = trained4
    parent = os.getpid()
    predict = explain.dataset_predictions

    def dying_predictions(theta, ds):
        if os.getpid() != parent:
            os._exit(3)
        return predict(theta, ds)

    monkeypatch.setattr(explain, "dataset_predictions", dying_predictions)
    monkeypatch.setattr(explain, "process_count", lambda n: 3)
    assert _eval(cfg, ckpt) == 1
    assert capsys.readouterr().err == ("error: eval shard 1: its process exited with code 3 "
                                       "before it replied\n")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("problem", ["folds", "labels"])
def test_an_eval_fold_error_exits_2_before_any_process_forks(trained4, tmp_path, capsys,
                                                             monkeypatch, problem):
    cfg, ckpt = trained4
    if problem == "folds":  # 4 subjects per site, 2 of each class
        args, message = ("--folds", "3"), "site central: class 0 has 2 subjects, needs >= 3"
    else:  # the manifest withholds the labels of the unlabeled targets
        data_dir = tmp_path / "d"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(data_dir)]) == 0
        cfg = tmp_path / "manifest.cfg"
        cfg.write_text(trained4[0].read_text().replace(
            "data = synth", f"data = manifest\nmanifest = {data_dir / 'manifest.csv'}"))
        args, message = ("--folds", "2"), "site edge: no labels available for evaluation"
    capsys.readouterr()

    def no_shards(*args):
        raise AssertionError("sites were scored")

    monkeypatch.setattr(explain, "run_shards", no_shards)
    monkeypatch.setattr(explain, "process_count", lambda n: 2)
    assert cli.main(["eval", str(ckpt), "--config", str(cfg), *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_eval_bytes_do_not_depend_on_the_blas_threads(trained4, tmp_path):
    # one BLAS thread per process lets eval fork a process per core; two on
    # a 2-core host keep it in one process
    cfg, ckpt = trained4
    root = Path(__file__).resolve().parents[1]
    stdout = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        stdout[threads] = subprocess.run(
            [sys.executable, "-m", "dafed.cli", "eval", str(ckpt), "--config", str(cfg),
             "--folds", "2", "--out", str(tmp_path / threads)],
            env=env, capture_output=True, text=True, check=True, timeout=600).stdout
    assert stdout["1"] == stdout["2"]
    assert (tmp_path / "1" / "eval.csv").read_bytes() == (tmp_path / "2" / "eval.csv").read_bytes()


def test_eval_and_explain_do_not_depend_on_the_manifest_order(tmp_path, capsys):
    # the reversed manifest lists each site's subjects against their id order;
    # after 10 rounds with both sites labeled, the two eval folds differ
    cfg = write_cfg(tmp_path / "run.cfg", rounds=10, mode="dafed_l", target_role="target_labeled")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    ckpt = tmp_path / "t" / "checkpoint_final.ckpt"
    data_dir = tmp_path / "d"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data_dir)]) == 0
    header, *rows = (data_dir / "manifest.csv").read_text().splitlines()
    (data_dir / "reversed.csv").write_text("\n".join([header] + rows[::-1]) + "\n")
    capsys.readouterr()
    outputs = []
    for manifest in ("manifest.csv", "reversed.csv"):
        run = tmp_path / f"{manifest}.cfg"
        run.write_text(cfg.read_text().replace(
            "data = synth", f"data = manifest\nmanifest = {data_dir / manifest}\nsubject_vote = true"))
        out = tmp_path / f"out_{manifest}"
        assert cli.main(["eval", str(ckpt), "--config", str(run), "--folds", "2",
                         "--out", str(out)]) == 0
        assert cli.main(["explain", str(ckpt), "--config", str(run), "--out", str(out)]) == 0
        tables = ("eval.csv", "saliency.csv", "edges.csv", "faithfulness.csv")
        outputs.append([capsys.readouterr().out] + [(out / name).read_bytes() for name in tables])
    assert outputs[0] == outputs[1]


def _explain_tables(out):
    saliency = np.zeros((explain.N_LAYERS, 10))
    for r in csv.DictReader((out / "saliency.csv").open()):
        saliency[int(r["layer"]) - 1, int(r["roi_index"])] = float(r["mean_score"])
    edges = [(int(r["roi_a"]), int(r["roi_b"]), float(r["correlation"]), float(r["p_value"]))
             for r in csv.DictReader((out / "edges.csv").open())]
    faith = {r["mask"]: (float(r["average_drop"]), float(r["average_increase"]))
             for r in csv.DictReader((out / "faithfulness.csv").open())}
    return saliency, edges, faith


def test_explain_honours_use_stfg(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", extra="use_stfg = false\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    ckpt = tmp_path / "t" / "checkpoint_final.ckpt"
    assert cli.main(["explain", str(ckpt), "--config", str(cfg),
                     "--out", str(tmp_path / "ex")]) == 0
    theta = wire.load_checkpoint(ckpt)[0]

    def cohort(path):
        run = parse_config(path)
        res = explain.explain_cohort(theta, cli._load_datasets(run), run.explain_layer,
                                     run.explain_class, windows=run.explain_windows,
                                     seed=run.seed)
        edges = [(e.roi_a, e.roi_b, e.correlation, e.p_value) for e in res.edges]
        return res.saliency, edges, res.faithfulness

    saliency, edges, faith = _explain_tables(tmp_path / "ex")
    want_saliency, want_edges, want_faith = cohort(cfg)
    assert np.array_equal(saliency, want_saliency)
    assert edges == want_edges and faith == want_faith
    assert not np.array_equal(saliency, cohort(write_cfg(tmp_path / "on.cfg"))[0])


def test_explain_rejects_bad_layer(tmp_path, trained):
    cfg, ckpt = trained
    assert cli.main(["explain", str(ckpt), "--config", str(cfg), "--layer", "7",
                     "--out", str(tmp_path / "x")]) == 2


def test_explain_with_too_few_subjects_of_a_class_exits_2(tmp_path, capsys):
    # one subject per site: the cohort holds two subjects of one class only
    cfg = write_cfg(tmp_path / "run.cfg")
    cfg.write_text(cfg.read_text().replace("subjects = 4", "subjects = 1"))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    code = cli.main(["explain", str(tmp_path / "t" / "checkpoint_final.ckpt"),
                     "--config", str(cfg), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "[0, 2]" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# pinned outputs of the switches that are not the defaults

# recorded before `use_stfg` moved into the loader and the class term was
# decided by the site role alone; the same with 1 and 2 BLAS threads. The
# metrics.csv digests were re-recorded for wire version 2, whose messages are
# 40 bytes shorter per broadcast and 2 per upload, and again when the broadcast
# split into a model and a central message, which a target receives as 24,989
# bytes more a round and the source's bytes_up counts too: each time only
# bytes_up/bytes_down moved
PINNED_SWITCH_OUTPUTS = {
    "use_stfg-off": {
        "t/metrics.csv": "eaf4519a242613bfc88a538e289074b5d9fef6b8cf57338a3116bf290eb92da7",
        "t/checkpoint_final.ckpt": "f301303c0e166806813b3fdd977bb520f2fe6a76d5869607592df181543cf513",
        "e/eval.csv": "b777a65945ef9a88321e63fbdbc9e217b0f47d98642616da4f62c6b3be3e3fff",
        "x/saliency.csv": "2822f1c84d82200f518463242261555ca7dbce9385ab2c7d332922d6b40a725a",
        "x/edges.csv": "fa4a3a42abfef73d2db12ba661f7ba7c92d8ee963ec6818df1f78b907c02c4be",
        "x/faithfulness.csv": "9d0bcd287ec7f72f8591c1c2c696eda66b136302741d31d612707b5132410f6a",
    },
    "dafed_l": {
        "t/metrics.csv": "a9d2f8c46755e402972bf8527d31b6ac721b073565a0c6964411bf5dc8e14ba2",
        "t/checkpoint_final.ckpt": "250a6e8978c985fe26c43389f8010db0a2543671b66a4dc2ccb12ce71bdf3fac",
        "e/eval.csv": "0d7201937064ee7a1b8dde58c0e8b3dcd646759434174c92a1967ec44b78b5e4",
        "x/saliency.csv": "9909959702b048750efc5c3801ffbc4b3c348b5fad09c1787564356cd40ed139",
        "x/edges.csv": "eae401089a5bca21d974c3ea649794d46006fa27fb2467725ddb13cbf3d0e3c5",
        "x/faithfulness.csv": "83ff90f73cface37fcc15e5474df6ed3a599097ecb453903b332afa65e280b4e",
    },
}
SWITCHES = {"use_stfg-off": dict(extra="use_stfg = false\n"),
            "dafed_l": dict(mode="dafed_l", target_role="target_labeled")}


@pytest.mark.parametrize("switch", list(SWITCHES))
def test_switch_outputs_are_pinned(tmp_path, switch):
    cfg = write_cfg(tmp_path / "run.cfg", rounds=3, **SWITCHES[switch])
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    ckpt = str(tmp_path / "t" / "checkpoint_final.ckpt")
    assert cli.main(["eval", ckpt, "--config", str(cfg), "--folds", "2",
                     "--out", str(tmp_path / "e")]) == 0
    assert cli.main(["explain", ckpt, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_SWITCH_OUTPUTS[switch]}
    assert got == PINNED_SWITCH_OUTPUTS[switch]


# ---------------------------------------------------------------------------
# gradcheck


def test_cli_import_loads_every_benchmarked_module_and_no_scipy():
    # perfbench/child.py rebinds functions across these modules through
    # sys.modules once `dafed.cli` is imported; scipy is explain's alone
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]",
        "from child import MODULES",
        "import dafed.cli",
        "print(json.dumps({'modules': len(MODULES),",
        "                  'missing': [m for m in MODULES if 'dafed.' + m not in sys.modules],",
        "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"modules": 13, "missing": [], "scipy": []}


def test_cli_import_loads_no_process_pool():
    # explain, eval and training fork, and they import multiprocessing only
    # where they fork
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(Path(__file__).resolve().parents[1] / 'src')!r}]",
        "import dafed.cli",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.split('.')[0] in ('multiprocessing', 'concurrent'))))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_every_benchmarked_span_is_a_public_function_of_its_module():
    # a span that names no traced function leaves its per-layer metric empty;
    # importing perfbench/run.py sets BLAS variables, so the table is read in a child
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import importlib, json, sys, types",
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]",
        "from run import PER_LAYER",
        "bad = []",
        "for _, _, span, _, _ in PER_LAYER:",
        "    module, _, name = span.removesuffix('.train').removesuffix('.eval').rpartition('.')",
        "    mod = importlib.import_module('dafed.' + module)",
        "    fn = getattr(mod, name, None)",
        "    if (name.startswith('_') or not isinstance(fn, types.FunctionType)",
        "            or fn.__module__ != mod.__name__):",
        "        bad.append(span)",
        "print(json.dumps({'spans': len(PER_LAYER), 'bad': bad}))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["spans"] > 0 and result["bad"] == []


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
