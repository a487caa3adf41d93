"""Seeded input fuzzing of the command line. Mutated configs, manifests and
series files, and checkpoint paths that cannot be loaded, each end in exit
0, 1 or 2 with no exception out of `cli.main`; a failed run prints one
`error:` line, and an exit 2 names the file or the config key at fault."""

import dataclasses
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from dafed import cli, fedsim
from dafed.config import KEYS, SITE_KEYS

CFG = """seed = 0
rounds = 2
data = synth
rois = 8
t_points = 24
subjects = 4
window = 20
top_k = 3
alpha = 0.01
lr_profile = decay
lr_base = 0.005
explain_windows = 2
folds = 2
site.0.id = central
site.0.role = source
site.0.shift = 0.0
site.1.id = edge
site.1.role = target_unlabeled
site.1.shift = 0.3
"""
# a changed value is one of these
VALUES = ("0", "1", "-1", "2", "7", "2.5", "-0.5", "nan", "inf", "", "abc", "true",
          "source", "1e-300")
SITE_KEY = re.compile(rf"site\.(\d+|N)\.({'|'.join(SITE_KEYS)})")


def _mutations(text: str, sep: str, seed: int, n: int):
    """`n` seeded mutations of `text`, cycling through a changed value (one
    `sep`-separated part of a line), a deleted line, a duplicated line and a
    replaced byte."""
    g = np.random.default_rng(seed)
    lines = text.splitlines(keepends=True)
    for i in range(n):
        out = list(lines)
        at = int(g.integers(len(out)))
        kind = i % 4
        if kind == 0:
            parts = out[at].rstrip("\n").split(sep)
            parts[int(g.integers(len(parts)))] = VALUES[int(g.integers(len(VALUES)))]
            out[at] = sep.join(parts) + "\n"
        elif kind == 1:
            del out[at]
        elif kind == 2:
            out.insert(at, out[at])
        buf = bytearray("".join(out).encode())
        if kind == 3:
            buf[int(g.integers(len(buf)))] = int(g.integers(256))
        yield bytes(buf)


def _names(config: Path, manifest: Path | None = None) -> tuple[list[str], list[str]]:
    """The files an exit-2 message may name (the config, the data directory
    and every path cell of the manifest), and the keys: every config key
    and every key the (mutated) config holds, also as it prints quoted."""
    files, keys = [str(config)], [*KEYS]
    for line in config.read_bytes().decode(errors="replace").splitlines():
        key = line.split("=", 1)[0].strip()
        keys += [key, repr(key)[1:-1]] if key else []
    if manifest is not None:
        files.append(str(manifest.parent))
        for line in manifest.read_bytes().decode(errors="replace").splitlines()[1:]:
            files += [cell for cell in line.split(",")[3:] if len(cell) > 1]
    return files, keys


def _check(argv, capsys, names):
    code = cli.main(argv)
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2), (code, err)
    assert len(err) == (code != 0), err
    if code == 2:
        files, keys = names
        # a key is named as in `key = 1`, `key must ...` or `'key'`
        assert (any(f in err[0] for f in files) or SITE_KEY.search(err[0]) or any(
            re.search(rf"(?<![\w.]){re.escape(k)}(?= =| must|'|\")", err[0]) for k in keys)), err[0]
    return code


@pytest.fixture(autouse=True)
def two_rounds_at_most(monkeypatch):
    # a deleted `rounds` line falls back to the default 50 rounds; two keep
    # every trial short and still run the round's full code path
    train = fedsim.run_training
    monkeypatch.setattr(fedsim, "run_training", lambda settings, *args, **kw: train(
        dataclasses.replace(settings, rounds=min(settings.rounds, 2)), *args, **kw))


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A synthetic cohort written as a manifest and series files."""
    root = tmp_path_factory.mktemp("cohort")
    (root / "run.cfg").write_text(CFG)
    assert cli.main(["synth", "--config", str(root / "run.cfg"), "--out", str(root / "d")]) == 0
    return root / "d"


def _manifest_config(tmp_path, cohort) -> Path:
    data = tmp_path / "d"
    shutil.copytree(cohort, data)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(CFG.replace("data = synth", f"data = manifest\nmanifest = {data / 'manifest.csv'}"))
    return cfg


def test_mutated_configs_end_the_documented_way(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    codes = set()
    for bad in _mutations(CFG, "=", seed=0, n=80):
        cfg.write_bytes(bad)
        codes.add(_check(["train", "--config", str(cfg), "--out", str(tmp_path / "o")],
                         capsys, _names(cfg)))
    assert codes >= {0, 2}


@pytest.mark.parametrize("which", ["manifest.csv", "series/central_s000.csv"])
def test_mutated_data_files_end_the_documented_way(tmp_path, capsys, cohort, which):
    cfg = _manifest_config(tmp_path, cohort)
    target = tmp_path / "d" / which
    good = target.read_text()
    codes = set()
    for bad in _mutations(good, ",", seed=1, n=48 if which == "manifest.csv" else 28):
        target.write_bytes(bad)
        codes.add(_check(["train", "--config", str(cfg), "--out", str(tmp_path / "o")],
                         capsys, _names(cfg, tmp_path / "d" / "manifest.csv")))
    assert codes >= {0, 2}


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_unusable_checkpoint_paths_fail_naming_the_path(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    other = tmp_path / "other.cfg"
    other.write_text(CFG.replace("rois = 8", "rois = 10"))
    assert cli.main(["train", "--config", str(other), "--out", str(tmp_path / "other")]) == 0
    (tmp_path / "empty.ckpt").write_bytes(b"")
    # a directory, or a path under a file, is a bad path argument, as a missing
    # file is; an empty file is not a checkpoint; another model's checkpoint
    # does not fit the config
    for path, expected in ((tmp_path / "other", 2), (tmp_path / "empty.ckpt" / "x.ckpt", 2),
                           (tmp_path / "empty.ckpt", 1),
                           (tmp_path / "other" / "checkpoint_final.ckpt", 2)):
        capsys.readouterr()
        code = _check([command, "--config", str(cfg), str(path), "--out", str(tmp_path / "x")],
                      capsys, ([str(path)], []))
        assert code == expected, (path, code)


@pytest.mark.parametrize("command", ["synth", "train", "eval", "explain"])
def test_an_out_that_cannot_be_a_directory_exits_2_naming_it(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG)
    argv = [command, "--config", str(cfg)]
    if command in ("eval", "explain"):
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        argv.append(str(tmp_path / "t" / "checkpoint_final.ckpt"))
    (tmp_path / "afile").write_text("")
    for out in (tmp_path / "afile", tmp_path / "afile" / "sub"):
        capsys.readouterr()
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, (out, err)
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err, err
