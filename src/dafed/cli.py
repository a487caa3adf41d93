"""Command-line surface: synth, train, eval, explain, gradcheck.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import explain as explain_mod
from . import fedsim, network, rng, wire
from .config import KEYS, ConfigError, RunConfig, parse_config
from .data import IngestError, SynthConfig, SynthSite, synth_multisite, synth_series
from .fedsim import TrainingDiverged, site_objective
from .fusion import ROLE_SOURCE
from .optim import ParamStore, grad_check

METRICS_HEADER = ["round", "site", "role", "L_C", "L_MI", "L_CL", "L_DI",
                  "lambda_p", "lr", "acc", "bytes_up", "bytes_down"]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _csv_lines(rows) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _write_csv(path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([header, *rows]))


def _load_datasets(cfg: RunConfig) -> list[data_mod.SiteDataset]:
    """The configured sites in config order, generated or read from the
    manifest. With `use_stfg` off every window's propagation is the
    identity, so no layer aggregates neighbors."""
    if cfg.data == "synth":
        datasets = synth_multisite(cfg.synth_config(), cfg.seed)
    else:
        datasets = data_mod.ingest_csv(cfg.manifest_path(), cfg.roles(), cfg.window,
                                       cfg.stride, cfg.top_k)
    if not cfg.use_stfg:
        datasets = [replace(ds, propagation=np.broadcast_to(np.eye(ds.n_rois), ds.propagation.shape))
                    for ds in datasets]
    return datasets


def _load_fitting_checkpoint(path, datasets) -> ParamStore:
    """The checkpoint's parameters, refused unless their names and shapes are
    those of the model for the loaded data."""
    theta, _, _, _ = wire.load_checkpoint(path)
    want = network.init_theta(datasets[0].n_rois, 0)
    for name in want.names():
        if name not in theta:
            raise ConfigError(f"{path}: no tensor {name}, which the configured data needs")
        got, need = theta[name].data.shape, want[name].data.shape
        if got != need:
            raise ConfigError(f"{path}: tensor {name} has shape {got}, "
                              f"the configured data needs {need}")
    extra = sorted(set(theta.names()) - set(want.names()))
    if extra:
        raise ConfigError(f"{path}: tensor {extra[0]} is not part of the model")
    return theta


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    if cfg.data != "synth":
        raise ConfigError("synth command needs data = synth")
    out = Path(args.out)
    series_dir = out / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    series = synth_series(cfg.synth_config(), cfg.seed)
    rows = []
    for ts in series:
        rel = Path("series") / f"{ts.subject_id}.csv"
        with open(out / rel, "w", newline="") as fh:
            for row in ts.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        rows.append((ts.subject_id, ts.site_id, "" if ts.label is None else ts.label, str(rel)))
    _write_csv(out / "manifest.csv", ["subject_id", "site_id", "label", "path"], rows)
    print(f"wrote {len(rows)} subjects across {len(cfg.site_specs)} sites to {out}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    datasets = _load_datasets(cfg)
    for ds in datasets:
        if len(ds) < 2:  # the dependence estimator shuffles a batch of at least 2
            raise ConfigError(f"site {ds.site_id}: {len(ds)} window(s), "
                              "training needs at least 2")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.settings()
    digest = cfg.digest()

    # each round's rows reach the file as the round ends, so a run that
    # stops keeps the rows of every round it finished
    with open(out / "metrics.csv", "w", newline="") as metrics:
        def on_round(round_idx, theta, rows):
            metrics.write(_csv_lines([row[col] for col in METRICS_HEADER] for row in rows))
            metrics.flush()
            if (round_idx + 1) % 10 == 0:
                wire.save_checkpoint(out / f"checkpoint_r{round_idx + 1:04d}.ckpt", theta,
                                     round_idx + 1, digest)

        metrics.write(_csv_lines([METRICS_HEADER]))
        result = fedsim.run_training(settings, datasets, cfg.roles(), on_round=on_round)
    wire.save_checkpoint(out / "checkpoint_final.ckpt", result.theta, settings.rounds, digest)
    for ds in datasets:
        subjects = len(ds.subject_index)
        print(f"site {ds.site_id}: {len(ds)} windows "
              f"({subjects} subjects, {len(ds) // max(1, subjects)} windows/subject)")
    print(f"trained {settings.rounds} rounds; metrics at {out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    datasets = _load_datasets(cfg)
    theta = _load_fitting_checkpoint(args.checkpoint, datasets)
    sites = explain_mod.evaluate_cohort(theta, datasets, cfg.folds, subject_vote=cfg.subject_vote)
    lines = ["site,fold,n_windows,acc"]
    for site in sites:
        if site.vote is not None:
            print(f"site {site.site_id}: subject majority-vote accuracy {site.vote:.4f}")
        lines += [f"{site.site_id},{k},{n},{_fmt(acc)}" for k, (n, acc) in enumerate(site.folds)]
        lines.append(f"{site.site_id},mean,{site.windows},{_fmt(site.mean)}")
        lines.append(f"{site.site_id},std,{site.windows},{_fmt(site.std)}")
    report = "\n".join(lines)
    print(report)
    for site in sites:
        print(f"site {site.site_id}: window accuracy {site.mean:.4f} +/- {site.std:.4f} "
              f"over {cfg.folds} folds")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.csv").write_text(report + "\n")
    return 0


# ---------------------------------------------------------------------------
# explain


def cmd_explain(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    layer, target_class = cfg.explain_layer, cfg.explain_class
    datasets = _load_datasets(cfg)
    theta = _load_fitting_checkpoint(args.checkpoint, datasets)
    result = explain_mod.explain_cohort(theta, datasets, layer, target_class,
                                        windows=cfg.explain_windows, seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "saliency.csv", ["roi_index", "layer", "class", "mean_score"],
               ((roi, l, target_class, score) for l, pooled in enumerate(result.saliency, start=1)
                for roi, score in enumerate(pooled)))
    _write_csv(out / "edges.csv", ["roi_a", "roi_b", "correlation", "p_value"],
               ((e.roi_a, e.roi_b, e.correlation, e.p_value) for e in result.edges))
    _write_csv(out / "faithfulness.csv", ["layer", "class", "mask", "average_drop", "average_increase"],
               ((layer, target_class, mask, drop, inc)
                for mask, (drop, inc) in result.faithfulness.items()))
    (drop, inc), (drop_ctl, inc_ctl) = result.faithfulness["saliency"], result.faithfulness["random"]
    print(f"layer {layer} class {target_class}: "
          f"average drop {drop:.2f}% (random control {drop_ctl:.2f}%), "
          f"average increase {inc:.2f}% (random control {inc_ctl:.2f}%)")
    print("top ROIs:", " ".join(str(int(r)) for r in result.top_rois))
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def build_gradcheck_toy(seed: int = 0):
    """A 2-site, 8-sample, 6-ROI instance exercising all four loss terms."""
    cfg = SynthConfig(sites=[SynthSite("a", 1, True, 0.0), SynthSite("b", 1, True, 0.3)],
                      n_rois=6, t=27, class_sep=0.6, window=20, top_k=2)
    both = data_mod.series_to_graphs(synth_series(cfg, seed), cfg.window, cfg.stride, cfg.top_k)
    batch = network.make_batch(both, np.r_[0:4, 8:12], 0)  # 4 of each site's 8 windows
    batch.domains = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    theta = network.init_theta(6, seed)
    prev = network.init_theta(6, seed + 1)
    queue = {}
    for uid in batch.uids:
        stream = rng.stream(seed, "toyqueue", uid)
        queue[uid] = deque((stream.standard_normal(128) for _ in range(2)), maxlen=5)
    # reversal off: the reversal node deliberately reports the negated
    # upstream gradient, which no finite-difference probe can match; its
    # contract has its own direct test
    settings = fedsim.TrainSettings(seed=seed, reversal=False)

    def objective(store):
        obj = site_objective(store, batch, role=ROLE_SOURCE, ramp=0.62, settings=settings,
                             queue=queue, prev_global=prev, key=(seed, "drop", "toy", 0))
        return obj.total

    return objective, theta


def cmd_gradcheck(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    objective, theta = build_gradcheck_toy(cfg.seed)
    result = grad_check(objective, theta, seed=cfg.seed)
    status = "pass" if (result.ok and result.max_rel_error < 1e-4) else "FAIL"
    print(f"gradient check: max relative error {result.max_rel_error:.3e} "
          f"at parameter {result.worst_name!r} (index {result.worst_index}, "
          f"{result.n_coordinates} coordinates probed): {status}")
    if result.nan_failures:
        for name, idx in result.nan_failures[:5]:
            print(f"  NaN probe at {name}[{idx}]")
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# wiring


def _overrides(args) -> dict:
    """The config keys set by flags; each flag's `dest` is the key it overrides."""
    return {key: value for key, value in vars(args).items()
            if key in KEYS and value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dafed",
        description="Federated domain-adversarial training on connectivity graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config key seed")

    p_synth = sub.add_parser("synth", help="write synthetic per-subject series and a manifest")
    common(p_synth)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="run federated training")
    common(p_train)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="a checkpoint's window accuracy per subject fold "
                            "(the model is not re-trained per fold)")
    common(p_eval)
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--folds", type=int, default=None, help="override the config key folds")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_explain = sub.add_parser("explain", help="saliency, edges, and faithfulness")
    common(p_explain)
    p_explain.add_argument("checkpoint")
    p_explain.add_argument("--layer", dest="explain_layer", type=int, default=None,
                           help="override the config key explain_layer")
    p_explain.add_argument("--class", dest="explain_class", type=int, default=None,
                           help="override the config key explain_class")
    p_explain.add_argument("--out", required=True)
    p_explain.set_defaults(func=cmd_explain)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of the full objective")
    common(p_gc)
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TrainingDiverged, ValueError, wire.WireError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory during {args.command}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
