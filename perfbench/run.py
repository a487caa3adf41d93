"""dafed benchmark: drives the `dafed` CLI on one workload and prints metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload train-4site --seed 1 --seconds 30 --trace 0

Each command runs in a fresh child process (`child.py`), one at a time, so
every measurement includes what a user pays per command: imports, config
parsing, cohort loading and checkpoint loading. With `--trace 0` the last
line of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced session, and the run
also repeats the session untraced to compare output digests and to measure
the tracing overhead. A full report goes to `.bench_out/<workload>/report.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread (never more than nproc), set before numpy is imported here;
# the children inherit it, and child.py sets it too when run on its own.
BLAS_THREADS = str(min(1, os.cpu_count() or 1))
os.environ.update({var: BLAS_THREADS for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

sys.path.insert(0, str(HERE))
from workloads import FOLDS, ROIS, ROUNDS, WORKLOADS, Workload, data_dir  # noqa: E402

RUN_BUDGET_S = 170.0  # a run must end within 180 s
MIN_REPEATS = 2  # set-up, eval and explain are sampled 1 + this many times; medians are reported
MAX_REPEATS = 8
TAIL_BEYOND = 10  # the tail percentile keeps at least this many rounds above it
N_TENSORS = 76
METRICS_HEADER = ["round", "site", "role", "L_C", "L_MI", "L_CL", "L_DI",
                  "lambda_p", "lr", "acc", "bytes_up", "bytes_down"]
LOSS_COLUMNS = ("L_C", "L_MI", "L_CL", "L_DI")
MAX_EDGES = 10
THROUGHPUT = ("eval", "explain")  # commands sampled in full in every repeat set

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_round_ms.p50": "ms",
    "train_round_ms.tail": "ms",
    "target_acc": "fraction",
    "eval_windows_per_s": "windows/s",
    "explain_windows_per_s": "windows/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced session
#
# Each metric reads one span name from one phase:
#   train   - the training loop of the train command, per round
#   eval    - the eval command, per cohort window
#   explain - the explain command, per explained window
#   setup   - summed over the workload's focus commands (see Cmd.focus)
#   cli     - the command's own span, in seconds
# Stats: ms / self_ms (per unit), s / self_s (sums), calls (per unit),
# calls_total, units (per unit), units_per_call.

def _timed(phase, spans, unit):
    out = []
    for metric, span, prefix in spans:
        out.append((f"{metric}.{prefix}ms", phase, span, "ms", unit))
        out.append((f"{metric}.{prefix}self_ms", phase, span, "self_ms", unit))
    return out


TRAIN_SPANS = [
    ("tensor.backward", "tensor.backward", ""),
    ("tensor.matmul", "tensor.matmul", "fwd_"),
    ("tensor.batch_norm", "tensor.batch_norm", "fwd_"),
    ("rng.dropout_keep_masks", "rng.dropout_keep_masks", ""),
    ("network.model_forward", "network.model_forward.train", "train_"),
    ("network.model_forward", "network.model_forward.eval", "eval_"),
    ("network.make_batch", "network.make_batch", ""),
    ("stfg.stfg_forward", "stfg.stfg_forward", ""),
    ("disentangle.disentangle_forward", "disentangle.disentangle_forward", ""),
    ("disentangle.mine_estimate", "disentangle.mine_estimate", ""),
    ("fusion.fuse", "fusion.fuse", ""),
    ("fusion.classifier_probs", "fusion.classifier_probs", ""),
    ("fusion.domain_probs", "fusion.domain_probs", ""),
    ("optim.adam_step", "optim.adam_step", ""),
    ("wire.encode_message", "wire.encode_message", ""),
    ("wire.decode_message", "wire.decode_message", ""),
    ("wire.save_checkpoint", "wire.save_checkpoint", ""),
    ("fedsim.add_noise", "fedsim.add_noise", ""),
    ("fedsim.aggregate", "fedsim.aggregate", ""),
    ("fedsim.multi_site_round", "fedsim.multi_site_round", ""),
    ("fedsim.select_batch", "fedsim.select_batch", ""),
    ("fedsim.contrastive_loss", "fedsim.contrastive_loss", ""),
    ("fedsim.site_objective", "fedsim.site_objective", ""),
]
EVAL_SPANS = [
    ("fedsim.dataset_predictions", "fedsim.dataset_predictions", ""),
    ("eval_cmd.network.model_forward", "network.model_forward.eval", ""),
    ("eval_cmd.tensor.matmul", "tensor.matmul", "fwd_"),
    ("eval_cmd.tensor.batch_norm", "tensor.batch_norm", "fwd_"),
]
EXPLAIN_SPANS = [
    ("network.eval_class_probs", "network.eval_class_probs", ""),
    ("network.eval_hidden", "network.eval_hidden", ""),
    ("explain.score_cam", "explain.score_cam", ""),
    ("explain.saliency_masked_scores", "explain.saliency_masked_scores", ""),
    ("explain.significant_edges", "explain.significant_edges", ""),
    ("explain.permuted_masks", "explain.permuted_masks", ""),
    ("explain_cmd.tensor.matmul", "tensor.matmul", "fwd_"),
    ("explain_cmd.tensor.batch_norm", "tensor.batch_norm", "fwd_"),
]

PER_LAYER = (
    _timed("train", TRAIN_SPANS, "ms/round")
    + [("tensor.tape_nodes_per_step", "train", "fedsim.site_objective", "units_per_call", "nodes/step"),
       ("rng.stream.calls_per_round", "train", "rng.stream", "calls", "calls/round"),
       ("wire.decode_message.calls_per_round", "train", "wire.decode_message", "calls", "calls/round"),
       ("wire.bytes_per_round", "train", "wire.encode_message", "units", "B/round")]
    + _timed("eval", EVAL_SPANS, "ms/window")
    + [("fedsim.dataset_predictions.calls", "eval", "fedsim.dataset_predictions", "calls_total", "count")]
    + _timed("explain", EXPLAIN_SPANS, "ms/window")
    + [("network.eval_class_probs.calls_per_window", "explain", "network.eval_class_probs", "calls", "calls/window"),
       ("network.eval_class_probs.rows_per_window", "explain", "network.eval_class_probs", "units", "rows/window"),
       ("network.eval_hidden.calls_per_window", "explain", "network.eval_hidden", "calls", "calls/window")]
    + [(f"{span}.{stat}", "setup", span, stat, stat.split("_")[-1])
       for span in ("data.synth_multisite", "data.ingest_csv", "data.series_to_graphs")
       for stat in ("s", "self_s")]
    + [(f"{span}.{stat}", "setup", span, stat, "ms")
       for span in ("config.parse_config", "wire.load_checkpoint")
       for stat in ("ms", "self_ms")]
    + [(f"cli.{kind}.{stat}", "cli", f"cli.cmd_{kind}", stat, "s")
       for kind in ("train", "eval", "explain") for stat in ("s", "self_s")]
)


def not_applicable(w: Workload) -> set:
    """Set-up spans a workload's focus commands never call: one data path or
    the other, and checkpoint loading when the focus is training."""
    return {"data.synth_multisite"} if w.manifest else {"data.ingest_csv", "wire.load_checkpoint"}


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Cmd:
    kind: str  # synth / train / eval / explain
    argv: list
    focus: bool  # what the workload is about: timed for setup_s and peak_rss_mb


@dataclass
class Run:
    cmd: Cmd
    launch: float = 0.0
    wall: float = 0.0
    rc: int | None = None
    res: dict | None = None
    log: Path | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.res is not None and not self.problems

    @property
    def setup(self) -> float:
        return self.res["first_forward"] - self.launch


def session_commands(w: Workload, d: Path) -> list:
    rel = d.relative_to(ROOT)
    cfg = str(rel / "run.cfg")
    ckpt = str(rel / "train" / "checkpoint_final.ckpt")
    cmds = []
    if w.manifest:
        cmds += [Cmd("synth", ["synth", "--config", str(rel / f"{prefix}synth.cfg"),
                               "--out", str(rel / data_dir(explain))], focus=False)
                 for explain, prefix in ((False, ""), (True, "explain_"))]
    cmds += [Cmd("train", ["train", "--config", cfg, "--out", str(rel / "train")],
                 focus=not w.manifest),
             Cmd("eval", ["eval", ckpt, "--config", cfg, "--folds", str(FOLDS),
                          "--out", str(rel / "eval")], focus=w.manifest),
             Cmd("explain", ["explain", ckpt, "--config", str(rel / "explain.cfg"),
                             "--out", str(rel / "explain")],
                 focus=w.manifest)]
    return cmds


def repeat_commands(w: Workload, d: Path, k: int) -> list:
    """(command, mode) pairs of one repeat set: the focus commands stopped at
    their first forward (set-up samples), except eval and explain, which run
    in full (throughput samples; the host's speed moves too much for one
    sample of either)."""
    rel = d.relative_to(ROOT) / f"repeat{k}"
    out = []
    for cmd in session_commands(w, d):
        if cmd.focus or cmd.kind in THROUGHPUT:
            argv = list(cmd.argv)
            argv[argv.index("--out") + 1] = str(rel / cmd.kind)
            out.append((Cmd(cmd.kind, argv, cmd.focus),
                        "plain" if cmd.kind in THROUGHPUT else "probe"))
    return out


def launch(cmd: Cmd, mode: str, logdir: Path, tag: str, deadline: float) -> Run:
    logdir.mkdir(parents=True, exist_ok=True)
    run = Run(cmd, log=logdir / f"{tag}.log")
    result = logdir / f"{tag}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(result), mode, "--", *cmd.argv]
    with open(run.log, "w") as log:
        run.launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            run.problems.append("timed out")
        run.wall = time.monotonic() - run.launch
    run.rc = proc.returncode
    if run.rc == 0 and result.exists():
        run.res = json.loads(result.read_text())
        run.rc = run.res["rc"]
    if run.rc != 0 or run.res is None:
        run.problems.append(f"exit code {run.rc}; see {run.log.relative_to(ROOT)}")
    elif mode != "trace" and cmd.kind != "synth" and run.res.get("first_forward") is None:
        run.problems.append("never reached model_forward")
    return run


def run_session(w: Workload, d: Path, seed: int, mode: str, deadline: float) -> list:
    d.mkdir(parents=True)
    data = "manifest" if w.manifest else "synth"
    (d / "run.cfg").write_text(w.config(seed, data))
    (d / "explain.cfg").write_text(w.config(seed, data, explain=True))
    if w.manifest:
        (d / "synth.cfg").write_text(w.config(seed, "synth"))
        (d / "explain_synth.cfg").write_text(w.config(seed, "synth", explain=True))
    runs = []
    for cmd in session_commands(w, d):
        if runs and not runs[-1].ok:
            runs.append(Run(cmd, problems=["not run: an earlier command failed"]))
            continue
        runs.append(launch(cmd, mode, d / "_logs", cmd.kind, deadline))
    return runs


# ---------------------------------------------------------------------------
# output checks and digests


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(d: Path, subs=("data", "explain_data", "train", "eval", "explain")) -> dict:
    """SHA-256 of every file the commands wrote, by path under the session."""
    out = {}
    for sub in subs:
        for path in sorted((d / sub).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(d))] = sha256_file(path)
    return out


def read_rows(path: Path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()]


def finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_train(w: Workload, d: Path, facts: dict) -> list:
    problems = []
    rows = read_rows(d / "train" / "metrics.csv")
    if rows[0] != METRICS_HEADER:
        problems.append(f"metrics.csv header {rows[0]}")
    if len(rows) - 1 != ROUNDS * len(w.sites):
        problems.append(f"metrics.csv has {len(rows) - 1} rows, expected {ROUNDS * len(w.sites)}")
    cols = [METRICS_HEADER.index(c) for c in LOSS_COLUMNS]
    if not all(len(row) == len(METRICS_HEADER) and all(finite(row[c]) for c in cols)
               for row in rows[1:]):
        problems.append("metrics.csv has a short row or a non-finite loss")
    from dafed import wire

    theta, round_idx, _, _ = wire.load_checkpoint(d / "train" / "checkpoint_final.ckpt")
    if len(theta) != N_TENSORS or round_idx != ROUNDS:
        problems.append(f"checkpoint_final holds {len(theta)} tensors at round {round_idx}")
    blob = b"".join(theta[n].data.tobytes() for n in theta.names())
    facts["param_hash"] = hashlib.sha256(blob).hexdigest()[:16]
    return problems


def check_eval(w: Workload, d: Path, log: Path, facts: dict) -> list:
    """Row counts of eval.csv, plus the cohort window count and the target
    sites' window accuracy (correct windows over all their windows)."""
    problems = []
    rows = read_rows(d / "eval" / "eval.csv")
    expected = 1 + len(w.sites) * (FOLDS + 2)
    if rows[0] != ["site", "fold", "n_windows", "acc"] or len(rows) != expected:
        problems.append(f"eval.csv has {len(rows)} lines, expected {expected}")
        return problems
    windows, correct = {}, {}
    for site, fold, n, acc in rows[1:]:
        if fold == "mean":
            windows[site] = int(n)
        elif fold != "std":
            if not 0.0 <= float(acc) <= 1.0:
                problems.append(f"eval.csv accuracy {acc} out of range")
            correct[site] = correct.get(site, 0) + round(float(acc) * int(n))
    votes = log.read_text().count("subject majority-vote accuracy")
    if votes != len(w.sites):
        problems.append(f"eval printed {votes} subject votes, expected {len(w.sites)}")
    facts["cohort_windows"] = sum(windows.values())
    targets = w.target_sites
    facts["target_acc"] = statistics.fmean(correct[s] / windows[s] for s in targets)
    return problems


def check_explain(w: Workload, d: Path) -> list:
    problems = []
    saliency = read_rows(d / "explain" / "saliency.csv")
    if len(saliency) != 1 + 4 * ROIS or not all(finite(r[3]) for r in saliency[1:]):
        problems.append(f"saliency.csv has {len(saliency)} lines or a non-finite score")
    edges = read_rows(d / "explain" / "edges.csv")
    if edges[0] != ["roi_a", "roi_b", "correlation", "p_value"] or len(edges) > 1 + MAX_EDGES:
        problems.append(f"edges.csv has {len(edges)} lines")
    faith = read_rows(d / "explain" / "faithfulness.csv")
    if len(faith) != 3 or [r[2] for r in faith[1:]] != ["saliency", "random"]:
        problems.append(f"faithfulness.csv has {len(faith)} lines")
    return problems


def check_session(w: Workload, d: Path, runs: list) -> dict:
    """Attach output problems to the runs; return facts about the outputs."""
    facts = {}
    checks = {"train": lambda r: check_train(w, d, facts),
              "eval": lambda r: check_eval(w, d, r.log, facts),
              "explain": lambda r: check_explain(w, d)}
    for run in runs:
        if run.ok and run.cmd.kind in checks:
            try:
                run.problems += checks[run.cmd.kind](run)
            except (OSError, ValueError, IndexError, KeyError) as err:
                run.problems.append(f"output check failed: {err!r}")
    facts["digests"] = output_digests(d)
    return facts


# ---------------------------------------------------------------------------
# metrics


def round_times_ms(run: Run) -> list:
    stamps = run.res["round_starts"] + [run.res["train_end"]]
    return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


def tail(samples: list) -> tuple:
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(samples)} rounds leave no percentile with {TAIL_BEYOND} beyond")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def after_setup(run: Run) -> float:
    return run.res["end"] - run.res["first_forward"]


def end_to_end(w: Workload, runs: list, repeats: list, facts: dict, report: dict) -> dict:
    by_kind = {r.cmd.kind: r for r in runs}
    focus = [r for r in runs if r.cmd.focus]
    groups = [runs] + repeats
    setups = [sum(r.setup for r in group if r.cmd.focus) for group in groups]
    eval_rates = [facts["cohort_windows"] / after_setup(r)
                  for group in groups for r in group if r.cmd.kind == "eval"]
    explain_rates = [w.explained_windows / after_setup(r)
                     for group in groups for r in group if r.cmd.kind == "explain"]
    rounds = round_times_ms(by_kind["train"])
    later = rounds[1:]  # round 0 has no contrastive term
    tail_ms, tail_pct = tail(later)
    report.update(setup_samples_s=setups, round_ms=rounds, round_samples=len(later),
                  tail_percentile=tail_pct, eval_windows_per_s_samples=eval_rates,
                  explain_windows_per_s_samples=explain_rates,
                  explained_windows=w.explained_windows)
    return {
        "setup_s": statistics.median(setups),
        "train_round_ms.p50": statistics.median(later),
        "train_round_ms.tail": tail_ms,
        "target_acc": facts["target_acc"],
        "eval_windows_per_s": statistics.median(eval_rates),
        "explain_windows_per_s": statistics.median(explain_rates),
        "peak_rss_mb": max(r.res["maxrss_kb"] for r in focus) / 1024.0,
    }


def per_layer(w: Workload, runs: list, facts: dict) -> tuple:
    """(metrics, spans expected on this workload that recorded no call)."""
    by_kind = {r.cmd.kind: r for r in runs}
    units = {"train": ROUNDS, "eval": facts["cohort_windows"],
             "explain": w.explained_windows}

    def record(phase, span):
        if phase == "train":
            sources = [by_kind["train"].res["buckets"]["train"]]
        elif phase == "setup":
            sources = [r.res["buckets"]["other"] for r in runs if r.cmd.focus]
        elif phase == "cli":
            sources = [r.res["buckets"]["other"] for r in runs]
        else:
            sources = [by_kind[phase].res["buckets"]["other"]]
        total = [0, 0.0, 0.0, 0]
        for bucket in sources:
            for i, v in enumerate(bucket.get(span, ())):
                total[i] += v
        return total

    metrics, silent = {}, []
    skip = not_applicable(w)
    for name, phase, span, stat, unit in PER_LAYER:
        calls, total_s, self_s, count = record(phase, span)
        if calls == 0 and span not in skip:
            silent.append(f"{name} ({span})")
        per = units.get(phase, 1)
        value = {"ms": total_s * 1000.0 / per, "self_ms": self_s * 1000.0 / per,
                 "s": total_s / per, "self_s": self_s / per, "calls": calls / per,
                 "calls_total": calls, "units": count / per,
                 "units_per_call": count / calls if calls else 0.0}[stat]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, silent


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    from importlib.metadata import PackageNotFoundError, version
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version, "blas": blas,
            "blas_threads": int(BLAS_THREADS)}


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dafed" / "cli.py").is_file():
        print(f"error: {SRC.relative_to(ROOT)}/dafed is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    w = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / w.name
    shutil.rmtree(out, ignore_errors=True)
    report = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "loadavg_before": os.getloadavg()}

    plain = run_session(w, out / "plain", args.seed, "plain", deadline)
    facts = check_session(w, out / "plain", plain)
    attempts = list(plain)
    repeats = []
    if args.trace == 0 and all(r.ok for r in plain):
        while len(repeats) < MAX_REPEATS and (
                len(repeats) < MIN_REPEATS or time.monotonic() - start < args.seconds):
            k = len(repeats)
            group = [launch(cmd, mode, out / "plain" / "_logs", f"repeat{k}-{cmd.kind}", deadline)
                     for cmd, mode in repeat_commands(w, out / "plain", k)]
            for r in group:
                kind = r.cmd.kind
                if r.ok and kind in THROUGHPUT:
                    first = {path: digest for path, digest in facts["digests"].items()
                             if path.startswith(f"{kind}/")}
                    if output_digests(out / "plain" / f"repeat{k}", (kind,)) != first:
                        r.problems.append(f"outputs differ from the first {kind}'s")
            attempts += group
            if not all(r.ok for r in group):
                break
            repeats.append(group)

    metrics, correct = {}, all(r.ok for r in attempts)
    if args.trace == 1 and correct:
        traced = run_session(w, out / "trace", args.seed, "trace", deadline)
        traced_facts = check_session(w, out / "trace", traced)
        attempts += traced
        correct = all(r.ok for r in traced)
        report["trace_overhead"] = sum(r.wall for r in traced) / sum(r.wall for r in plain)
        report["traced_digests_equal"] = traced_facts["digests"] == facts["digests"]
        if correct and not report["traced_digests_equal"]:
            print("error: traced outputs differ from untraced outputs", file=sys.stderr)
            correct = False
        if correct:
            metrics, silent = per_layer(w, traced, facts)
            if silent:
                print("error: per-layer spans recorded no call: " + ", ".join(silent),
                      file=sys.stderr)
                correct = False
    elif args.trace == 0 and correct and len(repeats) >= MIN_REPEATS:
        values = end_to_end(w, plain, repeats, facts, report)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        correct = False

    failed = sum(not r.ok for r in attempts)
    report.update(loadavg_after=os.getloadavg(), seconds=time.monotonic() - start,
                  attempted=len(attempts), failed=failed, error_rate=failed / len(attempts),
                  param_hash=facts.get("param_hash"), digests=facts.get("digests"),
                  commands=[{"kind": r.cmd.kind, "focus": r.cmd.focus, "wall_s": r.wall,
                             "rc": r.rc, "problems": r.problems} for r in attempts])
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for r in attempts:
        if r.problems:
            print(f"error: {r.cmd.kind}: {'; '.join(r.problems)}", file=sys.stderr)
    print(f"# {w.name} seed {args.seed}: {len(attempts)} commands, {failed} failed, "
          f"param hash {facts.get('param_hash')}, report in {(out / 'report.json').relative_to(ROOT)}")
    print("# environment: " + json.dumps(report["environment"]))
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
