"""Run one `dafed` command in this process and record when its phases happen.

Usage (from the root of the repository):

    python3 perfbench/child.py RESULT.json {plain,probe,trace} -- <dafed arguments>

The parent (`run.py`) starts one of these per command and reads RESULT.json
when it exits. Modes:

- plain: end-to-end timing only. A one-shot hook stamps the first
  `network.model_forward` call (the end of set-up) and removes itself; two
  wrappers stamp the start of every training round and the end of training.
- probe: like plain, but the process writes its result and exits at the
  first `model_forward` call, so it measures set-up alone.
- trace: every public function of the thirteen `dafed` modules is wrapped
  from outside the package, and spans are aggregated per function into total
  time, self time and call counts.

All times are `time.monotonic()` readings, which share one clock with the
parent on Linux, so the parent can subtract its own launch stamp.
"""

from __future__ import annotations

import json
import os
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, BLAS_THREADS)  # before numpy is imported

import resource  # noqa: E402
import types  # noqa: E402

MODULES = ("cli", "config", "data", "rng", "tensor", "optim", "stfg", "disentangle",
           "fusion", "network", "wire", "fedsim", "explain")

# While a span of this function is open, spans go to the "train" bucket
# (the training loop); all other spans go to the "other" bucket.
TRAIN_SCOPE = "fedsim.run_training"


def dafed_modules():
    return [sys.modules[f"dafed.{name}"] for name in MODULES]


def rebind(replacements: dict):
    """Point every `dafed.*` attribute that *is* a replaced function (keyed by
    id) at its replacement, so functions imported by name (`fedsim.backward`,
    `explain.eval_class_probs`, ...) are covered too."""
    for mod in dafed_modules():
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None:
                setattr(mod, attr, new)


class Stamps:
    """End-to-end stamps of one command (plain and probe modes)."""

    def __init__(self, result_path: str, probe: bool):
        self.result_path = result_path
        self.probe = probe
        self.first_forward = None
        self.round_starts = []
        self.train_end = None

    def install(self):
        from dafed import fedsim, network

        forward = network.model_forward

        def first_forward(*args, **kwargs):
            self.first_forward = time.monotonic()
            if self.probe:
                write_result(self.result_path, dict(self.as_dict(), rc=0))
                os._exit(0)
            rebind({id(first_forward): forward})
            return forward(*args, **kwargs)

        round_fn = fedsim.multi_site_round
        training = fedsim.run_training

        def stamped_round(*args, **kwargs):
            self.round_starts.append(time.monotonic())
            return round_fn(*args, **kwargs)

        def stamped_training(*args, **kwargs):
            try:
                return training(*args, **kwargs)
            finally:
                self.train_end = time.monotonic()

        rebind({id(forward): first_forward, id(round_fn): stamped_round,
                id(training): stamped_training})

    def as_dict(self) -> dict:
        return {"first_forward": self.first_forward,
                "round_starts": self.round_starts, "train_end": self.train_end,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


class Tracer:
    """Spans at every public function boundary, kept as per-name aggregates.

    Each open span is a frame [time covered by child spans]; on exit the
    span's duration is added to its parent's child time, so
    self time = duration - child time. Aggregates are kept per bucket
    (train / other) as [calls, total s, self s, units], where units is a
    per-function quantity: bytes for `wire.encode_message`, input rows for
    `network.eval_class_probs`, tape nodes for `fedsim.site_objective`.
    """

    def __init__(self):
        self.stack: list = []
        self.buckets = {"train": {}, "other": {}}
        self.bucket = self.buckets["other"]

    def _record(self, name, dt, child, units):
        rec = self.bucket.get(name)
        if rec is None:
            rec = self.bucket[name] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        rec[3] += units

    def wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        units_of = UNITS.get(name)
        split = name == "network.model_forward"
        scope = name == TRAIN_SCOPE

        def traced(*args, **kwargs):
            span = (f"{name}.train" if kwargs.get("train") else f"{name}.eval") if split else name
            if scope:
                self.bucket = self.buckets["train"]
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                units = 0
                if units_of is not None and sys.exc_info()[0] is None:
                    units = units_of(args, kwargs, out)
                self._record(span, dt, frame[0], units)
                if scope:
                    self.bucket = self.buckets["other"]
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        replacements = {}
        for mod in dafed_modules():
            short = mod.__name__.split(".", 1)[1]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__
                        and not hasattr(value, "__wrapped__")):  # context managers
                    replacements[id(value)] = self.wrap(f"{short}.{attr}", value)
        rebind(replacements)

    def as_dict(self) -> dict:
        return {"buckets": self.buckets}


def _tape_nodes(root) -> int:
    """Tensors reachable from the objective through `parents`."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for parent, _ in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


UNITS = {
    "wire.encode_message": lambda args, kwargs, out: len(out),
    "network.eval_class_probs": lambda args, kwargs, out: int(out.shape[0]),
    "fedsim.site_objective": lambda args, kwargs, out: _tape_nodes(out.total),
}


def write_result(path: str, payload: dict):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] not in ("plain", "probe", "trace") or argv[2] != "--":
        print("usage: child.py RESULT.json {plain,probe,trace} -- <dafed args>", file=sys.stderr)
        return 2
    result_path, mode, dafed_args = argv[0], argv[1], argv[3:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from dafed import cli

    recorder = Tracer() if mode == "trace" else Stamps(result_path, probe=mode == "probe")
    recorder.install()
    try:
        rc = cli.main(dafed_args)
    except SystemExit as stop:  # argparse rejects the arguments
        rc = stop.code if isinstance(stop.code, int) else 2
    end = time.monotonic()
    payload = recorder.as_dict()
    payload.update(rc=rc, end=end,
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    write_result(result_path, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
