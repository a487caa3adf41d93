"""The benchmark's workloads: their cohorts and the run configs written for them.

Every workload runs the user's path through the `dafed` CLI on its cohort:
train, then `eval --folds 5` (with the subject vote) and `explain` of the
final checkpoint. The workloads differ in cohort shape and data path, so
they load different layers (see README.md for why each was chosen).
"""

from __future__ import annotations

from dataclasses import dataclass

T_POINTS = 48
WINDOW = 20
STRIDE = 1
ROIS = 32
FOLDS = 5
ROUNDS = 30
EXPLAIN_WINDOWS = 1  # of the 29 windows per subject

# The model and protocol settings of configs/synthetic_4site.cfg, copied so
# that the benchmark's inputs do not change when that file does.
COMMON = f"""\
t_points = {T_POINTS}
rois = {ROIS}
class_sep = 0.7
window = {WINDOW}
stride = {STRIDE}
top_k = 10
lambda_mi = 1.0
lambda_cl = 0.1
gamma = 10.0
tau = 0.5
queue = 5
alpha = 0.01
lr_profile = decay
lr_base = 0.01
lr_decay = 0.99
batch_denom = 16
folds = {FOLDS}
subject_vote = true
rounds = {ROUNDS}
explain_windows = {EXPLAIN_WINDOWS}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    sites: tuple  # (site id, role, shift); the first is the source
    subjects: int  # per site
    manifest: bool  # data = manifest, from CSVs that `dafed synth` wrote
    # Per site in the cohort `explain` runs on: a smaller cohort of the same
    # sites and seed, so that a run can afford three explain samples.
    explain_subjects: int

    @property
    def mode(self) -> str:
        return "dafed_l" if any(role == "target_labeled" for _, role, _ in self.sites) else "dafed_u"

    @property
    def target_sites(self) -> list:
        return [site_id for site_id, role, _ in self.sites if role != "source"]

    @property
    def explained_windows(self) -> int:
        return len(self.sites) * self.explain_subjects * EXPLAIN_WINDOWS

    def config(self, seed: int, data: str, explain: bool = False) -> str:
        """A run config of the training cohort, or with `explain` of the
        explain cohort."""
        subjects = self.explain_subjects if explain else self.subjects
        lines = [f"seed = {seed}", f"mode = {self.mode}", f"data = {data}",
                 f"subjects = {subjects}"]
        if data == "manifest":
            lines.append(f"manifest = {data_dir(explain)}/manifest.csv")
        for i, (site_id, role, shift) in enumerate(self.sites):
            lines += [f"site.{i}.id = {site_id}", f"site.{i}.role = {role}",
                      f"site.{i}.shift = {shift}"]
        return COMMON + "\n".join(lines) + "\n"


def data_dir(explain: bool) -> str:
    """Where `dafed synth` writes the CSVs of a manifest workload's training
    or explain cohort, under the session directory."""
    return "explain_data" if explain else "data"


def _targets(role: str, shifts) -> tuple:
    return tuple((f"edge{i}", role, shift) for i, shift in enumerate(shifts))


SOURCE = (("central", "source", 0.0),)

WORKLOADS = {w.name: w for w in (
    # The canonical cohort: a round is mostly the tape's forward and backward
    # passes, and this training is what the tier-1 acceptance suite spends
    # its time on.
    Workload(
        name="train-4site",
        sites=SOURCE + _targets("target_unlabeled", (0.4, 0.5, 0.6)),
        subjects=40, manifest=False, explain_subjects=12),
    # Inference on a cohort read from CSV files. Its training (before the
    # focus commands) has 7 small targets, so per-site work that scales with
    # the parameter count (noise, Adam, wire, averaging) is a large share of
    # a round. Labeled targets, because on a manifest cohort eval and explain
    # need labels at every site.
    Workload(
        name="infer-manifest",
        sites=SOURCE + _targets("target_labeled", (0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6)),
        subjects=12, manifest=True, explain_subjects=6),
)}
