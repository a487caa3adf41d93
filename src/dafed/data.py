"""Dynamic functional-connectivity graphs from ROI time series.

Pipeline: sliding windows over a (time x ROI) series, Pearson correlation
per window, Fisher z-transform, then a top-k graph per window. Sources are
either the multi-site synthetic generator or user CSVs listed in a manifest.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import rng
from .fusion import LABELED_ROLES
from .stfg import normalize_adjacency

logger = logging.getLogger(__name__)

R_CLIP = 0.999  # correlation magnitude cap before the z-transform
VAR_FLOOR = 1e-12
BURN_IN = 50  # generator steps dropped before a series starts, so it starts stationary


@dataclass
class TimeSeries:
    subject_id: str
    site_id: str
    label: int | None  # 0 = patient, 1 = control, None = unlabeled
    values: np.ndarray  # (T, R)
    truth: int | None = None  # the known class, kept even where `label` is withheld


@dataclass
class FCGraph:
    """One windowed connectivity sample, a view of one row of its site's
    stacks: `features` is the full symmetric z-matrix whose rows are the
    per-ROI feature vectors, `propagation` the normalized top-k graph."""

    features: np.ndarray
    propagation: np.ndarray
    subject_id: str
    window: int


@dataclass
class SiteDataset:
    """One site's windows as contiguous stacks; row i of every array is
    window i. `labels` and `truth` are None where the site has none."""

    site_id: str
    features: np.ndarray  # (n, R, R) Fisher z-matrices
    propagation: np.ndarray  # (n, R, R) D^-1/2 (A + I) D^-1/2 of the top-k graphs
    subject: np.ndarray  # (n,) subject ids
    window: np.ndarray  # (n,) window index within the subject's series
    labels: np.ndarray | None  # (n,) training labels, None at an unlabeled site
    truth: np.ndarray | None  # (n,) known classes, see TimeSeries.truth

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_rois(self) -> int:
        return self.features.shape[-1]

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    @cached_property
    def subject_index(self) -> dict[str, list[int]]:
        """Each subject's window rows, in row order, keyed in subject-id order."""
        index: dict[str, list[int]] = {}
        for i, subject_id in enumerate(self.subject.tolist()):
            index.setdefault(subject_id, []).append(i)
        return dict(sorted(index.items()))

    @cached_property
    def samples(self) -> list[FCGraph]:
        """Per-window views of the stacks, built on first use: only
        attribution reads windows one at a time."""
        return [FCGraph(features=self.features[i], propagation=self.propagation[i],
                        subject_id=str(self.subject[i]), window=int(self.window[i]))
                for i in range(len(self))]


class ZeroVarianceError(ValueError):
    """Flat columns in a stack of windows. `flat` is the (..., R) mask of
    them; `roi` is the first flat column of the first window that has one."""

    def __init__(self, flat: np.ndarray):
        self.flat = flat
        self.roi = int(np.argwhere(flat)[0][-1])
        super().__init__(f"zero-variance column for ROI {self.roi}")


def sliding_windows(t: int, w: int, stride: int = 1) -> list[tuple[int, int]]:
    """[start, start+w) ranges; count is floor((t - w) / stride) + 1."""
    if w < 2:
        raise ValueError(f"window size must be >= 2, got {w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if t < w:
        raise ValueError(f"series too short: {t} points, window needs at least {w}")
    return [(s, s + w) for s in range(0, t - w + 1, stride)]


def pearson_matrix(windows: np.ndarray) -> np.ndarray:
    """Correlation matrices of a (..., w, R) stack of windows: symmetric,
    unit diagonal, entries in [-1, 1]. Raises ZeroVarianceError on a flat
    column."""
    x = np.asarray(windows, dtype=np.float64)
    centered = x - x.mean(axis=-2, keepdims=True)
    ss = (centered * centered).sum(axis=-2)
    flat = ss / x.shape[-2] <= VAR_FLOOR
    if flat.any():
        raise ZeroVarianceError(flat)
    denom = np.sqrt(ss)
    corr = (np.swapaxes(centered, -1, -2) @ centered) / (denom[..., :, None] * denom[..., None, :])
    corr = (corr + np.swapaxes(corr, -1, -2)) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    diag = np.arange(corr.shape[-1])
    corr[..., diag, diag] = 1.0
    return corr


def fisher_z(r, out=None):
    """atanh with the magnitude capped at R_CLIP; exactly odd in r. With
    `out`, the values are written there and `r` is left as it is."""
    return np.arctanh(np.clip(r, -R_CLIP, R_CLIP, out=out), out=out)


def top_k_adjacency(fc: np.ndarray, k: int) -> np.ndarray:
    """Top-k |z| graphs of a (..., R, R) stack: per row keep the k strongest
    off-diagonal entries (first-index tie-break), weights |z|, symmetrized by
    elementwise max."""
    fc = np.asarray(fc, dtype=np.float64)
    r = fc.shape[-1]
    if fc.shape[-2:] != (r, r) or not np.array_equal(fc, np.swapaxes(fc, -1, -2)):
        raise ValueError(f"feature matrix must be square symmetric, got shape {fc.shape}")
    if not 1 <= k < r:
        raise ValueError(f"neighbor count k={k} out of range [1, {r - 1}]")
    strength = np.abs(fc)
    diag = np.arange(r)
    strength[..., diag, diag] = -np.inf
    # a row keeps every value above its k-th largest and, of the values equal
    # to it, the lowest-index ones: the first k of a stable descending sort
    kth = np.partition(strength, r - k, axis=-1)[..., r - k, None]
    above = strength > kth
    tied = strength == kth
    keep = above | (tied & (np.cumsum(tied, axis=-1) <= k - above.sum(axis=-1, keepdims=True)))
    adj = np.where(keep, strength, 0.0)
    return np.maximum(adj, np.swapaxes(adj, -1, -2))


def series_to_graphs(series: list[TimeSeries], window: int, stride: int, k: int) -> SiteDataset:
    """One site's graphs, written series by series into its stacks: all
    windows of a series form one stack, windows where an ROI is flat are
    skipped (and logged), and kept windows keep their index. Each graph's
    propagation matrix is computed here, once."""
    n = sum(len(sliding_windows(ts.values.shape[0], window, stride)) for ts in series)
    r = series[0].values.shape[1]
    features, propagation = np.empty((n, r, r)), np.empty((n, r, r))
    kept_per_series, rows = [], 0
    for ts in series:
        windows = np.lib.stride_tricks.sliding_window_view(ts.values, window, axis=0)[::stride]
        windows = np.ascontiguousarray(np.swapaxes(windows, -1, -2))  # (n, w, R)
        kept = np.arange(len(windows))
        try:
            corr = pearson_matrix(windows)
        except ZeroVarianceError as zv:
            flat = zv.flat.any(axis=-1)
            for w_idx in np.flatnonzero(flat):
                logger.warning("skipping window: subject=%s window=%d roi=%d has zero variance",
                               ts.subject_id, w_idx, np.argmax(zv.flat[w_idx]))
            kept = np.flatnonzero(~flat)
            corr = pearson_matrix(windows[kept])
        end = rows + len(kept)
        fisher_z(corr, out=features[rows:end])
        normalize_adjacency(top_k_adjacency(features[rows:end], k), out=propagation[rows:end])
        kept_per_series.append(kept)
        rows = end
    sizes = [len(kept) for kept in kept_per_series]
    subject, index = np.repeat([ts.subject_id for ts in series], sizes), np.concatenate(kept_per_series)
    return SiteDataset(site_id=series[0].site_id, features=features[:rows],
                       propagation=propagation[:rows], subject=subject, window=index,
                       labels=None if series[0].label is None else np.repeat([ts.label for ts in series], sizes),
                       truth=None if series[0].truth is None else np.repeat([ts.truth for ts in series], sizes))


# ---------------------------------------------------------------------------
# synthetic multi-site generator


@dataclass
class SynthSite:
    site_id: str
    subjects: int
    labeled: bool
    shift: float  # site mixing strength, 0 means no site effect
    t: int | None = None  # per-site override of the series length


@dataclass
class SynthConfig:
    """Non-IID multi-site generator settings.

    Each subject is an AR(1) process whose innovations carry a class-dependent
    correlated block on a fixed signal ROI subset, mixed through a site-specific
    near-orthogonal matrix of strength `shift`.
    """

    sites: list[SynthSite]
    n_rois: int = 32
    t: int = 48
    class_sep: float = 0.6
    class_balance: float = 0.5
    signal_frac: float = 0.2
    ar_coeff: float = 0.5
    window: int = 20
    stride: int = 1
    top_k: int = 10

    def validate(self):
        if not self.sites:
            raise ValueError("generator needs at least one site")
        if self.n_rois < 2:
            raise ValueError(f"n_rois must be >= 2, got {self.n_rois}")
        if not 0.0 < self.class_sep < 1.0:
            raise ValueError(f"class_sep must be in (0, 1), got {self.class_sep}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError(f"class_balance must be in (0, 1), got {self.class_balance}")
        if not 0.0 < self.signal_frac <= 1.0:
            raise ValueError(f"signal_frac must be in (0, 1], got {self.signal_frac}")
        if not 0.0 <= abs(self.ar_coeff) < 1.0:
            raise ValueError(f"ar_coeff must have magnitude < 1, got {self.ar_coeff}")
        for s in self.sites:
            if s.subjects < 1:
                raise ValueError(f"site {s.site_id}: subjects must be >= 1")
            if s.shift < 0:
                raise ValueError(f"site {s.site_id}: shift must be >= 0")
            if (s.t or self.t) < self.window:
                raise ValueError(f"site {s.site_id}: series length below window size {self.window}")

    def signal_rois(self) -> np.ndarray:
        m = max(4, int(round(self.signal_frac * self.n_rois)))
        m = min(m, self.n_rois)
        return np.arange(m)


def _class_chol(cfg: SynthConfig, label: int) -> np.ndarray:
    """Cholesky factor of the innovation covariance for one class.

    Both classes correlate the same signal block, patients (0) weakly and
    controls (1) strongly, so the class is carried by connectivity strength
    rather than location.
    """
    strength = cfg.class_sep if label == 1 else 0.35 * cfg.class_sep
    sig = cfg.signal_rois()
    cov = np.eye(cfg.n_rois)
    for a in sig:
        for b in sig:
            if a != b:
                cov[a, b] = strength
    return np.linalg.cholesky(cov)


def _site_mixer(cfg: SynthConfig, site: SynthSite, seed: int) -> np.ndarray:
    """Orthogonal site effect: a site-keyed random rotation taken to the
    power `shift`, so shift=0 is the identity and shift=1 a full random
    rotation of the ROI basis."""
    if site.shift == 0.0:
        return np.eye(cfg.n_rois)
    g = rng.stream(seed, "site_mix", site.site_id).standard_normal((cfg.n_rois, cfg.n_rois))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity so Q is deterministic
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]  # stay in the rotation group so the power is real
    vals, vecs = np.linalg.eig(q)
    powered = (vecs * vals ** site.shift) @ np.conj(vecs.T)
    return np.ascontiguousarray(powered.real)


def synth_series(cfg: SynthConfig, seed: int) -> list[TimeSeries]:
    """Raw per-subject series for every configured site, deterministic per seed.

    Each subject's innovations come from its own stream; the AR(1) recursion
    then runs once per site over the stacked (subjects, T, R) innovations.
    """
    cfg.validate()
    chol = {0: _class_chol(cfg, 0), 1: _class_chol(cfg, 1)}
    out = []
    for site in cfg.sites:
        mixer = _site_mixer(cfg, site, seed)
        t_len = site.t or cfg.t
        n0 = int(round(cfg.class_balance * site.subjects))
        labels = [0 if j < n0 else 1 for j in range(site.subjects)]
        subject_ids = [f"{site.site_id}_s{j:03d}" for j in range(site.subjects)]
        innov = np.empty((site.subjects, BURN_IN + t_len, cfg.n_rois))
        for j, (label, subject_id) in enumerate(zip(labels, subject_ids)):
            z = rng.stream(seed, "subject", site.site_id, subject_id).standard_normal(
                (BURN_IN + t_len, cfg.n_rois))
            innov[j] = z @ chol[label].T @ mixer.T
        x = np.empty_like(innov)
        x[:, 0] = innov[:, 0]
        for step in range(1, innov.shape[1]):
            x[:, step] = cfg.ar_coeff * x[:, step - 1] + innov[:, step]
        for j, (label, subject_id) in enumerate(zip(labels, subject_ids)):
            out.append(TimeSeries(subject_id=subject_id, site_id=site.site_id,
                                  label=label if site.labeled else None,
                                  values=x[j, BURN_IN:], truth=label))
    return out


def synth_multisite(cfg: SynthConfig, seed: int) -> list[SiteDataset]:
    """Windowed graph datasets per site. Unlabeled sites carry no `labels`;
    every site keeps the generator's class in `truth`, which only the
    accuracy metrics read, never training."""
    series = synth_series(cfg, seed)
    return [series_to_graphs([ts for ts in series if ts.site_id == site.site_id],
                             cfg.window, cfg.stride, cfg.top_k)
            for site in cfg.sites]


# ---------------------------------------------------------------------------
# CSV ingestion


class IngestError(ValueError):
    pass


def read_utf8(path: Path, error: type[ValueError] = IngestError) -> str:
    """A text file decoded as UTF-8; a byte that is not UTF-8 raises `error`
    naming the file and the line it is on (lines end in \\n, \\r\\n or \\r)."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        head = raw[:err.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None


def _read_series_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    with io.StringIO(read_utf8(path), newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise IngestError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise IngestError(f"{path}:{lineno}: non-numeric cell") from None
            if not all(map(math.isfinite, row)):
                raise IngestError(f"{path}:{lineno}: non-finite cell")
            rows.append(row)
    if not rows:
        raise IngestError(f"{path}: empty series file")
    return np.asarray(rows, dtype=np.float64)


def ingest_csv(manifest_path, roles: dict[str, str], window: int, stride: int,
               k: int) -> list[SiteDataset]:
    """The sites of a manifest CSV (columns subject_id, site_id, label, path;
    label may be empty) in the order of `roles`, the run's site id -> role
    map (`RunConfig.roles()`); pipeline identical to the synthetic path.

    One pass over the rows checks each row and its series, and every check
    runs before the first graph is built. A row at a site `roles` lacks
    (naming the line), a window longer than a series or a `k` at or above
    its ROI count (naming the key and the file), a site of `roles` with no
    row, and a labeled role at an unlabeled site (naming `site.N.role`) are
    ConfigErrors; data that cannot be used is an IngestError.
    """
    from .config import ConfigError  # config imports this module

    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    by_site: dict[str, list[TimeSeries]] = {site_id: [] for site_id in roles}
    first_line = {}  # (site_id, subject_id) -> manifest line
    with io.StringIO(read_utf8(manifest_path), newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"subject_id", "site_id", "label", "path"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestError(f"{manifest_path}: manifest needs columns {sorted(required)}")
        for row in reader:
            lineno = reader.line_num  # DictReader skips blank lines
            missing = sorted(name for name in required if row[name] is None)
            if missing:  # a short row: DictReader fills its missing cells with None
                raise IngestError(f"{manifest_path}:{lineno}: row has no cell for "
                                  f"{', '.join(missing)}")
            for name in ("subject_id", "site_id", "path"):
                if not row[name].strip():
                    raise IngestError(f"{manifest_path}:{lineno}: empty {name}")
            if "\0" in row["path"]:  # no file can have this name; open() raises ValueError
                raise IngestError(f"{manifest_path}:{lineno}: NUL byte in path")
            raw_label = row["label"].strip()
            if raw_label not in ("0", "1", ""):
                raise IngestError(f"{manifest_path}:{lineno}: label must be 0, 1 or empty, "
                                  f"got {raw_label!r}")
            label = int(raw_label) if raw_label else None
            where = (row["site_id"], row["subject_id"])
            if where in first_line:
                # window uids are subject-keyed, so a repeat would merge two series
                raise IngestError(f"{manifest_path}:{lineno}: subject {where[1]!r} of site "
                                  f"{where[0]!r} repeats line {first_line[where]}")
            first_line[where] = lineno
            if where[0] not in by_site:
                raise ConfigError(f"{manifest_path}:{lineno}: site {where[0]!r} has no "
                                  "configured site.N.id")
            path = Path(row["path"])
            if not path.is_absolute():
                path = base / path
            try:
                values = _read_series_csv(path)
            except OSError as err:
                raise IngestError(f"{manifest_path}:{lineno}: cannot read {path}: {err.strerror}") from None
            points, rois = values.shape
            if window > points:
                raise ConfigError(f"window = {window} is longer than the {points} points of {path}")
            if k >= rois:
                raise ConfigError(f"top_k = {k} must be below the {rois} ROIs of {path}")
            by_site[where[0]].append(TimeSeries(subject_id=where[1], site_id=where[0],
                                                label=label, values=values, truth=label))
    absent = [site_id for site_id, group in by_site.items() if not group]
    if absent:
        raise ConfigError(f"config names sites absent from {manifest_path}: {sorted(absent)}")
    for i, (site_id, group) in enumerate(by_site.items()):
        widths = {ts.values.shape[1] for ts in group}
        if len(widths) > 1:
            raise IngestError(f"{manifest_path}: site {site_id}: inconsistent ROI counts "
                              f"{sorted(widths)}")
        labeled_flags = {ts.label is not None for ts in group}
        if len(labeled_flags) > 1:
            raise IngestError(f"{manifest_path}: site {site_id}: mixes labeled and "
                              "unlabeled subjects")
        if roles[site_id] in LABELED_ROLES and labeled_flags == {False}:
            raise ConfigError(f"site.{i}.role = {roles[site_id]} needs labels, "
                              f"but site {site_id} has none in the manifest")
    datasets = []
    for site_id, group in by_site.items():
        dataset = series_to_graphs(group, window, stride, k)
        if not len(dataset):
            raise IngestError(f"{manifest_path}: site {site_id}: no usable window, "
                              "every window has a flat ROI")
        datasets.append(dataset)
    return datasets
