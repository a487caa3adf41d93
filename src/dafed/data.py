"""Dynamic functional-connectivity graphs from ROI time series.

Pipeline: sliding windows over a (time x ROI) series, Pearson correlation
per window, Fisher z-transform, then a top-k graph per window. Sources are
either the multi-site synthetic generator or user CSVs listed in a manifest.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng

logger = logging.getLogger(__name__)

R_CLIP = 0.999  # correlation magnitude cap before the z-transform
VAR_FLOOR = 1e-12


@dataclass
class TimeSeries:
    subject_id: str
    site_id: str
    label: int | None  # 0 = patient, 1 = control, None = unlabeled
    values: np.ndarray  # (T, R)
    truth: int | None = None  # the known class, kept even where `label` is withheld


@dataclass
class FCGraph:
    """One windowed connectivity sample.

    `adjacency` keeps the top-k absolute z-scores per row (zero diagonal,
    symmetrized by max); `features` is the full symmetric z-matrix whose rows
    are the per-ROI feature vectors.
    """

    adjacency: np.ndarray
    features: np.ndarray
    label: int | None
    site_id: str
    subject_id: str
    window: int
    truth: int | None = None  # evaluation-only class, see TimeSeries.truth
    _norm: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_rois(self) -> int:
        return self.features.shape[0]

    @property
    def uid(self) -> str:
        return f"{self.subject_id}:{self.window}"


@dataclass
class SiteDataset:
    site_id: str
    samples: list[FCGraph]
    labeled: bool
    subject_index: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.subject_index:
            for i, g in enumerate(self.samples):
                self.subject_index.setdefault(g.subject_id, []).append(i)
        for g in self.samples:
            if self.labeled and g.label is None:
                raise ValueError(f"site {self.site_id}: labeled dataset has unlabeled sample {g.uid}")
            if not self.labeled and g.label is not None:
                raise ValueError(f"site {self.site_id}: unlabeled dataset has labeled sample {g.uid}")


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


def fisher_z(r):
    """atanh with the magnitude capped at R_CLIP; exactly odd in r."""
    return np.arctanh(np.clip(r, -R_CLIP, R_CLIP))


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
    top = np.argsort(-strength, axis=-1, kind="stable")[..., :k]
    adj = np.zeros_like(strength)
    np.put_along_axis(adj, top, np.take_along_axis(strength, top, axis=-1), axis=-1)
    return np.maximum(adj, np.swapaxes(adj, -1, -2))


def series_to_graphs(ts: TimeSeries, window: int, stride: int, k: int) -> list[FCGraph]:
    """Window a series into graphs, all windows as one stack, skipping (and
    logging) windows where an ROI is flat; kept windows keep their index."""
    n = len(sliding_windows(ts.values.shape[0], window, stride))
    windows = np.lib.stride_tricks.sliding_window_view(ts.values, window, axis=0)[::stride]
    windows = np.ascontiguousarray(np.swapaxes(windows, -1, -2))  # (n, w, R)
    kept = np.arange(n)
    try:
        corr = pearson_matrix(windows)
    except ZeroVarianceError as zv:
        flat = zv.flat.any(axis=-1)
        for w_idx in np.flatnonzero(flat):
            logger.warning("skipping window: subject=%s window=%d roi=%d has zero variance",
                           ts.subject_id, w_idx, np.argmax(zv.flat[w_idx]))
        kept = np.flatnonzero(~flat)
        corr = pearson_matrix(windows[kept])
    features = fisher_z(corr)
    adjacency = top_k_adjacency(features, k)
    return [FCGraph(adjacency=adjacency[i], features=features[i], label=ts.label,
                    site_id=ts.site_id, subject_id=ts.subject_id, window=int(w_idx),
                    truth=ts.truth)
            for i, w_idx in enumerate(kept)]


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
    burn_in: int = 50

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
    """Raw per-subject series for every configured site, deterministic per seed."""
    cfg.validate()
    chol = {0: _class_chol(cfg, 0), 1: _class_chol(cfg, 1)}
    out = []
    for site in cfg.sites:
        mixer = _site_mixer(cfg, site, seed)
        t_len = site.t or cfg.t
        n0 = int(round(cfg.class_balance * site.subjects))
        for j in range(site.subjects):
            label = 0 if j < n0 else 1
            subject_id = f"{site.site_id}_s{j:03d}"
            z = rng.stream(seed, "subject", site.site_id, subject_id).standard_normal(
                (cfg.burn_in + t_len, cfg.n_rois))
            innov = z @ chol[label].T @ mixer.T
            x = np.empty_like(innov)
            x[0] = innov[0]
            for step in range(1, innov.shape[0]):
                x[step] = cfg.ar_coeff * x[step - 1] + innov[step]
            out.append(TimeSeries(subject_id=subject_id, site_id=site.site_id,
                                  label=label if site.labeled else None,
                                  values=x[cfg.burn_in:], truth=label))
    return out


def synth_multisite(cfg: SynthConfig, seed: int) -> list[SiteDataset]:
    """Windowed graph datasets per site. Unlabeled sites carry no `label`;
    every sample keeps the generator's class in `truth`, which only the
    accuracy metrics read, never training."""
    series = synth_series(cfg, seed)
    datasets = []
    for site in cfg.sites:
        samples = []
        for ts in series:
            if ts.site_id == site.site_id:
                samples.extend(series_to_graphs(ts, cfg.window, cfg.stride, cfg.top_k))
        datasets.append(SiteDataset(site_id=site.site_id, samples=samples, labeled=site.labeled))
    return datasets


# ---------------------------------------------------------------------------
# CSV ingestion


class IngestError(ValueError):
    pass


def _read_series_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path, newline="") as fh:
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
                rows.append([float(c) for c in cells])
            except ValueError:
                raise IngestError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise IngestError(f"{path}: empty series file")
    return np.asarray(rows, dtype=np.float64)


def read_manifest(manifest_path) -> list[tuple[Path, TimeSeries]]:
    """Load every series referenced by a manifest CSV with columns
    subject_id, site_id, label, path (label may be empty), each with the
    path it was read from."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    series = []
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"subject_id", "site_id", "label", "path"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestError(f"{manifest_path}: manifest needs columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            raw_label = (row["label"] or "").strip()
            try:
                label = int(raw_label) if raw_label else None
            except ValueError:
                raise IngestError(f"{manifest_path}:{lineno}: label must be an integer or empty") from None
            path = Path(row["path"])
            if not path.is_absolute():
                path = base / path
            values = _read_series_csv(path)
            series.append((path, TimeSeries(subject_id=row["subject_id"], site_id=row["site_id"],
                                            label=label, values=values, truth=label)))
    return series


def ingest_csv(manifest_path, window: int, stride: int, k: int) -> list[SiteDataset]:
    """Datasets grouped by site; pipeline identical to the synthetic path.

    A window longer than a series or a `k` at or above its ROI count is a
    configuration error naming the config key and the series file.
    """
    from .config import ConfigError  # config imports this module

    by_site: dict[str, list[TimeSeries]] = {}
    for path, ts in read_manifest(manifest_path):
        points, rois = ts.values.shape
        if window > points:
            raise ConfigError(f"window = {window} is longer than the {points} points of {path}")
        if k >= rois:
            raise ConfigError(f"top_k = {k} must be below the {rois} ROIs of {path}")
        by_site.setdefault(ts.site_id, []).append(ts)
    datasets = []
    for site_id in sorted(by_site):
        group = by_site[site_id]
        widths = {ts.values.shape[1] for ts in group}
        if len(widths) > 1:
            raise IngestError(f"site {site_id}: inconsistent ROI counts {sorted(widths)}")
        labeled_flags = {ts.label is not None for ts in group}
        if len(labeled_flags) > 1:
            raise IngestError(f"site {site_id}: mixes labeled and unlabeled subjects")
        samples = []
        for ts in group:
            samples.extend(series_to_graphs(ts, window, stride, k))
        datasets.append(SiteDataset(site_id=site_id, samples=samples,
                                    labeled=labeled_flags.pop()))
    return datasets
