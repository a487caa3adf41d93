"""Flat key=value run configuration: parsing, validation, defaults, digest.

The file format is one `key = value` pair per line, `#` comments, UTF-8.
Unknown keys are rejected so typos fail loudly. The digest is a SHA-256 over
the canonicalized effective pairs (sorted, normalized spacing) and is stored
in checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthConfig, SynthSite
from .fedsim import TrainSettings
from .optim import LrProfile


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2 at the command line."""


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


# key -> (type tag, default); site.* keys are validated separately
KEYS = {
    "seed": ("int", 0),
    "rounds": ("int", 50),
    "mode": ("choice:dafed_u,dafed_l", "dafed_u"),
    "data": ("choice:synth,manifest", "synth"),
    "manifest": ("str", ""),
    "window": ("int", 20),
    "stride": ("int", 1),
    "top_k": ("int", 10),
    "rois": ("int", 32),
    "t_points": ("int", 48),
    "subjects": ("int", 40),
    "class_sep": ("float", 0.6),
    "class_balance": ("float", 0.5),
    "signal_frac": ("float", 0.2),
    "ar_coeff": ("float", 0.5),
    "sites": ("int", 0),
    "lambda_mi": ("float", 1.0),
    "lambda_cl": ("float", 0.1),
    "gamma": ("float", 10.0),
    "tau": ("float", 0.5),
    "queue": ("int", 5),
    "alpha": ("float", 0.01),
    "lr_profile": ("choice:warmup_decay,decay", "warmup_decay"),
    "lr_base": ("float", 1e-4),
    "lr_decay": ("float", 0.99),
    "lr_warmup": ("optint", None),
    "batch_denom": ("int", 16),
    "use_stfg": ("bool", True),
    "use_rd": ("bool", True),
    "use_dat": ("bool", True),
    "use_cl": ("bool", True),
    "reversal": ("bool", True),
    "broadcast_grads": ("bool", True),
    "folds": ("int", 5),
    "subject_vote": ("bool", False),
    "explain_layer": ("int", 4),
    "explain_class": ("int", 1),
    "explain_windows": ("int", 4),
}

SITE_KEYS = ("id", "role", "shift", "subjects", "t_points")
ROLES = ("source", "target_unlabeled", "target_labeled")


def _convert(key: str, raw: str):
    kind, _ = KEYS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "optint":
            return int(raw) if raw else None
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _parse_bool(raw, key)
        if kind.startswith("choice:"):
            allowed = kind.split(":", 1)[1].split(",")
            if raw not in allowed:
                raise ConfigError(f"key {key!r}: expected one of {allowed}, got {raw!r}")
            return raw
        return raw
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse value {raw!r} as {kind}") from None


@dataclass
class SiteSpec:
    site_id: str
    role: str
    shift: float = 0.0
    subjects: int | None = None
    t_points: int | None = None


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)
    site_specs: list[SiteSpec] = field(default_factory=list)
    base_dir: Path = field(default_factory=Path)

    def __getattr__(self, key):
        values = object.__getattribute__(self, "values")
        if key in values:
            return values[key]
        raise AttributeError(key)

    def digest(self) -> bytes:
        lines = [f"{k}={self.values[k]!r}" for k in sorted(self.values)]
        for i, s in enumerate(self.site_specs):
            lines.append(f"site.{i}={s.site_id}|{s.role}|{s.shift!r}|{s.subjects!r}|{s.t_points!r}")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()

    def roles(self) -> dict[str, str]:
        return {s.site_id: s.role for s in self.site_specs}

    def lr(self) -> LrProfile:
        return LrProfile(self.lr_profile, self.lr_base, self.lr_decay, self.lr_warmup)

    def settings(self) -> TrainSettings:
        return TrainSettings(
            seed=self.seed, rounds=self.rounds, lambda_mi=self.lambda_mi,
            lambda_cl=self.lambda_cl, gamma=self.gamma, tau=self.tau,
            queue_len=self.queue, alpha=self.alpha, lr=self.lr(),
            batch_denom=self.batch_denom, use_stfg=self.use_stfg,
            use_rd=self.use_rd, use_dat=self.use_dat, use_cl=self.use_cl,
            reversal=self.reversal, broadcast_grads=self.broadcast_grads,
            mode=self.mode)

    def synth_config(self) -> SynthConfig:
        sites = [SynthSite(site_id=s.site_id,
                           subjects=s.subjects or self.subjects,
                           labeled=(s.role in ("source", "target_labeled")),
                           shift=s.shift, t=s.t_points)
                 for s in self.site_specs]
        return SynthConfig(sites=sites, n_rois=self.rois, t=self.t_points,
                           class_sep=self.class_sep, class_balance=self.class_balance,
                           signal_frac=self.signal_frac, ar_coeff=self.ar_coeff,
                           window=self.window, stride=self.stride, top_k=self.top_k)

    def manifest_path(self) -> Path:
        path = Path(self.manifest)
        if not path.is_absolute():
            path = self.base_dir / path
        return path


def _read_pairs(path: Path) -> dict[str, str]:
    pairs = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = raw
    return pairs


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load, validate, and default a run configuration.

    `overrides` (e.g. a --seed flag) replace file values before validation
    and therefore change the digest.
    """
    path = Path(path)
    pairs = _read_pairs(path)
    if overrides:
        for key, val in overrides.items():
            pairs[key] = str(val)

    values = {key: default for key, (_, default) in KEYS.items()}
    site_raw: dict[int, dict[str, str]] = {}
    for key, raw in pairs.items():
        if key.startswith("site."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in SITE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                idx = int(parts[1])
            except ValueError:
                raise ConfigError(f"unknown config key {key!r}") from None
            site_raw.setdefault(idx, {})[parts[2]] = raw
        elif key in KEYS:
            values[key] = _convert(key, raw)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    n_sites = values["sites"] or (max(site_raw) + 1 if site_raw else 0)
    if set(site_raw) - set(range(n_sites)):
        raise ConfigError(f"site indices {sorted(site_raw)} must be 0..{n_sites - 1}")
    specs = []
    for i in range(n_sites):
        raw = site_raw.get(i, {})
        role = raw.get("role")
        if role is None:
            raise ConfigError(f"site.{i}.role is required")
        if role not in ROLES:
            raise ConfigError(f"site.{i}.role: expected one of {ROLES}, got {role!r}")
        try:
            spec = SiteSpec(
                site_id=raw.get("id", f"site{i}"), role=role,
                shift=float(raw.get("shift", 0.0)),
                subjects=int(raw["subjects"]) if "subjects" in raw else None,
                t_points=int(raw["t_points"]) if "t_points" in raw else None)
        except ValueError as err:
            raise ConfigError(f"site.{i}: {err}") from None
        specs.append(spec)

    cfg = RunConfig(values=values, site_specs=specs, base_dir=path.parent)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if not cfg.site_specs:
        raise ConfigError("at least one site.N.role entry is required")
    roles = [s.role for s in cfg.site_specs]
    if roles.count("source") != 1:
        raise ConfigError(f"exactly one source site required, found {roles.count('source')}")
    ids = [s.site_id for s in cfg.site_specs]
    if len(set(ids)) != len(ids):
        raise ConfigError("site ids must be unique")
    if cfg.mode == "dafed_u" and "target_labeled" in roles:
        raise ConfigError("target_labeled roles need mode = dafed_l")
    if cfg.data == "manifest":
        if not cfg.manifest:
            raise ConfigError("data = manifest requires a manifest path")
        if not cfg.manifest_path().exists():
            raise ConfigError(f"manifest not found: {cfg.manifest_path()}")
    if cfg.batch_denom < 1:
        raise ConfigError(f"batch_denom must be >= 1, got {cfg.batch_denom}")
    if cfg.top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {cfg.top_k}")
    if cfg.data == "synth":
        if cfg.top_k >= cfg.rois:
            raise ConfigError(f"top_k = {cfg.top_k} must be below rois = {cfg.rois}")
        for i, s in enumerate(cfg.site_specs):
            key, length = ((f"site.{i}.t_points", s.t_points) if s.t_points
                           else ("t_points", cfg.t_points))
            if cfg.window > length:
                raise ConfigError(f"window = {cfg.window} is longer than {key} = {length}")
    if cfg.lr_base <= 0:
        raise ConfigError(f"lr_base must be positive, got {cfg.lr_base}")
    if cfg.tau <= 0:
        raise ConfigError("tau must be positive")
    if cfg.alpha < 0:
        raise ConfigError("alpha must be >= 0")
    if cfg.queue < 0:
        raise ConfigError("queue must be >= 0")
    if not 1 <= cfg.explain_layer <= 4:
        raise ConfigError("explain_layer must be in 1..4")
    if cfg.explain_class not in (0, 1):
        raise ConfigError("explain_class must be 0 or 1")
    if cfg.folds < 2:
        raise ConfigError("folds must be >= 2")
