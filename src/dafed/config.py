"""Flat key=value run configuration: parsing, validation, defaults, digest.

The file format is one `key = value` pair per line, `#` comments, UTF-8.
Unknown keys are rejected so typos fail loudly. The digest is a SHA-256 over
the canonicalized effective pairs (sorted, normalized spacing) and is stored
in checkpoints.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import SynthConfig, SynthSite, read_utf8
from .fedsim import TrainSettings
from .fusion import LABELED_ROLES, ROLE_SOURCE, ROLE_TARGET_LABELED, ROLES
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


def _finite(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return value


SITE_KEYS = ("id", "role", "shift", "subjects", "t_points")


@dataclass
class SiteSpec:
    site_id: str
    role: str
    shift: float = 0.0
    subjects: int | None = None
    t_points: int | None = None


@dataclass
class RunConfig:
    """Every config key is a field with its default; `site_specs` (the
    site.N.* entries) and `base_dir` (the config file's directory) are not
    keys."""
    seed: int = 0
    rounds: int = 50
    mode: str = "dafed_u"
    data: str = "synth"
    manifest: str = ""
    window: int = 20
    stride: int = 1
    top_k: int = 10
    rois: int = 32
    t_points: int = 48
    subjects: int = 40
    class_sep: float = 0.6
    class_balance: float = 0.5
    signal_frac: float = 0.2
    ar_coeff: float = 0.5
    sites: int = 0
    lambda_mi: float = 1.0
    lambda_cl: float = 0.1
    gamma: float = 10.0
    tau: float = 0.5
    queue: int = 5
    alpha: float = 0.01
    lr_profile: str = "warmup_decay"
    lr_base: float = 1e-4
    lr_decay: float = 0.99
    lr_warmup: int | None = None
    batch_denom: int = 16
    use_stfg: bool = True
    use_rd: bool = True
    use_dat: bool = True
    use_cl: bool = True
    reversal: bool = True
    broadcast_grads: bool = True
    folds: int = 5
    subject_vote: bool = False
    explain_layer: int = 4
    explain_class: int = 1
    explain_windows: int = 4
    site_specs: list[SiteSpec] = field(default_factory=list)
    base_dir: Path = field(default_factory=Path)

    def digest(self) -> bytes:
        lines = [f"{k}={getattr(self, k)!r}" for k in sorted(KEYS)]
        for i, s in enumerate(self.site_specs):
            lines.append(f"site.{i}={s.site_id}|{s.role}|{s.shift!r}|{s.subjects!r}|{s.t_points!r}")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()

    def roles(self) -> dict[str, str]:
        return {s.site_id: s.role for s in self.site_specs}

    def settings(self) -> TrainSettings:
        return TrainSettings(
            seed=self.seed, rounds=self.rounds, lambda_mi=self.lambda_mi,
            lambda_cl=self.lambda_cl, gamma=self.gamma, tau=self.tau,
            queue_len=self.queue, alpha=self.alpha,
            lr=LrProfile(self.lr_profile, self.lr_base, self.lr_decay, self.lr_warmup),
            batch_denom=self.batch_denom, use_rd=self.use_rd,
            use_dat=self.use_dat, use_cl=self.use_cl, reversal=self.reversal,
            broadcast_grads=self.broadcast_grads)

    def synth_config(self) -> SynthConfig:
        sites = [SynthSite(site_id=s.site_id,
                           subjects=self.subjects if s.subjects is None else s.subjects,
                           labeled=s.role in LABELED_ROLES,
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


# key -> declared type (a type object: this module does not postpone
# annotations); site.* keys are parsed separately
KEYS = {f.name: f.type for f in fields(RunConfig) if f.name not in ("site_specs", "base_dir")}
CHOICES = {"mode": ("dafed_u", "dafed_l"), "data": ("synth", "manifest"),
           "lr_profile": ("warmup_decay", "decay")}


def _convert(key: str, raw: str):
    kind = KEYS[key]
    if kind is bool:
        return _parse_bool(raw, key)
    if key in CHOICES and raw not in CHOICES[key]:
        raise ConfigError(f"key {key!r}: expected one of {list(CHOICES[key])}, got {raw!r}")
    if kind == int | None:
        if not raw:
            return None
        kind = int
    return _parse(key, raw, kind)


def _parse(key: str, raw: str, kind: type):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse value {raw!r} as {kind.__name__}") from None
    return _finite(key, value) if kind is float else value


def _read_pairs(path: Path) -> dict[str, str]:
    pairs = {}
    try:
        text = read_utf8(path, ConfigError)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = (part.strip() for part in body.partition("="))
        if not (sep and key):
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = raw
    return pairs


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load, validate, and default a run configuration.

    `overrides` (the command-line flags, keyed by the config key each one
    names) replace file values before validation and therefore change the
    digest.
    """
    path = Path(path)
    pairs = _read_pairs(path)
    if overrides:
        for key, val in overrides.items():
            pairs[key] = str(val)

    values = {}
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

    n_sites = values.get("sites") or (max(site_raw) + 1 if site_raw else 0)
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
        if raw.get("id") == "":
            raise ConfigError(f"site.{i}.id must not be empty")
        numbers = {name: _parse(f"site.{i}.{name}", raw[name], kind)
                   for name, kind in (("shift", float), ("subjects", int), ("t_points", int))
                   if name in raw}
        specs.append(SiteSpec(site_id=raw.get("id", f"site{i}"), role=role, **numbers))

    cfg = RunConfig(**values, site_specs=specs, base_dir=path.parent)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    if cfg.rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if not cfg.site_specs:
        raise ConfigError("at least one site.N.role entry is required")
    roles = [s.role for s in cfg.site_specs]
    if roles.count(ROLE_SOURCE) != 1:
        raise ConfigError(f"exactly one site.N.role must be source, "
                          f"found {roles.count(ROLE_SOURCE)}")
    ids = [s.site_id for s in cfg.site_specs]
    for i, site_id in enumerate(ids):
        if site_id in ids[:i]:
            raise ConfigError(f"site.{i}.id repeats site.{ids.index(site_id)}.id = {site_id}")
    if cfg.mode == "dafed_u" and ROLE_TARGET_LABELED in roles:
        raise ConfigError("target_labeled roles need mode = dafed_l")
    if cfg.data == "manifest":
        if not cfg.manifest:
            raise ConfigError("data = manifest requires a manifest path")
        if not cfg.manifest_path().exists():
            raise ConfigError(f"manifest not found: {cfg.manifest_path()}")
    if cfg.batch_denom < 1:
        raise ConfigError(f"batch_denom must be >= 1, got {cfg.batch_denom}")
    if cfg.window < 2:
        raise ConfigError(f"window must be >= 2, got {cfg.window}")
    if cfg.stride < 1:
        raise ConfigError(f"stride must be >= 1, got {cfg.stride}")
    if cfg.top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {cfg.top_k}")
    if cfg.data == "synth":
        if cfg.top_k >= cfg.rois:
            raise ConfigError(f"top_k = {cfg.top_k} must be below rois = {cfg.rois}")
        for i, s in enumerate(cfg.site_specs):
            key, length = ((f"site.{i}.t_points", s.t_points) if s.t_points is not None
                           else ("t_points", cfg.t_points))
            if cfg.window > length:
                raise ConfigError(f"window = {cfg.window} is longer than {key} = {length}")
            key, count = ((f"site.{i}.subjects", s.subjects) if s.subjects is not None
                          else ("subjects", cfg.subjects))
            if count < 1:
                raise ConfigError(f"{key} must be >= 1, got {count}")
            if s.shift < 0:
                raise ConfigError(f"site.{i}.shift must be >= 0, got {s.shift}")
    if cfg.lr_base <= 0:
        raise ConfigError(f"lr_base must be positive, got {cfg.lr_base}")
    if not 0 < cfg.lr_decay <= 1:
        raise ConfigError(f"lr_decay must be in (0, 1], got {cfg.lr_decay}")
    if cfg.tau <= 0:
        raise ConfigError("tau must be positive")
    for key in ("lambda_mi", "lambda_cl", "gamma", "alpha", "queue", "lr_warmup"):
        value = getattr(cfg, key)
        if value is not None and value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
    if not 1 <= cfg.explain_layer <= 4:
        raise ConfigError("explain_layer must be in 1..4")
    if cfg.explain_class not in (0, 1):
        raise ConfigError("explain_class must be 0 or 1")
    if cfg.explain_windows < 1:
        raise ConfigError(f"explain_windows must be >= 1, got {cfg.explain_windows}")
    if cfg.folds < 2:
        raise ConfigError("folds must be >= 2")
    if cfg.data == "synth":
        # the generator's own ranges, after the checks above that name the key
        try:
            cfg.synth_config().validate()
        except ValueError as err:
            raise ConfigError(str(err)) from None
