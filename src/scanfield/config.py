"""Plain-text key=value run configuration.

One flat namespace covers every tunable the pipeline exposes; unknown keys
are rejected so typos fail loudly instead of silently running defaults.
Lines are `key = value`, blank, or `#` comments.

``KEYS`` is the one list of keys, in file order, with a unit or frame for
each.  A key that a module config (``LossWeights``, ``OptimConfig``,
``MclConfig``, ``ScannerConfig``) owns maps to ``(owner, field name)`` and
takes its type, default and range check from that field; the adapters build
each owner from its keys, and ``RunConfig`` builds each once on construction
so their checks run.  A key that cli reads itself (mode, encoding, network and
the MCL grid resolution) maps to ``(type, default)`` and is range-checked here.
Every key's type is checked too: int keys take ints, float keys finite ints or
floats (``trunc_band`` also ``inf``: no clamp) and ``mode`` a string, whether
they come from text or from overrides.
"""

from __future__ import annotations

import math
from dataclasses import fields, make_dataclass

from .encoding import DEFAULT_BANDS, DEFAULT_BASE_FREQ
from .field import DEFAULT_FIRST_FACTOR, DEFAULT_HIDDEN, DEFAULT_LAYERS
from .mcl import MclConfig
from .scenes import ScannerConfig
from .targets import SupervisionMode
from .training import LossWeights, OptimConfig

_MODES = {m.value for m in SupervisionMode}
# Python types each declared key type accepts (bool is rejected everywhere).
_ACCEPTS = {"int": (int,), "float": (int, float), "str": (str,)}
_OWNERS = (LossWeights, OptimConfig, MclConfig, ScannerConfig)

# key -> (owning config, field name), or (type, default) for a key cli reads
KEYS = {
    # positional encoding: band count; base frequency in rad per canonical unit
    "encoding_bands": ("int", DEFAULT_BANDS),
    "encoding_base_freq": ("float", DEFAULT_BASE_FREQ),
    # network: hidden width and depth (counts); first-layer sine factor (unitless)
    "hidden_width": ("int", DEFAULT_HIDDEN),
    "hidden_layers": ("int", DEFAULT_LAYERS),
    "first_layer_factor": ("float", DEFAULT_FIRST_FACTOR),
    # ray sampling: samples per ray
    "samples_per_ray": (OptimConfig, "samples_per_ray"),
    # supervision: target mode; trunc_band is the target clamp tau in canonical
    # units, read only by training; weight_gamma is unitless
    "mode": ("str", "curvature"),
    "trunc_band": (LossWeights, "tau"),
    "weight_gamma": (LossWeights, "gamma"),
    # loss: unitless term weights; neighbours per sample for smoothness
    "endpoint_weight": (LossWeights, "endpoint"),
    "eikonal_weight": (LossWeights, "eikonal"),
    "smoothness_weight": (LossWeights, "smooth"),
    "smooth_neighbors": (LossWeights, "knn"),
    # optimizer: learning rate and weight decay unitless; epochs are passes
    # over all rays; batch_rays is rays per step; the seed also drives network
    # init, scan noise and particle draws
    "learn_rate": (OptimConfig, "lr"),
    "weight_decay": (OptimConfig, "weight_decay"),
    "epochs": (OptimConfig, "epochs"),
    "batch_rays": (OptimConfig, "batch_rays"),
    "seed": (OptimConfig, "seed"),
    # scanner synthesis: beams a count; fov in radians; max_range and
    # scan_noise in world metres
    "beams": (ScannerConfig, "beams"),
    "fov": (ScannerConfig, "fov"),
    "max_range": (ScannerConfig, "max_range"),
    "scan_noise": (ScannerConfig, "noise_sigma"),
    # resolution: cells per axis of the 2D localization field grid (world
    # map box)
    "field_grid_res": ("int", 256),
    # localization: particles and runs are counts; conv_std, sigma_z and the
    # translation odometry noise in world metres; the rotation noise in radians
    "mcl_particles": (MclConfig, "n_particles"),
    "mcl_conv_std": (MclConfig, "conv_std"),
    "mcl_sigma_z": (MclConfig, "sigma_z"),
    "mcl_runs": (MclConfig, "runs"),
    "mcl_odom_trans_base": (MclConfig, "odom_trans_base"),
    "mcl_odom_trans_frac": (MclConfig, "odom_trans_frac"),
    "mcl_odom_rot_base": (MclConfig, "odom_rot_base"),
    "mcl_odom_rot_frac": (MclConfig, "odom_rot_frac"),
}


class _RunConfigBase:
    """Checks and adapters of ``RunConfig``, whose fields ``KEYS`` sets."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {sorted(_MODES)}, got {self.mode!r}")
        for name in ("encoding_bands", "encoding_base_freq", "hidden_width",
                     "hidden_layers", "first_layer_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.field_grid_res < 2:
            raise ValueError("field_grid_res must be at least 2")
        for owner in _OWNERS:
            self._build(owner)
        # Last, so that values rejected above keep their message.
        for f in fields(self):
            value = getattr(self, f.name)
            if (f.type == "float" and not math.isfinite(value)
                    and (f.name, value) != ("trunc_band", math.inf)):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    def supervision_mode(self) -> SupervisionMode:
        return SupervisionMode(self.mode)

    def _build(self, owner):
        return owner(**{name: getattr(self, key) for key, (row_owner, name) in KEYS.items()
                        if row_owner is owner})

    def loss_weights(self) -> LossWeights:
        return self._build(LossWeights)

    def optim(self) -> OptimConfig:
        return self._build(OptimConfig)

    def mcl(self) -> MclConfig:
        return self._build(MclConfig)

    def scanner(self) -> ScannerConfig:
        return self._build(ScannerConfig)


# (type, default) of every owned field, by (owner, field name) as KEYS names it
_OWNED = {(owner, f.name): (f.type, f.default) for owner in _OWNERS for f in fields(owner)}
RunConfig = make_dataclass(
    "RunConfig", [(key, *_OWNED.get(row, row)) for key, row in KEYS.items()],
    bases=(_RunConfigBase,), frozen=True, namespace={"__module__": __name__},
)
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    values = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {ln}: expected key=value, got {line!r}")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = val
    return RunConfig(**values)
