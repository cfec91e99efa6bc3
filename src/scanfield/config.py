"""Plain-text key=value run configuration.

One flat namespace covers every tunable the pipeline exposes; unknown keys
are rejected so typos fail loudly instead of silently running defaults.
Lines are `key = value`, blank, or `#` comments.

A key's default and range check live in the module config that uses it
(``LossWeights``, ``OptimConfig``, ``MclConfig``, ``ScannerConfig``).  The
adapters below build those configs, and ``RunConfig`` builds each of them
once on construction so their checks run.  Only the keys no module config
owns (mode, encoding, network and the grid resolutions) are checked here,
together with every key's type: int keys take ints, float keys ints or floats
and ``mode`` a string, whether they come from text or from overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .encoding import DEFAULT_BANDS, DEFAULT_BASE_FREQ
from .field import DEFAULT_FIRST_FACTOR, DEFAULT_HIDDEN, DEFAULT_LAYERS
from .mcl import MclConfig
from .scenes import ScannerConfig
from .targets import SupervisionMode
from .training import LossWeights, OptimConfig

_MODES = {m.value for m in SupervisionMode}
# Python types each declared key type accepts (bool is rejected everywhere).
_ACCEPTS = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    # positional encoding: band count; base frequency in rad per canonical unit
    encoding_bands: int = DEFAULT_BANDS
    encoding_base_freq: float = DEFAULT_BASE_FREQ
    # network: hidden width and depth; first-layer sine factor (unitless)
    hidden_width: int = DEFAULT_HIDDEN
    hidden_layers: int = DEFAULT_LAYERS
    first_layer_factor: float = DEFAULT_FIRST_FACTOR
    # ray sampling: samples per ray
    samples_per_ray: int = OptimConfig.samples_per_ray
    # supervision: target mode; trunc_band is the target clamp tau in canonical
    # units, read only by training; weight_gamma is unitless
    mode: str = "curvature"
    trunc_band: float = LossWeights.tau
    weight_gamma: float = LossWeights.gamma
    # loss: unitless term weights; neighbours per sample for smoothness
    endpoint_weight: float = LossWeights.endpoint
    eikonal_weight: float = LossWeights.eikonal
    smoothness_weight: float = LossWeights.smooth
    smooth_neighbors: int = LossWeights.knn
    # optimizer: the seed also drives network init, scan noise and particle draws
    learn_rate: float = OptimConfig.lr
    weight_decay: float = OptimConfig.weight_decay
    epochs: int = OptimConfig.epochs
    batch_rays: int = OptimConfig.batch_rays
    seed: int = OptimConfig.seed
    # scanner synthesis: fov in radians; max_range and scan_noise in world metres
    beams: int = ScannerConfig.beams
    fov: float = ScannerConfig.fov
    max_range: float = ScannerConfig.max_range
    scan_noise: float = ScannerConfig.noise_sigma
    # resolutions: cells per axis of the mesh grid (canonical cube) and of the
    # 2D localization field grid (world map box)
    mesh_res: int = 256
    field_grid_res: int = 256
    # localization: conv_std, the translation gate, sigma_z and the translation
    # odometry noise in world metres; the rotation gate and noise in radians
    mcl_particles: int = MclConfig.n_particles
    mcl_conv_std: float = MclConfig.conv_std
    mcl_gate_trans: float = MclConfig.gate_trans
    mcl_gate_rot: float = MclConfig.gate_rot
    mcl_sigma_z: float = MclConfig.sigma_z
    mcl_runs: int = MclConfig.runs
    mcl_odom_trans_base: float = MclConfig.odom_trans_base
    mcl_odom_trans_frac: float = MclConfig.odom_trans_frac
    mcl_odom_rot_base: float = MclConfig.odom_rot_base
    mcl_odom_rot_frac: float = MclConfig.odom_rot_frac

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
        if self.mesh_res < 2 or self.field_grid_res < 2:
            raise ValueError("grid resolutions must be at least 2")
        for adapter in (self.loss_weights, self.optim, self.mcl, self.scanner):
            adapter()

    # --- adapters into the per-module config types -------------------------

    def supervision_mode(self) -> SupervisionMode:
        return SupervisionMode(self.mode)

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            endpoint=self.endpoint_weight,
            eikonal=self.eikonal_weight,
            smooth=self.smoothness_weight,
            gamma=self.weight_gamma,
            tau=self.trunc_band,
            knn=self.smooth_neighbors,
        )

    def optim(self) -> OptimConfig:
        return OptimConfig(
            lr=self.learn_rate,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            batch_rays=self.batch_rays,
            seed=self.seed,
            samples_per_ray=self.samples_per_ray,
        )

    def mcl(self) -> MclConfig:
        return MclConfig(
            n_particles=self.mcl_particles,
            conv_std=self.mcl_conv_std,
            gate_trans=self.mcl_gate_trans,
            gate_rot=self.mcl_gate_rot,
            sigma_z=self.mcl_sigma_z,
            odom_trans_base=self.mcl_odom_trans_base,
            odom_trans_frac=self.mcl_odom_trans_frac,
            odom_rot_base=self.mcl_odom_rot_base,
            odom_rot_frac=self.mcl_odom_rot_frac,
            runs=self.mcl_runs,
        )

    def scanner(self) -> ScannerConfig:
        return ScannerConfig(
            beams=self.beams,
            fov=self.fov,
            max_range=self.max_range,
            noise_sigma=self.scan_noise,
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


def load_config(path, overrides: dict | None = None) -> RunConfig:
    return parse_config(Path(path).read_text(), overrides)

