import math
from collections import Counter
from dataclasses import fields, replace

import pytest

from scanfield.config import KEYS, RunConfig, parse_config
from scanfield.encoding import EncodingConfig
from scanfield.mcl import MclConfig
from scanfield.scenes import ScannerConfig
from scanfield.targets import SupervisionMode
from scanfield.training import LossWeights, OptimConfig


def test_defaults_mirror_training_formulas():
    cfg = RunConfig()
    assert cfg.encoding_bands == 30
    assert cfg.encoding_base_freq == math.pi
    assert cfg.hidden_width == 128 and cfg.hidden_layers == 4
    assert cfg.samples_per_ray == 40
    assert cfg.trunc_band == 0.2 and cfg.weight_gamma == 3.0
    assert cfg.learn_rate == 1e-4 and cfg.weight_decay == 1e-2
    assert cfg.epochs == 10 and cfg.batch_rays == 512
    assert cfg.mode == "curvature"
    assert cfg.mcl_particles == 10_000 and cfg.mcl_conv_std == 0.30
    assert cfg.mcl_sigma_z == 0.1 and cfg.mcl_runs == 5


def test_parse_overrides_defaults():
    cfg = parse_config("epochs = 3\nmode = ray\n# comment\n\nbeams=12\n")
    assert cfg.epochs == 3
    assert cfg.supervision_mode() is SupervisionMode.RAY_DISTANCE
    assert cfg.beams == 12
    assert cfg.hidden_width == 128  # untouched default


def test_parse_rejects_unknown_keys_with_line_numbers():
    with pytest.raises(ValueError, match="line 2.*warp_speed"):
        parse_config("epochs = 3\nwarp_speed = 11\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("this is not an assignment\n")
    # a repeated key is an error, not an override; it names both lines
    with pytest.raises(ValueError, match="line 3: config key 'epochs' repeats line 1"):
        parse_config("epochs = 1\nseed = 2\nepochs = 3\n")
    # the command-line overrides still replace a file value
    assert parse_config("epochs = 1\nseed = 2\n", {"seed": 4}).seed == 4


def test_parse_rejects_bad_values():
    with pytest.raises(ValueError, match="epochs"):
        parse_config("epochs = three\n")
    with pytest.raises(ValueError, match="mode"):
        parse_config("mode = psychic\n")


def test_validation_bounds():
    with pytest.raises(ValueError, match="positive"):
        RunConfig(epochs=0)
    with pytest.raises(ValueError, match="nonnegative"):
        RunConfig(eikonal_weight=-0.1)
    with pytest.raises(ValueError, match="samples_per_ray"):
        RunConfig(samples_per_ray=1)
    with pytest.raises(ValueError, match="fov"):
        RunConfig(fov=7.0)


def test_overrides_dict():
    cfg = parse_config("epochs = 5\n", overrides={"seed": 9, "mode": "ray"})
    assert cfg.seed == 9 and cfg.epochs == 5 and cfg.mode == "ray"
    with pytest.raises(ValueError, match="unknown"):
        parse_config("", overrides={"nope": 1})


# Keys that cli reads itself (network init and the MCL grid) instead of
# passing them through an adapter.
CLI_KEYS = {"hidden_width", "hidden_layers", "first_layer_factor", "field_grid_res"}


def _adapters(cfg):
    return {
        "encoding": cfg.encoding(),
        "supervision_mode": cfg.supervision_mode(),
        "loss_weights": cfg.loss_weights(),
        "optim": cfg.optim(),
        "mcl": cfg.mcl(),
        "scanner": cfg.scanner(),
    }


def _other_valid_value(value):
    if isinstance(value, str):
        return "ray"
    if isinstance(value, int):
        return value + 1
    return value / 2.0 if value > 0.0 else 0.5


def test_adapters_carry_values():
    cfg = RunConfig(
        encoding_bands=7, encoding_base_freq=2.0,
        trunc_band=0.5, weight_gamma=2.0, smooth_neighbors=6,
        learn_rate=2e-4, epochs=4,
        mcl_particles=123, mcl_sigma_z=0.25, seed=3, scan_noise=0.05,
    )
    assert cfg.encoding() == EncodingConfig(7, 2.0)
    w = cfg.loss_weights()
    assert w.tau == 0.5 and w.gamma == 2.0 and w.knn == 6
    o = cfg.optim()
    assert o.lr == 2e-4 and o.epochs == 4 and o.seed == 3
    m = cfg.mcl()
    assert m.n_particles == 123 and m.sigma_z == 0.25
    assert cfg.scanner().noise_sigma == 0.05

    # One home per setting: the defaults are the module configs' own ...
    base = RunConfig()
    assert base.encoding() == EncodingConfig()
    assert base.loss_weights() == LossWeights()
    assert base.optim() == OptimConfig()
    assert base.mcl() == MclConfig()
    assert base.scanner() == ScannerConfig()
    # ... and every key reaches exactly one adapter, or none if cli reads it.
    before = _adapters(base)
    for f in fields(RunConfig):
        after = _adapters(replace(base, **{f.name: _other_valid_value(getattr(base, f.name))}))
        changed = [name for name in before if after[name] != before[name]]
        assert len(changed) == (0 if f.name in CLI_KEYS else 1), f"{f.name} reaches {changed}"


# The config format: every key with its type and default, in file order.
KEY_SURFACE = [
    ("encoding_bands", "int", 30),
    ("encoding_base_freq", "float", math.pi),
    ("hidden_width", "int", 128),
    ("hidden_layers", "int", 4),
    ("first_layer_factor", "float", 30.0),
    ("samples_per_ray", "int", 40),
    ("mode", "str", "curvature"),
    ("trunc_band", "float", 0.2),
    ("weight_gamma", "float", 3.0),
    ("endpoint_weight", "float", 0.1),
    ("eikonal_weight", "float", 1e-4),
    ("smoothness_weight", "float", 0.001),
    ("smooth_neighbors", "int", 4),
    ("learn_rate", "float", 1e-4),
    ("weight_decay", "float", 0.01),
    ("epochs", "int", 10),
    ("batch_rays", "int", 512),
    ("seed", "int", 0),
    ("beams", "int", 64),
    ("fov", "float", 2.0 * math.pi),
    ("max_range", "float", 100.0),
    ("scan_noise", "float", 0.0),
    ("field_grid_res", "int", 256),
    ("mcl_particles", "int", 10_000),
    ("mcl_conv_std", "float", 0.3),
    ("mcl_sigma_z", "float", 0.1),
    ("mcl_runs", "int", 5),
    ("mcl_odom_trans_base", "float", 0.01),
    ("mcl_odom_trans_frac", "float", 0.01),
    ("mcl_odom_rot_base", "float", 0.002),
    ("mcl_odom_rot_frac", "float", 0.01),
]


def test_key_surface_is_pinned():
    assert list(KEYS) == [name for name, _, _ in KEY_SURFACE]
    assert [(f.name, f.type, f.default) for f in fields(RunConfig)] == KEY_SURFACE


def test_every_owner_field_has_exactly_one_key():
    owned = Counter(row for row in KEYS.values() if not isinstance(row[0], str))
    owners = (EncodingConfig, LossWeights, OptimConfig, MclConfig, ScannerConfig)
    expected = Counter((owner, f.name) for owner in owners for f in fields(owner))
    assert owned == expected


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if f.type == "float"])
def test_float_keys_reject_non_finite_values(key):
    for raw in ("nan", "inf", "-inf"):
        if (key, raw) == ("trunc_band", "inf"):  # documented as "no clamp"
            assert parse_config(f"{key} = {raw}\n").loss_weights().tau == math.inf
            continue
        with pytest.raises(ValueError):
            parse_config(f"{key} = {raw}\n")
