"""End-to-end command tests at toy scale.

These drive the real pipelines (synthesize, train, mesh, evaluate, localize,
compare) through main() with configs small enough for CI; full-scale runs
live in the acceptance suite.
"""

import ctypes
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from scanfield import __main__ as launcher
from scanfield import cli, field, mcl, meshing, scenes
from scanfield.__main__ import THREAD_VARS
from scanfield.cli import main, trajectory_poses
from scanfield.storage import load_model, load_scan_points, load_scans, read_mesh_ply
from scanfield.targets import SupervisionMode

TINY_CFG = """
encoding_bands = 4
hidden_width = 16
hidden_layers = 2
samples_per_ray = 6
epochs = 2
batch_rays = 128
beams = 12
field_grid_res = 24
mcl_particles = 300
mcl_runs = 2
"""


def with_keys(text, extra):
    """The config ``text`` with the ``key = value`` lines of ``extra`` set:
    a key it already holds is replaced in place, a new one appended."""
    pairs = (line.split("=", 1) for line in (text + extra).splitlines() if line.strip())
    keys = {key.strip(): val.strip() for key, val in pairs}
    return "".join(f"{key} = {val}\n" for key, val in keys.items())


# enough steps at a hot learning rate that the data term visibly drops
TRAIN_CFG = with_keys(TINY_CFG, """
learn_rate = 3e-3
epochs = 25
batch_rays = 32
""")

CIRCLE_SCENE = "circle 0 0 1\n"
SPHERE_SCENE = "sphere 0 0 0 1\n"
ROOM_SCENE = """
plane 1 0 -4
plane -1 0 -4
plane 0 1 -4
plane 0 -1 -4
plane 1 1 -5.2
box 1.5 1.5 0.6 0.6
circle -1.5 -1 0.8
"""
ROOM3D_SCENE = """
plane 0 0 1 -1
plane 0 0 -1 -2
sphere 0 0 0 1
box 1.5 1.5 0 0.5 0.5 0.5
"""


@pytest.fixture
def tiny(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    scene2 = tmp_path / "circle.txt"
    scene2.write_text(CIRCLE_SCENE)
    return tmp_path, cfg, scene2


def run(*argv):
    return main([str(a) for a in argv])


def test_trajectory_specs():
    orbit = trajectory_poses("orbit:radius=2,steps=4")
    assert orbit.shape == (4, 3)
    x, y, th = orbit[0]
    assert (x, y) == (2.0, 0.0)
    assert abs(abs(th) - np.pi) < 1e-12  # facing the center
    line = trajectory_poses("line:x0=0,y0=0,x1=3,y1=4,steps=5")
    assert line.shape == (5, 3)
    assert tuple(line[0, :2]) == (0.0, 0.0)
    assert tuple(line[-1, :2]) == (3.0, 4.0)
    np.testing.assert_allclose(line[:, 2], np.arctan2(4.0, 3.0))
    with pytest.raises(ValueError, match="unknown trajectory generator"):
        trajectory_poses("spiral")
    with pytest.raises(ValueError, match="unknown orbit keys"):
        trajectory_poses("orbit:radius=2,steps=4,bogus=1")
    with pytest.raises(ValueError):
        trajectory_poses("line:x0=0")
    for spec, message in [
        ("orbit:radius=3,steps=inf", "'steps' must be finite"),
        ("orbit:radius=nan,steps=4", "'radius' must be finite"),
        ("orbit:radius=3,steps=2.7", "'steps' must be a whole number"),
        ("line:x0=0,y0=0,x1=nan,y1=4,steps=5", "'x1' must be finite"),
        ("line:x0=0,y0=0,x1=3,y1=4,steps=5.5", "'steps' must be a whole number"),
        ("orbit:radius=3,radius=2,steps=4", "'radius' is given twice"),
    ]:
        with pytest.raises(ValueError, match=message):
            trajectory_poses(spec)


@pytest.mark.parametrize("spec, message", [
    ("orbit:steps=4", "orbit spec is missing 'radius'"),
    ("line:x0=0,y0=0,x1=3,steps=5", "line spec is missing 'y1'"),
    ("orbit:radius=2,steps=4,x0=1", r"unknown orbit keys \['x0'\]"),
    ("line:x0=0,y0=0,x1=3,y1=4,steps=5,start=1", r"unknown line keys \['start'\]"),
])
def test_trajectory_key_errors_name_generator_and_key(spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        trajectory_poses(spec)


def test_trajectory_spec_keys_are_generator_parameters():
    assert np.array_equal(trajectory_poses("orbit:radius=2,steps=5,start=0.5,cy=1"),
                          cli.orbit(2.0, 5, cy=1.0, start=0.5))
    assert np.array_equal(trajectory_poses("line:steps=3,y1=4,x1=3,y0=0,x0=0"),
                          cli.line(0.0, 0.0, 3.0, 4.0, 3))


@pytest.mark.parametrize("text", [ROOM_SCENE, ROOM3D_SCENE], ids=["2d", "3d"])
def test_auto_orbit_circles_the_scene_in_free_space(text):
    scene = scenes.parse_scene_text(text)
    traj = cli._auto_orbit(scene, 12)
    assert traj.shape == (12, 3)
    center = scenes.scene_bounds(scene).center[:2]
    radius = np.linalg.norm(traj[:, :2] - center, axis=1)
    np.testing.assert_allclose(radius, radius[0], rtol=1e-12)
    to_center = np.arctan2(*(center - traj[:, :2]).T[::-1])
    np.testing.assert_allclose(mcl.wrap_angle(traj[:, 2] - to_center), 0.0, atol=1e-12)
    ring = np.zeros((12, scene.dim))  # at z = 0 in 3D, as the poses are
    ring[:, :2] = traj[:, :2]
    assert np.all(scene.sdf(ring) > 0.0)


@pytest.mark.parametrize("text, message", [
    ("circle 0 0 -1\n", "line 1: radius must be positive"),
    ("box 0 0 0 1\n", "line 1: box half-extents must be positive"),
    ("plane 0 0 5\n", "line 1: plane normal must be nonzero"),
    ("sphere 0 0 0 1\ncircle 3 0 1\n", "line 2: 'circle 3 0 1' is 2D but line 1 is 3D"),
])
def test_synth_names_the_bad_scene_line(tiny, capsys, text, message):
    tmp, cfg, _ = tiny
    scene = tmp / "bad.txt"
    scene.write_text(text)
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3,steps=4",
               "--out", tmp / "data", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_synth_rejects_infinite_steps(tiny, capsys):
    tmp, cfg, scene2 = tiny
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=inf",
               "--out", tmp / "data", "--config", cfg) == 2
    assert "'steps' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "compare"])
def test_one_cast_per_dataset(tiny, monkeypatch, command):
    # every beam of every pose of the trajectory is cast in one call
    tmp, cfg, scene2 = tiny
    calls = []
    real = scenes.AnalyticScene.hit

    def counting(scene, origins, directions):
        calls.append(origins.shape[0])
        return real(scene, origins, directions)

    monkeypatch.setattr(scenes.AnalyticScene, "hit", counting)
    args = {"synth": ["--out", tmp / "data"], "compare": ["--samples", "300"]}[command]
    assert run(command, "--scene", scene2, "--traj", "orbit:radius=3,steps=5",
               "--config", cfg, *args) == 0
    assert calls == [5 * 12]  # poses x beams


def test_synth_writes_dataset(tiny):
    tmp, cfg, scene2 = tiny
    out = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=5",
               "--out", out, "--config", cfg) == 0
    scans = load_scans(out)
    assert len(scans) == 5
    assert sorted(p.name for p in out.iterdir()) == ["poses.txt"] + [
        f"scan_{k:06d}.bin" for k in range(5)]
    # 2D scans are stored z-padded
    pts = load_scan_points(out / "scan_000000.bin")
    assert pts.shape[0] >= 1
    assert np.all(pts[:, 2] == 0.0)


def test_synth_head_on_beam_range(tmp_path):
    # one beam aimed straight at the unit circle from distance 3: range 2
    cfg = tmp_path / "one.cfg"
    cfg.write_text("beams = 1\nfov = 0.2\n")
    scene = tmp_path / "c.txt"
    scene.write_text(CIRCLE_SCENE)
    out = tmp_path / "d"
    assert run("synth", "--scene", scene, "--traj", "line:x0=-3,y0=0,x1=-3,y1=0,steps=2",
               "--out", out, "--config", cfg) == 0
    pts = load_scan_points(out / "scan_000000.bin")
    assert pts.shape[0] == 1
    np.testing.assert_allclose(np.linalg.norm(pts[0]), 2.0, atol=1e-5)


def test_synth_is_byte_deterministic(tiny):
    tmp, cfg, scene2 = tiny
    a, b = tmp / "a", tmp / "b"
    for out in (a, b):
        assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
                   "--out", out, "--config", cfg, "--seed", "5", "--threads", "1") == 0
    for name in ("poses.txt", "scan_000000.bin", "scan_000003.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_train_writes_model_and_loss_csv(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    scene = tmp_path / "circle.txt"
    scene.write_text(CIRCLE_SCENE)
    data = tmp_path / "data"
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3,steps=6",
               "--out", data, "--config", cfg) == 0
    model = tmp_path / "field.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg,
               "--mode", "dcn") == 0
    net = load_model(model)
    assert net.dim == 2  # planar dataset auto-detected
    assert (tmp_path / "field.bin.transform").exists()
    csv = (tmp_path / "field.bin.loss.csv").read_text().splitlines()
    assert csv[0] == "epoch,data,endpoint,eikonal,smoothness,total"
    assert len(csv) == 26  # header + one row per epoch
    first = float(csv[1].split(",")[1])
    last = float(csv[-1].split(",")[1])
    assert last < first


def test_train_rerun_is_byte_identical(tiny):
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
        "--out", data, "--config", cfg)
    m1, m2 = tmp / "m1.bin", tmp / "m2.bin"
    for m in (m1, m2):
        assert run("train", "--scans", data, "--out", m, "--config", cfg,
                   "--threads", "1", "--seed", "3") == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp / "m1.bin.loss.csv").read_text() == (tmp / "m2.bin.loss.csv").read_text()
    assert (tmp / "m1.bin.transform").read_bytes() == (tmp / "m2.bin.transform").read_bytes()


def test_train_with_large_weight_gamma(tiny):
    # (d_top - |D|)^gamma would overflow or underflow for every sample at
    # this gamma; the weights are scaled so that the largest is 1.
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    cfg.write_text(TINY_CFG + "weight_gamma = 1e3\n")
    model = tmp / "m.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg, "--mode", "curvature") == 0
    rows = (tmp / "m.bin.loss.csv").read_text().splitlines()[1:]
    assert len(rows) == 2  # one row per epoch
    assert np.all(np.isfinite(np.array([r.split(",") for r in rows], dtype=float)))


def test_mesh_from_trained_model(tmp_path):
    cfg = tmp_path / "c3.cfg"
    # narrow the cone so every pose sees the sphere
    cfg.write_text(with_keys(TINY_CFG, "beams = 32\nfov = 0.8\n"))
    scene = tmp_path / "sphere.txt"
    scene.write_text(SPHERE_SCENE)
    data = tmp_path / "d3"
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3,steps=6",
               "--out", data, "--config", cfg) == 0
    model = tmp_path / "f3.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    assert load_model(model).dim == 3
    ply = tmp_path / "f3.ply"
    assert run("mesh", "--model", model, "--out", ply, "--config", cfg, "--res", "10") == 0
    mesh = read_mesh_ply(ply)
    # barely trained, so only require a structurally valid mesh
    assert mesh.vertices.shape[1] == 3
    assert mesh.triangles.shape[1] == 3


def test_mesh_rejects_2d_model(tiny):
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
        "--out", data, "--config", cfg)
    model = tmp / "m2d.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    assert run("mesh", "--model", model, "--out", tmp / "x.ply", "--config", cfg) == 2


@pytest.fixture
def tiny_model(tiny):
    """A 2D model trained at toy size on the circle scene of ``tiny``."""
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    model = tmp / "m.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    return model


def test_eval_sdf_scores_trained_model(tiny, tiny_model, capsys):
    tmp, cfg, scene2 = tiny
    capsys.readouterr()
    assert run("eval-sdf", "--model", tiny_model, "--scene", scene2,
               "--config", cfg, "--samples", "500") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "metric,value"
    vals = {k: float(v) for k, v in (l.split(",") for l in lines[1:])}
    assert list(vals) == ["mae", "rmse", "eikonal_mean"]
    assert all(np.isfinite(v) for v in vals.values())
    assert vals["rmse"] >= vals["mae"] >= 0.0
    assert vals["eikonal_mean"] >= 0.0


def test_eval_sdf_writes_csv(tiny, tiny_model):
    tmp, cfg, scene2 = tiny
    out = tmp / "eval.csv"
    assert run("eval-sdf", "--model", tiny_model, "--scene", scene2,
               "--config", cfg, "--samples", "200", "--out", out) == 0
    assert out.read_text().startswith("metric,value")


@pytest.mark.parametrize("argv", [
    ["eval-sdf", "--samples", "0"],
    ["eval-sdf", "--band", "0"],
    ["eval-sdf", "--band", "-0.1"],
    ["eval-sdf", "--band", "inf"],
    ["compare", "--samples", "0"],
], ids=lambda argv: " ".join(argv))
def test_scoring_rejects_empty_sample_or_band(tiny, tiny_model, monkeypatch, capsys, argv):
    # --samples 0 would score an empty sample (nan) and --band 0 would draw
    # for a long time before failing; both are refused before any training.
    tmp, cfg, scene2 = tiny

    def no_train(*args, **kwargs):
        raise AssertionError("trained before validating the scoring flags")

    monkeypatch.setattr(cli, "train", no_train)
    rest = ["--model", tiny_model] if argv[0] == "eval-sdf" else ["--traj", "orbit:radius=3,steps=2"]
    capsys.readouterr()
    assert run(*argv, *rest, "--scene", scene2, "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argv[1] in err


def test_compare_fails_fast_on_unseen_primitive(tiny, monkeypatch, capsys):
    # the circle at x = 9 lies outside everything an orbit of radius 3 scans,
    # so its band cannot be scored; compare says so before training a mode
    tmp, cfg, _ = tiny
    scene = tmp / "far.txt"
    scene.write_text("circle 0 0 1\ncircle 9 0 0.5\n")

    def no_train(*args, **kwargs):
        raise AssertionError("trained before drawing the band")

    monkeypatch.setattr(cli, "train", no_train)
    assert run("compare", "--scene", scene, "--traj", "orbit:radius=3,steps=4",
               "--samples", "300", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: primitive 2 (Sphere(center=array([9., 0.]), radius=0.5))")


def test_room_band_reaches_the_walls(tmp_path, monkeypatch):
    # The ROOM walls are at |x| = 4 and its bounded content within |x| < 2.3:
    # eval-sdf and compare score the walls too.
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)
    scene = tmp_path / "room.txt"
    scene.write_text(ROOM_SCENE)
    data, model = tmp_path / "d", tmp_path / "m.bin"
    traj = "orbit:radius=3.2,steps=4"
    assert run("synth", "--scene", scene, "--traj", traj, "--out", data, "--config", cfg) == 0
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    scored = []
    real = cli._sdf_errors

    def record(values, sc, pts):
        scored.append(pts)
        return real(values, sc, pts)

    monkeypatch.setattr(cli, "_sdf_errors", record)
    assert run("eval-sdf", "--model", model, "--scene", scene, "--samples", "700",
               "--config", cfg) == 0
    assert run("compare", "--scene", scene, "--traj", traj, "--samples", "700",
               "--config", cfg) == 0
    assert len(scored) == 4
    for pts in scored:
        assert np.any(np.abs(pts[:, 0]) > 3.5) and np.any(np.abs(pts[:, 1]) > 3.5)


def test_localize_scene_and_model_share_one_box(tmp_path, monkeypatch):
    # the exact and the learned map of one dataset are scored over one box:
    # the cube its scans span
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)
    scene = tmp_path / "room.txt"
    scene.write_text(ROOM_SCENE)
    data, model = tmp_path / "d", tmp_path / "m.bin"
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3.2,steps=4",
               "--out", data, "--config", cfg) == 0
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    boxes = []
    real = mcl.localize_run

    def record(field, box, *args):
        boxes.append(box)
        return real(field, box, *args)

    monkeypatch.setattr(mcl, "localize_run", record)
    assert run("localize", "--scene", scene, "--data", data, "--config", cfg) == 0
    assert run("localize", "--model", model, "--data", data, "--config", cfg) == 0
    assert len(boxes) == 4  # mcl_runs = 2 per map
    for box in boxes[1:]:
        assert np.array_equal(box.lo, boxes[0].lo) and np.array_equal(box.hi, boxes[0].hi)


def test_localize_grids_the_map_through_sample_grid(tiny, monkeypatch):
    # The MCL grid comes from a call-time lookup of meshing.sample_grid, so a
    # wrapper put on the module attribute sees every grid that localize builds.
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    calls = []
    real = meshing.sample_grid

    def counting(values, box, res):
        calls.append((box.dim, res))
        return real(values, box, res)

    monkeypatch.setattr(meshing, "sample_grid", counting)
    assert run("localize", "--scene", scene2, "--data", data, "--config", cfg) == 0
    assert calls == [(2, 24)]  # one scored map, at field_grid_res


def test_localize_oracle_room(tmp_path, capsys):
    cfg = tmp_path / "loc.cfg"
    cfg.write_text(
        with_keys(TINY_CFG, "beams = 32\nscan_noise = 0.05\nmcl_particles = 1500\nfield_grid_res = 64\n")
    )
    scene = tmp_path / "room.txt"
    scene.write_text(ROOM_SCENE)
    data = tmp_path / "data"
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3.2,steps=16",
               "--out", data, "--config", cfg) == 0
    capsys.readouterr()
    assert run("localize", "--scene", scene, "--data", data, "--config", cfg) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "runs,converged,rmse,mae"
    runs, converged, rmse, mae = lines[1].split(",")
    assert int(runs) == 2
    assert 0 <= int(converged) <= 2
    if rmse != "-":
        assert float(rmse) >= float(mae) > 0.0


def test_localize_trajectory_is_read_from_poses(tiny):
    # localize takes (x, y, heading) from poses.txt; the heading comes back
    # through atan2 of the stored rotation
    tmp, cfg, scene2 = tiny
    for k, spec in enumerate(["orbit:radius=3.2,steps=36,start=0.7", "orbit:radius=2.5,steps=8",
                              "line:x0=-3,y0=-2,x1=2,y1=-2.5,steps=5"]):
        data = tmp / f"data{k}"
        assert run("synth", "--scene", scene2, "--traj", spec, "--out", data, "--config", cfg) == 0
        got = cli._planar_trajectory(load_scans(data))
        want = trajectory_poses(spec)
        assert np.array_equal(got[:, :2], want[:, :2]), spec
        assert np.all(np.abs(got[:, 2] - want[:, 2]) <= np.spacing(np.abs(want[:, 2]))), spec


def test_localize_rejects_3d_dataset(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CFG)
    room3 = tmp_path / "room3.txt"
    room3.write_text(ROOM3D_SCENE)
    room2 = tmp_path / "room2.txt"
    room2.write_text(ROOM_SCENE)
    data = tmp_path / "d3"
    assert run("synth", "--scene", room3, "--traj", "orbit:radius=2.5,steps=4",
               "--out", data, "--config", cfg) == 0
    capsys.readouterr()
    assert run("localize", "--scene", room2, "--data", data, "--config", cfg) == 2
    assert "localization needs a planar (2D) dataset" in capsys.readouterr().err


def test_empty_dataset_exits_2(tiny, capsys):
    tmp, cfg, scene2 = tiny
    data = tmp / "empty"
    data.mkdir()
    (data / "poses.txt").write_text("")
    assert run("train", "--scans", data, "--out", tmp / "m.bin", "--config", cfg) == 2
    assert run("localize", "--scene", scene2, "--data", data, "--config", cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_scan_of_four_channel_records_exits_2(tiny, capsys):
    # two 16-byte records (xyz plus intensity) are 32 bytes, which no run of
    # the 12-byte xyz records that synth writes can fill
    tmp, cfg, _ = tiny
    data = tmp / "xyz_plus_i"
    data.mkdir()
    (data / "poses.txt").write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
    scan = data / "scan_000000.bin"
    scan.write_bytes(np.array([[1, 2, 3, 9], [4, 5, 6, 9]], dtype="<f4").tobytes())
    capsys.readouterr()
    assert run("train", "--scans", data, "--out", tmp / "m.bin", "--config", cfg) == 2
    assert str(scan) in capsys.readouterr().err



def test_empty_scan_file_is_named(tiny, capsys):
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    scan = data / "scan_000000.bin"
    scan.write_bytes(b"")
    capsys.readouterr()
    assert run("train", "--scans", data, "--out", tmp / "m.bin", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(scan) in err

def test_model_saved_beside_its_scans(tiny):
    # the dataset directory may hold the model trained from it: only the
    # scan_*.bin files are scans
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    model = data / "model.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    assert len(load_scans(data)) == 4
    assert run("localize", "--model", model, "--data", data, "--config", cfg) == 0
    assert run("train", "--scans", data, "--out", tmp / "m2.bin", "--config", cfg) == 0


def test_localize_rejects_a_loose_transform_sidecar(tiny, capsys):
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    model = tmp / "m.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    sidecar = tmp / "m.bin.transform"
    sidecar.write_text(sidecar.read_text() + "scale 3\nbogus 1\n")
    capsys.readouterr()
    assert run("localize", "--model", model, "--data", data, "--config", cfg) == 2
    assert str(sidecar) in capsys.readouterr().err


@pytest.mark.parametrize("center", [None, "0.5", "0.5 0.5 0.5"])
def test_model_needs_its_transform_sidecar(tiny, center):
    # without its sidecar a model cannot be placed in world metres: a missing
    # one is an I/O error, one of the wrong dimension a validation error
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    model = tmp / "m.bin"
    assert run("train", "--scans", data, "--out", model, "--config", cfg) == 0
    sidecar = tmp / "m.bin.transform"
    if center is None:
        sidecar.unlink()
    else:
        sidecar.write_text(f"center {center}\nscale 1.5\n")
    code = 1 if center is None else 2
    assert run("mesh", "--model", model, "--out", tmp / "m.ply", "--config", cfg) == code
    assert run("eval-sdf", "--model", model, "--scene", scene2, "--samples", "100",
               "--config", cfg) == code
    assert run("localize", "--model", model, "--data", data, "--config", cfg) == code


def test_mesh_rejects_bad_checkpoint(tiny, capsys):
    tmp, cfg, _ = tiny
    bad = tmp / "bad.bin"
    bad.write_bytes(b"CCNDF\0" + struct.pack("<HBHdIHd", 2, 3, 0, np.pi, 8, 2, 30.0))
    assert run("mesh", "--model", bad, "--out", tmp / "x.ply", "--config", cfg) == 2
    assert f"{bad}: encoding needs at least one band" in capsys.readouterr().err


def test_cli_import_leaves_ndimage_unloaded():
    # No command needs scipy.ndimage, and only training's neighbour pairs
    # need scipy.spatial: importing the CLI loads neither, nor any other
    # part of scipy.
    code = ("import sys, scanfield.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stderr


def test_localize_requires_exactly_one_map_source(tiny):
    tmp, cfg, scene2 = tiny
    # map-source validation fires before the dataset is touched
    assert run("localize", "--data", tmp / "data", "--config", cfg) == 2
    assert run("localize", "--scene", scene2, "--model", tmp / "x.bin",
               "--data", tmp / "data", "--config", cfg) == 2


def test_compare_emits_three_rows(tiny, capsys):
    tmp, cfg, scene2 = tiny
    assert run("compare", "--scene", scene2, "--poses", "6", "--samples", "300",
               "--config", cfg, "--threads", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mode,sdf_mae,sdf_rmse,mcl_rmse,mcl_mae"
    assert len(lines) == 4
    modes = [l.split(",")[0] for l in lines[1:]]
    assert modes == ["RayDistance", "ClosestNormal", "CurvatureConstrained"]
    for l in lines[1:]:
        mae, rmse = (float(v) for v in l.split(",")[1:3])
        assert rmse >= mae >= 0.0


def test_compare_computes_no_spatial_gradient(tiny, monkeypatch, capsys):
    # compare scores field values only; outside train, where the ray and dcn
    # losses need it, no spatial gradient may be computed.
    tmp, cfg, scene2 = tiny
    real_grad, real_train = field.grad_batch, cli.train

    def no_grad(*args, **kwargs):
        raise AssertionError("compare computed a spatial gradient")

    def train(*args, **kwargs):
        monkeypatch.setattr(field, "grad_batch", real_grad)
        try:
            return real_train(*args, **kwargs)
        finally:
            monkeypatch.setattr(field, "grad_batch", no_grad)

    monkeypatch.setattr(cli, "train", train)
    monkeypatch.setattr(field, "grad_batch", no_grad)
    assert run("compare", "--scene", scene2, "--poses", "4", "--samples", "200",
               "--config", cfg) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_exit_codes(tiny, tiny_model, tmp_path, capsys):
    tmp, cfg, scene2 = tiny
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_speed = 9\n")
    assert run("eval-sdf", "--model", tiny_model, "--scene", scene2, "--config", bad) == 2
    assert run("eval-sdf", "--model", tiny_model, "--scene", tmp_path / "nope.txt",
               "--config", cfg) == 1
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=2,steps=2",
               "--out", tmp_path / "x", "--threads", "0") == 2
    # planes alone bound no content to orbit
    planes = tmp_path / "planes.txt"
    planes.write_text("\n".join(ROOM_SCENE.strip().splitlines()[:4]) + "\n")
    assert run("compare", "--scene", planes, "--config", cfg) == 2
    # A valid, finite learning rate at which the loss overflows within 20
    # epochs: in every mode, training stops on the non-finite loss without
    # a numpy warning on the way.
    hot = tmp_path / "hot.cfg"
    hot.write_text(with_keys(TINY_CFG, "learn_rate = 1e8\nepochs = 20\n"))
    for mode in SupervisionMode:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--scans", tmp / "data", "--out", tmp_path / "hot.bin",
                       "--config", hot, "--mode", mode.value) == 1, mode
        err = capsys.readouterr().err
        assert "error: non-finite loss" in err and "Traceback" not in err, (mode, err)



def test_diverging_update_exits_1_without_a_warning(tiny, tmp_path, capsys):
    # A finite learning rate so large that the first AdamW step overflows the
    # parameters: a failed run (1) that names the fault, not a usage error
    # (2), and no numpy overflow warning on the way.
    tmp, cfg, scene2 = tiny
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", tmp / "data", "--config", cfg) == 0
    hot = tmp_path / "hot.cfg"
    hot.write_text(with_keys(TINY_CFG, "learn_rate = 1e308\n"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--scans", tmp / "data", "--out", tmp_path / "hot.bin",
                   "--config", hot) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite") and "Traceback" not in err


def test_out_of_memory_request_exits_1(tiny, tiny_model, capsys):
    # About 2**62 bytes of samples: more than any address space holds, and
    # below the 2**63 at which numpy refuses the shape with a ValueError.
    tmp, cfg, scene2 = tiny
    capsys.readouterr()
    assert run("eval-sdf", "--model", tiny_model, "--scene", scene2, "--config", cfg,
               "--samples", "100000000000000000") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err

def test_compare_scores_planes_only_scene(tiny, tmp_path, capsys):
    # with a trajectory, a scene of walls alone has a scanned region to score
    tmp, cfg, _ = tiny
    planes = tmp_path / "planes.txt"
    planes.write_text("\n".join(ROOM_SCENE.strip().splitlines()[:4]) + "\n")
    capsys.readouterr()
    assert run("compare", "--scene", planes, "--traj", "orbit:radius=2,steps=2",
               "--samples", "400", "--config", cfg) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


THREAD_PROBE = """
import os, runpy, sys
sys.argv = ["scanfield"] + sys.argv[1:]
try:
    runpy.run_module("scanfield", run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and at least two CPUs",
)
def test_threads_flag_caps_blas_threads(tiny):
    # BLAS starts one thread per CPU when numpy loads unless the environment
    # caps it first, which only the launcher can do.
    tmp, cfg, scene2 = tiny
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, "synth", "--scene", str(scene2),
         "--traj", "orbit:radius=2,steps=2", "--out", str(tmp / "d"),
         "--config", str(cfg), "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


# TINY_CFG with the room2d benchmark's net (8 bands, 3 layers of 64), and
# rays enough that a batch of 256 rays x 6 samples, more than one row block
# of that net, fits in four scans of the room.
POOLED_CFG = with_keys(TINY_CFG, "encoding_bands = 8\nhidden_width = 64\nhidden_layers = 3\n"
                                 "batch_rays = 256\nbeams = 64\n")


@pytest.fixture
def pooled(tmp_path):
    """The room2d net's config, and a dataset of four room scans taken with it."""
    cfg = tmp_path / "pooled.cfg"
    cfg.write_text(POOLED_CFG)
    scene = tmp_path / "room.txt"
    scene.write_text(ROOM_SCENE)
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=2,steps=4",
               "--out", tmp_path / "data", "--config", cfg) == 0
    return tmp_path, cfg


def _assert_train_bytes_do_not_depend_on_threads(tmp, cfg, *flags):
    for threads in (1, 2, 3):
        assert run("train", "--scans", tmp / "data", "--out", tmp / f"t{threads}.bin",
                   "--config", cfg, "--threads", threads, *flags) == 0
    for suffix in ("", ".loss.csv", ".transform"):
        expected = (tmp / f"t1.bin{suffix}").read_bytes()
        for threads in (2, 3):
            assert (tmp / f"t{threads}.bin{suffix}").read_bytes() == expected


@pytest.mark.parametrize("mode", [m.value for m in SupervisionMode])
def test_train_writes_the_same_bytes_at_any_thread_count(pooled, mode):
    # ray and dcn run the order-1 sample pass, curvature the order-2 one.
    _assert_train_bytes_do_not_depend_on_threads(*pooled, "--mode", mode)


def test_localize_writes_the_same_table_at_any_thread_count(tiny, tiny_model, monkeypatch):
    # In 64-row blocks of whole 25-node lines, a grid row counting as half a
    # row, the 16-wide net samples the 25 x 25 localization grid in six of
    # them, so --threads 2 runs that grid on the pool.
    tmp, cfg, _ = tiny
    monkeypatch.setattr(field, "BLOCK_WORK", 64 * 16)
    for threads in (1, 2):
        assert run("localize", "--model", tiny_model, "--data", tmp / "data", "--config", cfg,
                   "--out", tmp / f"loc{threads}.csv", "--threads", threads) == 0
    assert (tmp / "loc1.csv").read_bytes() == (tmp / "loc2.csv").read_bytes()


def test_mesh_writes_the_same_bytes_at_any_thread_count(tmp_path, monkeypatch):
    # In 64-row blocks of whole 11-node lines, a grid row counting as half a
    # row, the 16-wide net samples the 11^3 grid in twelve of them, so
    # --threads 2 runs that grid on the pool.
    cfg = tmp_path / "c3.cfg"
    cfg.write_text(with_keys(TINY_CFG, "beams = 32\nfov = 0.8\n"))
    scene = tmp_path / "sphere.txt"
    scene.write_text(SPHERE_SCENE)
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3,steps=4",
               "--out", tmp_path / "data", "--config", cfg) == 0
    assert run("train", "--scans", tmp_path / "data", "--out", tmp_path / "m.bin",
               "--config", cfg) == 0
    monkeypatch.setattr(field, "BLOCK_WORK", 64 * 16)
    for threads in (1, 2):
        assert run("mesh", "--model", tmp_path / "m.bin", "--config", cfg, "--res", 10,
                   "--out", tmp_path / f"m{threads}.ply", "--threads", threads) == 0
    assert (tmp_path / "m1.ply").read_bytes() == (tmp_path / "m2.ply").read_bytes()


def test_3d_train_writes_the_same_bytes_at_any_thread_count(tmp_path):
    # A 128-wide net, three row blocks a batch, over a sphere seen through a
    # narrow cone.
    cfg = tmp_path / "wide3.cfg"
    cfg.write_text(with_keys(TINY_CFG, "hidden_width = 128\nbeams = 32\nfov = 0.8\n"))
    scene = tmp_path / "sphere.txt"
    scene.write_text(SPHERE_SCENE)
    assert run("synth", "--scene", scene, "--traj", "orbit:radius=3,steps=4",
               "--out", tmp_path / "data", "--config", cfg) == 0
    _assert_train_bytes_do_not_depend_on_threads(tmp_path, cfg)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and at least two CPUs",
)
def test_threads_flag_caps_field_threads(pooled):
    # The field pool's threads outlive the passes, so the count at exit is
    # the most the run had: the caller plus threads - 1 pool threads, and no
    # BLAS threads, which the launcher pins to one.
    tmp, cfg = pooled
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, "train", "--scans", str(tmp / "data"),
             "--out", str(tmp / f"t{threads}.bin"), "--config", str(cfg), "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == threads
    assert (tmp / "t1.bin").read_bytes() == (tmp / "t2.bin").read_bytes()


def test_launcher_only_pins_blas(tiny, monkeypatch):
    # The launcher sets the thread variables and runs the command; the
    # allocator is ``field``'s, set when it loads, so ctypes is never called.
    tmp, cfg, scene2 = tiny
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)

    def touched(*args, **kwargs):
        raise AssertionError("the launcher called ctypes")

    monkeypatch.setattr(ctypes, "CDLL", touched)
    argv = ["synth", "--scene", scene2, "--traj", "orbit:radius=2,steps=2", "--config", cfg,
            "--out", tmp / "d"]
    assert launcher.main([str(a) for a in argv]) == 0
    assert len(load_scans(tmp / "d")) == 2
    assert all(os.environ[var] == "1" for var in THREAD_VARS)
    assert not hasattr(launcher, "ctypes")


def test_threads_flag_warns_when_it_cannot_act(tiny, monkeypatch, capsys):
    # In-process, numpy is loaded before the flag is read; without the thread
    # variables, which only the launcher sets, BLAS keeps its own threads.
    tmp, cfg, scene2 = tiny
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    argv = ["synth", "--scene", scene2, "--traj", "orbit:radius=2,steps=2", "--config", cfg,
            "--threads", "1"]
    assert run(*argv, "--out", tmp / "warn") == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("warning:")] == [
        "warning: --threads 1 sets the field's threads, but BLAS was not pinned to one thread: "
        "numpy was imported before the thread variables were set; run through "
        "'python -m scanfield' instead"
    ]
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert run(*argv, "--out", tmp / "quiet") == 0
    assert "warning:" not in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tiny, capsys):
    tmp, cfg, scene2 = tiny
    data = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
               "--out", data, "--config", cfg) == 0
    bad = tmp / "bad.cfg"
    for line in ("scan_noise = nan", "trunc_band = nan", "mcl_conv_std = inf"):
        bad.write_text(TINY_CFG + line + "\n")
        capsys.readouterr()
        assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=4",
                   "--out", tmp / "d2", "--config", bad) == 2
        assert run("train", "--scans", data, "--out", tmp / "m.bin", "--config", bad) == 2
        assert run("localize", "--scene", scene2, "--data", data, "--config", bad) == 2
        assert capsys.readouterr().err.count(f"{line.split()[0]} must be finite") == 3


@pytest.mark.parametrize("command", ["train", "mesh", "eval-sdf", "localize", "compare"])
def test_missing_out_directory_fails_before_the_work(tiny, tiny_model, monkeypatch, capsys, command):
    tmp, cfg, scene2 = tiny

    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "train", never)
    monkeypatch.setattr(meshing, "marching_cubes", never)
    monkeypatch.setattr(meshing, "sample_grid", never)
    monkeypatch.setattr(cli.storage, "load_field", never)
    monkeypatch.setattr(cli.storage, "load_scans", never)
    out = tmp / "missing" / "out.file"
    args = {
        "train": ["--scans", tmp / "data"],
        "mesh": ["--model", tiny_model],
        "eval-sdf": ["--model", tiny_model, "--scene", scene2],
        "localize": ["--model", tiny_model, "--data", tmp / "data"],
        "compare": ["--scene", scene2],
    }[command]
    capsys.readouterr()
    assert run(command, *args, "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("dim", [2, 3])
def test_world_grid_reads_the_canonical_points_of_world_map(dim, monkeypatch):
    # The grid's canonical axes are (a - c) / scale per axis, which are
    # tf.to_canonical's coordinates of the grid's nodes, bit for bit.
    from scanfield.geom import Aabb, SceneTransform

    tf = SceneTransform(np.array([0.31, -1.7, 2.05])[:dim], 2.93)
    box = Aabb(np.array([-3.1, -0.4, 0.7])[:dim], np.array([2.3, 1.9, 4.4])[:dim])
    net = field.init_field(seed=3, dim=dim, hidden=16, hidden_layers=2)
    seen = []
    evaluate_grid = field.evaluate_grid

    def recording(net, axes):
        seen.append(axes)
        return evaluate_grid(net, axes)

    monkeypatch.setattr(field, "evaluate_grid", recording)
    got = meshing.sample_grid(cli.world_grid(net, tf), box, 13)
    world_axes = [np.linspace(box.lo[a], box.hi[a], 14) for a in range(dim)]
    nodes = np.stack([g.reshape(-1) for g in np.meshgrid(*world_axes, indexing="ij")], axis=1)
    canon = np.stack([g.reshape(-1) for g in np.meshgrid(*seen[0], indexing="ij")], axis=1)
    assert canon.tobytes() == tf.to_canonical(nodes).tobytes()
    values, _, _ = cli.world_map(net, tf)
    np.testing.assert_allclose(got.reshape(-1), values(nodes), rtol=0,
                               atol=1e-13 * max(1.0, np.max(np.abs(got))))
