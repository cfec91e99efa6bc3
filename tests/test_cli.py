"""End-to-end command tests at toy scale.

These drive the real pipelines (synthesize, train, mesh, evaluate, localize,
compare) through main() with configs small enough for CI; full-scale runs
live in the acceptance suite.
"""

import numpy as np
import pytest

from scanfield.cli import main, trajectory_poses
from scanfield.storage import load_model, load_scan_points, load_scans, read_mesh_ply

TINY_CFG = """
encoding_bands = 4
hidden_width = 16
hidden_layers = 2
samples_per_ray = 6
epochs = 2
batch_rays = 128
beams = 12
mesh_res = 12
field_grid_res = 24
mcl_particles = 300
mcl_runs = 2
"""

# enough steps at a hot learning rate that the data term visibly drops
TRAIN_CFG = TINY_CFG + """
learn_rate = 3e-3
epochs = 25
batch_rays = 32
"""

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


def test_synth_writes_dataset(tiny):
    tmp, cfg, scene2 = tiny
    out = tmp / "data"
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=3,steps=5",
               "--out", out, "--config", cfg) == 0
    scans = load_scans(out)
    assert len(scans) == 5
    assert len((out / "trajectory.txt").read_text().splitlines()) == 5
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
    for name in ("poses.txt", "trajectory.txt", "scan_000000.bin", "scan_000003.bin"):
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


def test_mesh_from_trained_model(tmp_path):
    cfg = tmp_path / "c3.cfg"
    # narrow the cone so every pose sees the sphere
    cfg.write_text(TINY_CFG + "beams = 32\nfov = 0.8\n")
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


def test_eval_sdf_oracle_against_itself(tiny, capsys):
    tmp, cfg, scene2 = tiny
    assert run("eval-sdf", "--model", "oracle", "--scene", scene2,
               "--config", cfg, "--samples", "500") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "metric,value"
    vals = {k: float(v) for k, v in (l.split(",") for l in lines[1:])}
    assert vals["mae"] < 1e-9
    assert vals["rmse"] < 1e-9
    assert vals["eikonal_mean"] < 1e-9


def test_eval_sdf_writes_csv(tiny):
    tmp, cfg, scene2 = tiny
    out = tmp / "eval.csv"
    assert run("eval-sdf", "--model", "oracle", "--scene", scene2,
               "--config", cfg, "--samples", "200", "--out", out) == 0
    assert out.read_text().startswith("metric,value")


def test_localize_oracle_room(tmp_path, capsys):
    cfg = tmp_path / "loc.cfg"
    cfg.write_text(
        TINY_CFG + "beams = 32\nscan_noise = 0.05\nmcl_particles = 1500\nfield_grid_res = 64\n"
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


def test_exit_codes(tiny, tmp_path):
    tmp, cfg, scene2 = tiny
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_speed = 9\n")
    assert run("eval-sdf", "--model", "oracle", "--scene", scene2, "--config", bad) == 2
    assert run("eval-sdf", "--model", "oracle", "--scene", tmp_path / "nope.txt",
               "--config", cfg) == 1
    assert run("synth", "--scene", scene2, "--traj", "orbit:radius=2,steps=2",
               "--out", tmp_path / "x", "--threads", "0") == 2
    # planes alone bound no region to sample the band in or to orbit
    planes = tmp_path / "planes.txt"
    planes.write_text("\n".join(ROOM_SCENE.strip().splitlines()[:4]) + "\n")
    assert run("eval-sdf", "--model", "oracle", "--scene", planes, "--config", cfg) == 2
    assert run("compare", "--scene", planes, "--config", cfg) == 2
    assert run("compare", "--scene", planes, "--traj", "orbit:radius=2,steps=2",
               "--config", cfg) == 2
