import struct

import numpy as np
import pytest

from scanfield.encoding import default_encoding
from scanfield.field import init_field
from scanfield.geom import Aabb, SceneTransform
from scanfield.meshing import TriangleMesh, marching_cubes
from scanfield.storage import (
    MODEL_MAGIC,
    export_mesh_ply,
    load_model,
    load_poses,
    load_scan_points,
    load_scans,
    load_transform,
    read_mesh_ply,
    save_model,
    save_transform,
)

IDENTITY_LINE = "1 0 0 0 0 1 0 0 0 0 1 0\n"


def test_load_poses_identity(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text(IDENTITY_LINE + "1 0 0 2.5 0 1 0 -1 0 0 1 0\n")
    poses = load_poses(p)
    assert len(poses) == 2
    np.testing.assert_allclose(poses[0].rotation, np.eye(3))
    np.testing.assert_allclose(poses[1].translation, [2.5, -1.0, 0.0])


def test_load_poses_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "poses.txt"
    p.write_text(IDENTITY_LINE + "1 0 0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_poses(p)
    p.write_text("1 0 0 0 0 1 0 0 0 0 x 0\n")
    with pytest.raises(ValueError, match=":1:"):
        load_poses(p)
    # a non-rotation matrix is rejected, not silently accepted
    p.write_text("2 0 0 0 0 1 0 0 0 0 1 0\n")
    with pytest.raises(ValueError, match=":1:"):
        load_poses(p)


def test_scan_points_formats(tmp_path):
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype="<f4")
    xyz = tmp_path / "a.bin"
    xyz.write_bytes(pts.tobytes())
    assert xyz.stat().st_size == 24  # 12 N bytes
    got = load_scan_points(xyz)
    np.testing.assert_allclose(got, pts)

    with_i = np.concatenate([pts, np.array([[9.0], [9.0]], dtype="<f4")], axis=1)
    xyzi = tmp_path / "b.bin"
    xyzi.write_bytes(with_i.tobytes())
    assert xyzi.stat().st_size == 32  # 16 N bytes
    got = load_scan_points(xyzi, record_format="xyzi")
    np.testing.assert_allclose(got, pts)


def test_scan_points_autodetect_prefers_xyz(tmp_path):
    # 48 bytes divides both record widths; ambiguity resolves to xyz
    data = np.arange(12, dtype="<f4")
    f = tmp_path / "c.bin"
    f.write_bytes(data.tobytes())
    got = load_scan_points(f, record_format="auto")
    assert got.shape == (4, 3)


def test_scan_points_rejects_bad_sizes_and_values(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"\x00" * 13)
    with pytest.raises(ValueError, match="neither"):
        load_scan_points(f)
    f.write_bytes(np.array([np.nan, 0, 0], dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_scan_points(f)
    with pytest.raises(ValueError, match="record format"):
        load_scan_points(f, record_format="xy")


def test_load_scans_pairs_files_with_poses(tmp_path):
    (tmp_path / "poses.txt").write_text(IDENTITY_LINE * 2)
    for i in range(2):
        pts = np.full((3, 3), float(i), dtype="<f4")
        (tmp_path / f"scan_{i:06d}.bin").write_bytes(pts.tobytes())
    scans = load_scans(tmp_path)
    assert len(scans) == 2
    assert scans[1].points[0, 0] == 1.0
    (tmp_path / "scan_000002.bin").write_bytes(b"")
    with pytest.raises(ValueError, match="3 scan files but 2 poses"):
        load_scans(tmp_path)


def test_model_round_trip_is_bit_exact(tmp_path):
    net = init_field(seed=5, dim=3, hidden=16, hidden_layers=3, encoding=default_encoding(4))
    path = tmp_path / "net.bin"
    save_model(path, net)
    back = load_model(path)
    assert back.dim == net.dim
    assert back.sine_factors == net.sine_factors
    np.testing.assert_array_equal(back.encoding.frequencies, net.encoding.frequencies)
    for wa, wb in zip(net.weights, back.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(net.biases, back.biases):
        assert np.array_equal(ba, bb)
    # resave is byte-identical
    path2 = tmp_path / "net2.bin"
    save_model(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_size_is_header_plus_params(tmp_path):
    net = init_field(seed=1, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(3))
    path = tmp_path / "net.bin"
    save_model(path, net)
    layers = net.layer_count
    header = len(MODEL_MAGIC) + 5 + 2 + 8 * layers + 8 * layers + 8 * net.encoding.bands
    params = sum(w.size + b.size for w, b in zip(net.weights, net.biases))
    assert path.stat().st_size == header + 8 * params


def test_model_rejects_corruption(tmp_path):
    net = init_field(seed=2, dim=2, hidden=4, hidden_layers=1, encoding=default_encoding(2))
    path = tmp_path / "net.bin"
    save_model(path, net)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXNDF\0" + bytes(raw[6:]))
    with pytest.raises(ValueError, match="magic"):
        load_model(bad)

    wrong_ver = bytearray(raw)
    wrong_ver[6:8] = struct.pack("<H", 99)
    bad.write_bytes(bytes(wrong_ver))
    with pytest.raises(ValueError, match="version"):
        load_model(bad)

    bad.write_bytes(bytes(raw[:-4]))
    with pytest.raises(ValueError, match="truncated"):
        load_model(bad)

    bad.write_bytes(bytes(raw) + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_model(bad)


def test_transform_round_trip(tmp_path):
    tf = SceneTransform(center=np.array([0.5, -1.25, 3.0]), scale=2.75)
    path = tmp_path / "net.transform"
    save_transform(path, tf)
    back = load_transform(path)
    assert back.scale == tf.scale
    np.testing.assert_array_equal(back.center, tf.center)
    broken = tmp_path / "nope.transform"
    broken.write_text("center 1 2\n")  # missing scale
    with pytest.raises(ValueError, match="malformed"):
        load_transform(broken)


def test_cube_mesh_ply_declarations(tmp_path):
    box = Aabb.cube(np.zeros(3), 1.0)
    # cube surface: aligned box field meshes into the full boundary
    mesh = marching_cubes(
        lambda p: np.max(np.abs(p), axis=1) - 0.5, box, 8
    )
    path = tmp_path / "cube.ply"
    export_mesh_ply(path, mesh)
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert f"element vertex {mesh.vertices.shape[0]}" in text
    assert f"element face {mesh.triangles.shape[0]}" in text
    back = read_mesh_ply(path)
    # f32 quantization only
    np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-6)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)


def test_empty_mesh_ply_is_valid(tmp_path):
    path = tmp_path / "empty.ply"
    export_mesh_ply(path, TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.intp)))
    back = read_mesh_ply(path)
    assert back.vertices.shape == (0, 3)
    assert back.triangles.shape == (0, 3)


def test_ply_rejects_garbage(tmp_path):
    path = tmp_path / "nope.ply"
    path.write_text("solid nope\n")
    with pytest.raises(ValueError, match="not a PLY"):
        read_mesh_ply(path)

