import re
import struct

import numpy as np
import pytest

from scanfield.encoding import EncodingConfig
from scanfield.field import init_field
from scanfield.geom import Aabb, Pose, Scan, SceneTransform, rot2d
from scanfield.meshing import TriangleMesh, marching_cubes, pointwise
from scanfield.scenes import AnalyticScene, Box, Sphere
from scanfield.storage import (
    MODEL_MAGIC,
    export_mesh_ply,
    load_field,
    load_model,
    load_poses,
    load_scan_points,
    load_scans,
    load_transform,
    read_mesh_ply,
    save_field,
    save_model,
    save_scans,
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
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, pts.astype(np.float64))


def test_scan_points_rejects_bad_sizes_and_values(tmp_path):
    f = tmp_path / "bad.bin"
    # 13 bytes, and 32 bytes: two 16-byte records with a fourth channel
    for size in (13, 32):
        f.write_bytes(b"\x00" * size)
        with pytest.raises(ValueError, match=f"bad.bin: size {size} is not a multiple "
                                             "of the 12-byte f32 xyz record"):
            load_scan_points(f)
    f.write_bytes(np.array([np.nan, 0, 0], dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_scan_points(f)


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
    (tmp_path / "poses.txt").write_text("\n")
    with pytest.raises(ValueError, match="no poses"):
        load_scans(tmp_path)


def test_save_scans_over_a_larger_dataset_removes_its_extra_scans(tmp_path):
    def scans(n):
        return [Scan(Pose.from_xytheta(0.1 * k, 0.0, 0.0), np.full((2, 2), float(k))) for k in range(n)]

    save_scans(tmp_path, scans(6))
    (tmp_path / "model.bin").write_bytes(b"kept")
    (tmp_path / "model.bin.transform").write_text("kept\n")
    save_scans(tmp_path, scans(4))
    _assert_scans_equal(load_scans(tmp_path), scans(4))
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "model.bin", "model.bin.transform", "poses.txt",
        "scan_000000.bin", "scan_000001.bin", "scan_000002.bin", "scan_000003.bin",
    ]


def _rot3(a: float, b: float) -> np.ndarray:
    """Rotation by ``a`` about z after ``b`` about x."""
    rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)], [0.0, np.sin(b), np.cos(b)]])
    rz = np.eye(3)
    rz[:2, :2] = rot2d(a)
    return rz @ rx


def _assert_scans_equal(back, scans):
    assert len(back) == len(scans)
    for b, s in zip(back, scans):
        assert np.array_equal(b.pose.rotation, s.pose.rotation)
        assert np.array_equal(b.pose.translation, s.pose.translation)
        assert np.array_equal(b.points, s.points.astype(np.float32).astype(np.float64))


def test_scans_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    planar = [Scan(Pose.from_xytheta(*rng.normal(size=3)), rng.normal(size=(n, 2)))
              for n in (5, 1, 7)]
    save_scans(tmp_path / "d2", planar)
    back = load_scans(tmp_path / "d2")
    assert {s.pose.dim for s in back} == {2}
    _assert_scans_equal(back, planar)

    spatial = [Scan(Pose(_rot3(*rng.normal(size=2)), rng.normal(size=3)), rng.normal(size=(n, 3)))
               for n in (4, 6)]
    save_scans(tmp_path / "d3", spatial)
    _assert_scans_equal(load_scans(tmp_path / "d3"), spatial)

    # one point off the z = 0 plane keeps the whole dataset 3D
    pts = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [2.0, 0.0, 0.0]])
    off = pts.copy()
    off[2, 2] = 1e-3
    flat = [Scan(Pose(_rot3(a, 0.0), [a, 1.0, 0.0]), p) for a, p in ((0.3, pts), (1.2, off))]
    save_scans(tmp_path / "off", flat)
    back = load_scans(tmp_path / "off")
    assert {s.pose.dim for s in back} == {3}
    _assert_scans_equal(back, flat)


def test_field_round_trip(tmp_path):
    net = init_field(seed=6, dim=2, hidden=8, hidden_layers=2, encoding=EncodingConfig(3))
    tf = SceneTransform(center=np.array([0.25, -3.5]), scale=4.125)
    path = tmp_path / "net.bin"
    save_field(path, net, tf)
    assert (tmp_path / "net.bin.transform").read_text() == "center 0.25 -3.5\nscale 4.125\n"
    back, back_tf = load_field(path)
    assert np.array_equal(back.params, net.params)
    assert np.array_equal(back_tf.center, tf.center) and back_tf.scale == tf.scale
    (tmp_path / "net.bin.transform").write_text("center 0 0 0\nscale 1.0\n")
    with pytest.raises(ValueError, match="3D transform for a 2D model"):
        load_field(path)
    (tmp_path / "net.bin.transform").unlink()
    with pytest.raises(FileNotFoundError):
        load_field(path)


def test_model_round_trip_is_bit_exact(tmp_path):
    net = init_field(seed=5, dim=3, hidden=16, hidden_layers=3, encoding=EncodingConfig(4, 2.5),
                     first_factor=12.5)
    path = tmp_path / "net.bin"
    save_model(path, net)
    back = load_model(path)
    assert (back.encoding, back.dim, back.hidden, back.hidden_layers, back.first_factor) == (
        EncodingConfig(4, 2.5), 3, 16, 3, 12.5)
    assert np.array_equal(back.params, net.params)
    # resave is byte-identical
    path2 = tmp_path / "net2.bin"
    save_model(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def _header(version=2, dim=2, bands=3, base=np.pi, hidden=8, hidden_layers=2, first_factor=30.0):
    return MODEL_MAGIC + struct.pack("<HBHdIHd", version, dim, bands, base, hidden,
                                     hidden_layers, first_factor)


def _per_layer_checkpoint(net):
    """The documented checkpoint layout, written one layer at a time."""
    parts = [_header(2, net.dim, net.encoding.bands, net.encoding.base, net.hidden,
                     net.hidden_layers, net.first_factor)]
    for w, b, _ in net.layers():
        parts += [w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
    return b"".join(parts)


@pytest.mark.parametrize("dim", [2, 3])
def test_model_bytes_follow_per_layer_layout(tmp_path, dim):
    net = init_field(seed=dim + 10, dim=dim, hidden=12, hidden_layers=3, encoding=EncodingConfig(5))
    path = tmp_path / "net.bin"
    save_model(path, net)
    assert path.read_bytes() == _per_layer_checkpoint(net)


def test_model_file_size_is_header_plus_params(tmp_path):
    net = init_field(seed=1, dim=2, hidden=8, hidden_layers=2, encoding=EncodingConfig(3))
    path = tmp_path / "net.bin"
    save_model(path, net)
    params = sum(w.size + b.size for w, b, _ in net.layers())
    assert path.stat().st_size == 33 + 8 * params


def test_model_rejects_corruption(tmp_path):
    net = init_field(seed=2, dim=2, hidden=4, hidden_layers=1, encoding=EncodingConfig(2))
    path = tmp_path / "net.bin"
    save_model(path, net)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXNDF\0" + raw[6:])
    with pytest.raises(ValueError, match="magic"):
        load_model(bad)

    bad.write_bytes(raw[:32])
    with pytest.raises(ValueError, match="truncated header"):
        load_model(bad)

    bad.write_bytes(raw[:6] + struct.pack("<H", 99) + raw[8:])
    with pytest.raises(ValueError, match="version 99"):
        load_model(bad)

    bad.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="not whole f64"):
        load_model(bad)

    for body in (raw[:-8], raw + b"\x00" * 8):
        bad.write_bytes(body)
        with pytest.raises(ValueError, match="parameters"):
            load_model(bad)

    nan_param = bytearray(raw)
    nan_param[-8:] = struct.pack("<d", float("nan"))
    bad.write_bytes(bytes(nan_param))
    with pytest.raises(ValueError, match="non-finite parameters"):
        load_model(bad)


# The default header's 2D net (3 bands, so 14 features; two layers of 8) has
# 8 * 15 + 8 * 9 + 9 = 201 parameters.
@pytest.mark.parametrize("fields, message", [
    ({"bands": 0}, "at least one band"),
    ({"base": float("nan")}, "base frequency"),
    ({"base": 0.0}, "base frequency"),
    ({"hidden": 0}, "need a dimension"),
    ({"hidden_layers": 0}, "need a dimension"),
    ({"first_factor": float("nan")}, "non-finite first-layer factor"),
    ({"hidden": 9}, "take 235 parameters"),
    ({"version": 1}, "unsupported format version 1"),
    # a factor of 0 marks the affine output layer
    ({"first_factor": 0.0}, "first-layer factor must be positive"),
    ({"first_factor": -30.0}, "first-layer factor must be positive"),
])
def test_model_rejects_invalid_header_fields(tmp_path, fields, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(_header(**fields) + np.zeros(201).astype("<f8").tobytes())
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
        load_model(path)


def test_transform_round_trip(tmp_path):
    tf = SceneTransform(center=np.array([0.5, -1.25, 3.0]), scale=2.75)
    path = tmp_path / "net.transform"
    save_transform(path, tf)
    back = load_transform(path)
    assert back.scale == tf.scale
    np.testing.assert_array_equal(back.center, tf.center)


@pytest.mark.parametrize(
    "text, message",
    [
        ("center 1 2\n", "malformed"),  # missing scale
        ("center 1 2\nscale 2\nscale 3\n", "repeated transform key 'scale'"),
        ("center 1 2\ncenter 1 2\nscale 2\n", "repeated transform key 'center'"),
        ("center 1 2\nscale 2\nbogus 1\n", "unknown or repeated transform key 'bogus'"),
        ("center 1 2\nscale 2 9\n", "malformed"),
        ("center 1 2\nscale\n", "malformed"),
        ("center nan 2\nscale 2\n", "non-finite"),
        ("center 1 2\nscale -2\n", "positive"),
    ],
)
def test_transform_is_read_as_strictly_as_written(tmp_path, text, message):
    path = tmp_path / "net.transform"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        load_transform(path)
    assert str(path) in str(info.value)


def test_cube_mesh_ply_declarations(tmp_path):
    box = Aabb.cube(np.zeros(3), 1.0)
    # cube surface: aligned box field meshes into the full boundary
    mesh = marching_cubes(
        pointwise(lambda p: np.max(np.abs(p), axis=1) - 0.5), box, 8
    )
    path = tmp_path / "cube.ply"
    export_mesh_ply(path, mesh)
    raw = path.read_bytes()
    end = raw.index(b"end_header\n") + len(b"end_header\n")
    head = raw[:end].decode("ascii").splitlines()
    assert head[:2] == ["ply", "format binary_little_endian 1.0"]
    assert f"element vertex {mesh.vertices.shape[0]}" in head
    assert f"element face {mesh.triangles.shape[0]}" in head
    assert "property list uchar int vertex_indices" in head
    # body: f32 xyz per vertex, then a uchar 3 and three int32 per face
    v_bytes = 12 * mesh.vertices.shape[0]
    assert len(raw) == end + v_bytes + 13 * mesh.triangles.shape[0]
    faces = np.frombuffer(raw[end + v_bytes :], dtype=[("n", "u1"), ("i", "<i4", (3,))])
    assert np.all(faces["n"] == 3)
    np.testing.assert_array_equal(faces["i"], mesh.triangles)
    back = read_mesh_ply(path)
    # f32 quantization only
    np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-6)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)


def test_scene_mesh_ply_round_trip(tmp_path):
    scene = AnalyticScene((Sphere(np.array([0.2, 0.0, 0.1]), 0.5),
                           Box(np.array([-0.4, 0.1, -0.2]), np.array([0.3, 0.2, 0.4]))))
    mesh = marching_cubes(pointwise(scene.sdf), Aabb.cube(np.zeros(3), 1.0), 40)
    assert mesh.triangles.shape[0] > 1000
    path = tmp_path / "scene.ply"
    export_mesh_ply(path, mesh)
    back = read_mesh_ply(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices.astype(np.float32))
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


_PLY_HEAD = (b"ply\nformat binary_little_endian 1.0\nelement vertex 3\nproperty float x\n"
             b"property float y\nproperty float z\nelement face 1\n"
             b"property list uchar int vertex_indices\n")
_PLY_VERTS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype="<f4").tobytes()
_PLY_FACE = b"\x03" + np.array([0, 1, 2], dtype="<i4").tobytes()
_PLY_ASCII = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
              "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
              "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").encode("ascii")


@pytest.mark.parametrize(
    "raw, message",
    [
        (MODEL_MAGIC + _PLY_VERTS, "not a PLY"),
        (_PLY_HEAD + _PLY_VERTS + _PLY_FACE, "missing end_header"),
        (b"ply\nformat binary_little_endian 1.0\nelement vertex 3\nproperty float x\n"
         b"property float y\nproperty float z\nend_header\n" + _PLY_VERTS, "missing vertex/face"),
        (_PLY_HEAD + b"end_header\n" + _PLY_VERTS, "body of 36 bytes, the header declares 49"),
        (_PLY_HEAD + b"end_header\n" + _PLY_VERTS + _PLY_FACE[:-1], "body of 48 bytes"),
        (_PLY_HEAD + b"end_header\n" + _PLY_VERTS + _PLY_FACE + b"\n", "body of 50 bytes"),
        (_PLY_HEAD + b"end_header\n" + _PLY_VERTS + b"\x04" + _PLY_FACE[1:], "face 0 is not a triangle"),
        (_PLY_ASCII, "header is not the binary little-endian"),
    ],
    ids=["not-a-ply", "missing-end-header", "missing-elements", "no-faces", "short-body",
         "trailing-bytes", "quad-face", "ascii"],
)
def test_ply_rejects_malformed_files(tmp_path, raw, message):
    path = tmp_path / "bad.ply"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        read_mesh_ply(path)
