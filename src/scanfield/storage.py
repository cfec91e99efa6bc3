"""File formats: scan datasets, models, meshes.

This module owns the formats the commands pass between them.  A dataset is
a directory of ``poses.txt`` plus one ``scan_NNNNNN.bin`` per pose, a run of
12-byte f32 xyz records (``save_scans``/``load_scans``).  A model is a
checkpoint plus its ``<checkpoint>.transform`` sidecar
(``save_field``/``load_field``).  A mesh is a binary little-endian PLY
(``export_mesh_ply``/``read_mesh_ply``).

All binary payloads are little-endian regardless of host.  Checkpoints keep
64-bit floats (training precision); meshes are 32-bit artifacts meant for
visualization.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

from .encoding import EncodingConfig
from .field import FieldNet
from .geom import Pose, Scan, SceneTransform
from .meshing import TriangleMesh

MODEL_MAGIC = b"CCNDF\0"  # opaque format tag; see save_model for the layout
MODEL_VERSION = 2

_XYZ_BYTES = 12  # 3 x f32


# ---------------------------------------------------------------------------
# scans + poses


def load_poses(path) -> list[Pose]:
    """Read one pose per line: 12 reals, row-major 3x4 world-from-sensor."""
    poses = []
    text = Path(path).read_text()
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 12:
            raise ValueError(f"{path}:{ln}: expected 12 fields, got {len(fields)}")
        try:
            vals = np.array([float(f) for f in fields], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{path}:{ln}: non-finite pose entry")
        mat = vals.reshape(3, 4)
        try:
            poses.append(Pose(mat[:, :3], mat[:, 3]))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    return poses


def load_scan_points(path) -> np.ndarray:
    """Read one binary scan as ``save_scans`` writes it: 12-byte records of
    little-endian f32 xyz, the only record read.  A size that is not a
    multiple of 12 raises ValueError naming the path."""
    raw = Path(path).read_bytes()
    if len(raw) % _XYZ_BYTES != 0:
        raise ValueError(f"{path}: size {len(raw)} is not a multiple of the "
                         f"{_XYZ_BYTES}-byte f32 xyz record")
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 3).astype(np.float64)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{path}: non-finite point coordinates")
    return pts


def load_scans(scan_dir) -> list[Scan]:
    """Pair `poses.txt` with the directory's sorted ``scan_*.bin`` files, by
    index; other files, a model saved beside the scans included, are not read.

    The scans come back 2D when every pose and every point lies in z = 0,
    and 3D otherwise.
    """
    root = Path(scan_dir)
    poses = load_poses(root / "poses.txt")
    if not poses:
        raise ValueError(f"{root / 'poses.txt'}: no poses")
    files = sorted(root.glob("scan_*.bin"))
    if len(files) != len(poses):
        raise ValueError(
            f"{root}: {len(files)} scan files but {len(poses)} poses"
        )
    scans = [Scan(pose, load_scan_points(f)) for pose, f in zip(poses, files)]
    if all(abs(s.pose.translation[2]) < 1e-12 and abs(s.pose.rotation[2, 2] - 1.0) < 1e-12
           and np.all(np.abs(s.points[:, 2]) < 1e-12) for s in scans):
        scans = [Scan(Pose(s.pose.rotation[:2, :2], s.pose.translation[:2]), s.points[:, :2])
                 for s in scans]
    return scans


def save_scans(scan_dir, scans: list[Scan]) -> None:
    """Write ``poses.txt`` and one ``scan_NNNNNN.bin`` per scan, in order.

    2D scans are stored in the z = 0 plane: the pose embedded in a 3x4
    matrix, the points padded with z = 0 and rounded to f32.  Other
    ``scan_*.bin`` files, which ``load_scans`` would read, are removed.
    """
    root = Path(scan_dir)
    root.mkdir(parents=True, exist_ok=True)
    names = {f"scan_{k:06d}.bin" for k in range(len(scans))}
    for stale in root.glob("scan_*.bin"):
        if stale.name not in names:
            stale.unlink()
    rows = []
    for k, scan in enumerate(scans):
        d = scan.pose.dim
        mat = np.eye(3, 4)
        mat[:d, :d] = scan.pose.rotation
        mat[:d, 3] = scan.pose.translation
        rows.append(" ".join(repr(float(v)) for v in mat.reshape(-1)))
        pts = np.zeros((scan.points.shape[0], 3))
        pts[:, :d] = scan.points
        (root / f"scan_{k:06d}.bin").write_bytes(pts.astype("<f4").tobytes())
    (root / "poses.txt").write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# model checkpoints

# Layout (little-endian): magic, then one ``_MODEL_HEADER`` of version u16,
# input dim u8, encoding band count u16 and base frequency f64, hidden width
# u32, hidden layer count u16 and first-layer factor f64, then
# ``FieldNet.params`` verbatim as f64 (layer-major: row-major weight matrix,
# then bias, per layer).
_MODEL_HEADER = struct.Struct("<HBHdIHd")


def save_model(path, net: FieldNet) -> None:
    header = _MODEL_HEADER.pack(MODEL_VERSION, net.dim, net.encoding.bands, net.encoding.base,
                                net.hidden, net.hidden_layers, net.first_factor)
    Path(path).write_bytes(MODEL_MAGIC + header + net.params.astype("<f8").tobytes())


def load_model(path) -> FieldNet:
    raw = Path(path).read_bytes()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic, not a model file")
    start = len(MODEL_MAGIC) + _MODEL_HEADER.size
    if len(raw) < start:
        raise ValueError(f"{path}: truncated header, {len(raw)} of {start} bytes")
    version, dim, bands, base, hidden, layers, factor = _MODEL_HEADER.unpack_from(raw, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if (len(raw) - start) % 8:
        raise ValueError(f"{path}: body of {len(raw) - start} bytes is not whole f64 values")
    try:
        return FieldNet(EncodingConfig(bands, base), dim, hidden, layers, factor,
                        np.frombuffer(raw, "<f8", offset=start).astype(np.float64))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# scene transform sidecar (text); a model is a checkpoint plus its sidecar


def save_transform(path, tf: SceneTransform) -> None:
    lines = [
        "center " + " ".join(repr(float(c)) for c in tf.center),
        f"scale {tf.scale!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_transform(path) -> SceneTransform:
    """Read ``save_transform``'s ``center`` and ``scale`` lines, each once; any
    other key, a repeat or a bad value is a ValueError naming the path."""
    kv = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, *vals = line.split()
        if key not in ("center", "scale") or key in kv:
            raise ValueError(f"{path}: unknown or repeated transform key {key!r}")
        kv[key] = vals
    try:
        center = np.array([float(v) for v in kv["center"]], dtype=np.float64)
        (scale,) = (float(v) for v in kv["scale"])
        return SceneTransform(center=center, scale=scale)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed transform file ({exc})") from None


def save_field(path, net: FieldNet, tf: SceneTransform) -> None:
    """Write the checkpoint at ``path`` and its scene transform at ``<path>.transform``."""
    save_model(path, net)
    save_transform(f"{path}.transform", tf)


def load_field(path) -> tuple[FieldNet, SceneTransform]:
    """Read a checkpoint and its ``.transform`` sidecar; both must exist and agree in dimension."""
    net = load_model(path)
    tf = load_transform(f"{path}.transform")
    if tf.center.shape != (net.dim,):
        raise ValueError(f"{path}.transform: {tf.center.size}D transform for a {net.dim}D model")
    return net, tf


# ---------------------------------------------------------------------------
# meshes (binary PLY)

# One face record: the list length (always 3), then the three vertex indices.
_PLY_FACE = np.dtype([("count", "u1"), ("indices", "<i4", (3,))])


def _ply_header(n_vertex: int, n_face: int) -> bytes:
    return (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n_vertex}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        f"element face {n_face}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")


def export_mesh_ply(path, mesh: TriangleMesh) -> None:
    """Write a binary little-endian PLY: f32 xyz vertices, then int32 triangles."""
    faces = np.empty(mesh.triangles.shape[0], dtype=_PLY_FACE)
    faces["count"] = 3
    faces["indices"] = mesh.triangles
    with open(path, "wb") as fh:
        fh.write(_ply_header(mesh.vertices.shape[0], faces.shape[0]))
        fh.write(mesh.vertices.astype("<f4"))
        fh.write(faces)


def read_mesh_ply(path) -> TriangleMesh:
    """Read a triangle-mesh PLY as written by ``export_mesh_ply``; any other
    header, an ASCII one included, raises ValueError."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"ply\n"):
        raise ValueError(f"{path}: not a PLY file")
    end = raw.find(b"end_header\n")
    if end < 0:
        raise ValueError(f"{path}: missing end_header")
    head = raw[: end + len(b"end_header\n")]
    counts = dict(re.findall(rb"^element (vertex|face) (\d+)$", head, re.MULTILINE))
    if counts.keys() != {b"vertex", b"face"}:
        raise ValueError(f"{path}: missing vertex/face elements")
    n_vertex, n_face = int(counts[b"vertex"]), int(counts[b"face"])
    if head != _ply_header(n_vertex, n_face):
        raise ValueError(f"{path}: header is not the binary little-endian triangle mesh "
                         f"that export_mesh_ply writes")
    v_bytes = 12 * n_vertex
    body = v_bytes + _PLY_FACE.itemsize * n_face
    if len(raw) - len(head) != body:
        raise ValueError(f"{path}: body of {len(raw) - len(head)} bytes, "
                         f"the header declares {body}")
    verts = np.frombuffer(raw, "<f4", 3 * n_vertex, len(head)).reshape(-1, 3)
    faces = np.frombuffer(raw, _PLY_FACE, n_face, len(head) + v_bytes)
    bad = np.flatnonzero(faces["count"] != 3)
    if bad.size:
        raise ValueError(f"{path}: face {bad[0]} is not a triangle")
    return TriangleMesh(verts, faces["indices"])
