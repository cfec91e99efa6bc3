"""File formats: scan/pose ingestion, model checkpoints, meshes.

All binary payloads are little-endian regardless of host.  Checkpoints keep
64-bit floats (training precision); meshes are 32-bit artifacts meant for
visualization.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .encoding import EncodingConfig
from .field import FieldNet
from .geom import Pose, Scan, SceneTransform
from .meshing import TriangleMesh

MODEL_MAGIC = b"CCNDF\0"  # opaque format tag; see save_model for the layout
MODEL_VERSION = 1

_XYZ_BYTES = 12  # 3 x f32
_XYZI_BYTES = 16  # 3 x f32 + intensity (discarded)


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


def load_scan_points(path, record_format: str = "auto") -> np.ndarray:
    """Read one binary scan: little-endian f32 xyz triplets, or xyzi
    quadruplets whose intensity channel is dropped.

    ``record_format`` is "xyz", "xyzi", or "auto" (decide from the file size;
    a size divisible by both record widths reads as xyz).
    """
    raw = Path(path).read_bytes()
    size = len(raw)
    if record_format == "auto":
        if size % _XYZ_BYTES == 0:
            record_format = "xyz"
        elif size % _XYZI_BYTES == 0:
            record_format = "xyzi"
        else:
            raise ValueError(f"{path}: size {size} fits neither xyz nor xyzi records")
    if record_format == "xyz":
        rec = _XYZ_BYTES
    elif record_format == "xyzi":
        rec = _XYZI_BYTES
    else:
        raise ValueError(f"unknown record format {record_format!r}")
    if size % rec != 0:
        raise ValueError(f"{path}: size {size} not divisible by {rec}-byte records")
    flat = np.frombuffer(raw, dtype="<f4")
    pts = flat.reshape(-1, rec // 4)[:, :3].astype(np.float64)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{path}: non-finite point coordinates")
    return pts


def load_scans(scan_dir, record_format: str = "auto") -> list[Scan]:
    """Pair `poses.txt` with the directory's sorted .bin scans, by index."""
    root = Path(scan_dir)
    poses = load_poses(root / "poses.txt")
    files = sorted(root.glob("*.bin"))
    if len(files) != len(poses):
        raise ValueError(
            f"{root}: {len(files)} scan files but {len(poses)} poses"
        )
    return [Scan(pose, load_scan_points(f, record_format)) for pose, f in zip(poses, files)]


# ---------------------------------------------------------------------------
# model checkpoints

# Layout (little-endian): magic, version u16, input dim u8, band count u16,
# layer count u16, per layer fan-in/fan-out u32 pairs, per layer sine factor
# f64, band frequencies f64, then all parameters as f64, layer-major
# (row-major weight matrix, then bias, per layer).


def _header_bytes(net: FieldNet) -> bytes:
    h = net.encoding.bands
    parts = [
        MODEL_MAGIC,
        struct.pack("<HBH", MODEL_VERSION, net.dim, h),
        struct.pack("<H", net.layer_count),
    ]
    for w in net.weights:
        parts.append(struct.pack("<II", w.shape[1], w.shape[0]))
    parts.append(np.asarray(net.sine_factors, dtype="<f8").tobytes())
    parts.append(net.encoding.frequencies.astype("<f8").tobytes())
    return b"".join(parts)


def save_model(path, net: FieldNet) -> None:
    blobs = [_header_bytes(net)]
    for w, b in zip(net.weights, net.biases):
        blobs.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        blobs.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(blobs))


def load_model(path) -> FieldNet:
    raw = Path(path).read_bytes()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"{path}: truncated file while reading {what}")
        chunk = raw[off : off + n]
        off += n
        return chunk

    off = 0
    if take(len(MODEL_MAGIC), "magic") != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic, not a model file")
    version, dim, h = struct.unpack("<HBH", take(5, "version header"))
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    (layers,) = struct.unpack("<H", take(2, "layer count"))
    if layers < 1 or dim < 1 or h < 1:
        raise ValueError(f"{path}: invalid shape header")
    shapes = []
    for i in range(layers):
        fan_in, fan_out = struct.unpack("<II", take(8, f"layer {i} shape"))
        shapes.append((fan_out, fan_in))
    factors = np.frombuffer(take(8 * layers, "sine factors"), dtype="<f8")
    freqs = np.frombuffer(take(8 * h, "frequencies"), dtype="<f8")
    weights, biases = [], []
    for i, (fan_out, fan_in) in enumerate(shapes):
        w = np.frombuffer(take(8 * fan_out * fan_in, f"layer {i} weights"), dtype="<f8")
        b = np.frombuffer(take(8 * fan_out, f"layer {i} bias"), dtype="<f8")
        weights.append(w.reshape(fan_out, fan_in).astype(np.float64))
        biases.append(b.astype(np.float64))
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return FieldNet(
        encoding=EncodingConfig(freqs.astype(np.float64)),
        dim=dim,
        weights=weights,
        biases=biases,
        sine_factors=tuple(float(f) for f in factors),
    )


# ---------------------------------------------------------------------------
# scene transform sidecar (text)


def save_transform(path, tf: SceneTransform) -> None:
    lines = [
        "center " + " ".join(repr(float(c)) for c in tf.center),
        f"scale {tf.scale!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_transform(path) -> SceneTransform:
    kv = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        kv[key] = rest.split()
    try:
        center = np.array([float(v) for v in kv["center"]], dtype=np.float64)
        scale = float(kv["scale"][0])
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed transform file ({exc})") from None
    return SceneTransform(center=center, scale=scale)


# ---------------------------------------------------------------------------
# meshes (ASCII PLY)


_PLY_CHUNK = 16384  # rows formatted at once; bounds the Python objects alive


def _write_rows(fh, rows: np.ndarray, fmt) -> None:
    for lo in range(0, rows.shape[0], _PLY_CHUNK):
        fh.write("".join(fmt(r) + "\n" for r in rows[lo : lo + _PLY_CHUNK].tolist()))


def export_mesh_ply(path, mesh: TriangleMesh) -> None:
    v = mesh.vertices
    t = mesh.triangles
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {v.shape[0]}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {t.shape[0]}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        # repr of the f32 value widened to f64 is the shortest text that
        # reads back to the same f32.
        _write_rows(fh, v.astype(np.float32).astype(np.float64), lambda p: " ".join(map(repr, p)))
        _write_rows(fh, t, lambda tri: "3 " + " ".join(map(str, tri)))


def read_mesh_ply(path) -> TriangleMesh:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    n_vertex = n_face = None
    body = 0
    for i, line in enumerate(lines[1:], start=1):
        tok = line.split()
        if tok[:2] == ["element", "vertex"]:
            n_vertex = int(tok[2])
        elif tok[:2] == ["element", "face"]:
            n_face = int(tok[2])
        elif tok[:1] == ["end_header"]:
            body = i + 1
            break
    else:
        raise ValueError(f"{path}: missing end_header")
    if n_vertex is None or n_face is None:
        raise ValueError(f"{path}: missing vertex/face elements")
    if len(lines) < body + n_vertex + n_face:
        raise ValueError(f"{path}: truncated body")
    verts = np.array(
        [[float(c) for c in lines[body + i].split()] for i in range(n_vertex)],
        dtype=np.float64,
    ).reshape(n_vertex, 3)
    tris = np.empty((n_face, 3), dtype=np.intp)
    for i in range(n_face):
        tok = lines[body + n_vertex + i].split()
        if tok[0] != "3":
            raise ValueError(f"{path}: face {i} is not a triangle")
        tris[i] = [int(tok[1]), int(tok[2]), int(tok[3])]
    return TriangleMesh(verts, tris)
