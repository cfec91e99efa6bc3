"""Zero-isosurface extraction: marching cubes (3D) and marching squares (2D).

The field is evaluated on a regular grid over an axis-aligned box; cells whose
corner signs differ emit geometry, with crossing positions linearly
interpolated along cell edges.  Shared edges are deduplicated through global
edge ids so the output is indexed and watertight, and cells are visited in
index order, making the vertex numbering deterministic.

Ambiguous saddle faces (alternating corner signs) are resolved by sampling
the field at the face center: cells with exactly one ambiguous face switch to
the complementary case (winding reversed) when the classic table disagrees
with the sample.  Both cells sharing such a face see the same center sample,
so they agree and no crack opens.  Cells with several ambiguous faces keep
the classic table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_tables import CUBE_TRIANGLES
from .geom import Aabb

MIN_TRI_AREA = 1e-12

# Cube corner offsets and the edges between them; see _mc_tables for numbering.
_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
_EDGE_VERTS = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
               (0, 4), (1, 5), (2, 6), (3, 7))
# Faces as corner cycles (consecutive corners share an edge).
_FACES = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (3, 2, 6, 7), (0, 3, 7, 4), (1, 2, 6, 5))

_EDGE_OF = {frozenset(v): i for i, v in enumerate(_EDGE_VERTS)}


def _face_edge_ring(face):
    return tuple(_EDGE_OF[frozenset((face[i], face[(i + 1) % 4]))] for i in range(4))


_FACE_EDGES = tuple(_face_edge_ring(f) for f in _FACES)
_FACE_CENTERS = tuple(
    tuple(sum(_CORNERS[c][a] for c in f) / 4.0 for a in range(3)) for f in _FACES
)


def _triangle_sides(case: int) -> set[frozenset]:
    tris = CUBE_TRIANGLES[case]
    sides = set()
    for t in range(0, len(tris), 3):
        a, b, c = tris[t : t + 3]
        sides |= {frozenset((a, b)), frozenset((b, c)), frozenset((c, a))}
    return sides


def _ambiguity_info():
    """Per case: list of (face index, True if the table keeps the inside
    corners of that face connected across it)."""
    info: list[list[tuple[int, bool]]] = [[] for _ in range(256)]
    for case in range(256):
        sides = _triangle_sides(case)
        for fi, face in enumerate(_FACES):
            bits = [(case >> c) & 1 for c in face]
            if not (bits[0] == bits[2] and bits[1] == bits[3] and bits[0] != bits[1]):
                continue
            e01, e12, e23, e30 = _FACE_EDGES[fi]
            # Pairing A joins the crossings around corners face[0]/face[2];
            # it cuts off face[1] and face[3].  Pairing B is the transpose.
            pair_a = frozenset((e01, e12)) in sides or frozenset((e23, e30)) in sides
            pair_b = frozenset((e01, e30)) in sides or frozenset((e12, e23)) in sides
            if pair_a == pair_b:
                continue
            inside_02 = bits[0] == 1
            info[case].append((fi, pair_a == inside_02))
    return info


_AMB_INFO = _ambiguity_info()


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup; no degenerate faces."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.intp).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise ValueError("triangle index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)


@dataclass(frozen=True)
class PolylineSet:
    """Indexed 2D segments (the marching squares output)."""

    vertices: np.ndarray
    segments: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 2)
        s = np.asarray(self.segments, dtype=np.intp).reshape(-1, 2)
        if s.size and (s.min() < 0 or s.max() >= v.shape[0]):
            raise ValueError("segment index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "segments", s)


def sample_grid(field, box: Aabb, res: int) -> np.ndarray:
    """Field values on the (res+1)^m grid over the box, index order x, y[, z].

    ``field`` is any vectorized callable mapping (N, m) points to (N,) values.
    Evaluation is sliced along the last axis to bound peak memory.
    """
    if res < 2:
        raise ValueError("need at least 2 cells per axis")
    m = box.dim
    axes = [np.linspace(box.lo[a], box.hi[a], res + 1) for a in range(m)]
    if m == 2:
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([xg.reshape(-1), yg.reshape(-1)], axis=1)
        return np.asarray(field(pts), dtype=np.float64).reshape(res + 1, res + 1)
    vals = np.empty((res + 1, res + 1, res + 1), dtype=np.float64)
    xg, yg = np.meshgrid(axes[0], axes[1], indexing="ij")
    flat = np.stack([xg.reshape(-1), yg.reshape(-1)], axis=1)
    for k in range(res + 1):
        pts = np.concatenate([flat, np.full((flat.shape[0], 1), axes[2][k])], axis=1)
        vals[:, :, k] = np.asarray(field(pts), dtype=np.float64).reshape(res + 1, res + 1)
    return vals


def _cell_cases_3d(inside: np.ndarray, res: int) -> np.ndarray:
    case = np.zeros((res, res, res), dtype=np.int32)
    for c, (dx, dy, dz) in enumerate(_CORNERS):
        case |= inside[dx : dx + res, dy : dy + res, dz : dz + res].astype(np.int32) << c
    return case


def marching_cubes(field, box: Aabb, res: int) -> TriangleMesh:
    """Triangulate the field's zero level set over the box at res cells/axis."""
    if box.dim != 3:
        raise ValueError("marching_cubes needs a 3D box")
    vals = sample_grid(field, box, res)
    inside = vals < 0.0
    case = _cell_cases_3d(inside, res)
    active = np.argwhere((case != 0) & (case != 255))
    if active.shape[0] == 0:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.intp))

    lo = box.lo
    spacing = (box.hi - box.lo) / res
    n = res + 1

    # Face-center samples for cells with exactly one ambiguous face.
    pending: list[tuple[int, int, bool]] = []  # (active row, face idx, table verdict)
    centers = []
    for row, (i, j, k) in enumerate(active):
        amb = _AMB_INFO[case[i, j, k]]
        if len(amb) == 1:
            fi, verdict = amb[0]
            cx, cy, cz = _FACE_CENTERS[fi]
            pending.append((row, fi, verdict))
            centers.append((lo[0] + (i + cx) * spacing[0],
                            lo[1] + (j + cy) * spacing[1],
                            lo[2] + (k + cz) * spacing[2]))
    flip_rows: dict[int, int] = {}
    if pending:
        center_vals = np.asarray(field(np.asarray(centers)), dtype=np.float64)
        for (row, fi, verdict), cv in zip(pending, center_vals):
            want_connected = bool(cv < 0.0)
            if want_connected != verdict:
                i, j, k = active[row]
                comp = 255 ^ case[i, j, k]
                comp_amb = dict(_AMB_INFO[comp])
                if comp_amb.get(fi) == want_connected:
                    flip_rows[row] = comp

    def edge_id(axis: int, i: int, j: int, k: int) -> int:
        return ((axis * n + k) * n + j) * n + i

    # Local edge -> (axis, di, dj, dk) of the grid edge's low corner.
    edge_map = (
        (0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0),
        (0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
        (2, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0), (2, 0, 1, 0),
    )
    axis_step = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    vert_of_edge: dict[int, int] = {}
    verts: list[tuple[float, float, float]] = []
    tris: list[tuple[int, int, int]] = []

    def vertex_on(e: int, i: int, j: int, k: int) -> int:
        axis, di, dj, dk = edge_map[e]
        ia, ja, ka = i + di, j + dj, k + dk
        gid = edge_id(axis, ia, ja, ka)
        found = vert_of_edge.get(gid)
        if found is not None:
            return found
        sx, sy, sz = axis_step[axis]
        va = float(vals[ia, ja, ka])
        vb = float(vals[ia + sx, ja + sy, ka + sz])
        t = 0.5 if va == vb else va / (va - vb)
        px = lo[0] + (ia + t * sx) * spacing[0]
        py = lo[1] + (ja + t * sy) * spacing[1]
        pz = lo[2] + (ka + t * sz) * spacing[2]
        idx = len(verts)
        verts.append((px, py, pz))
        vert_of_edge[gid] = idx
        return idx

    for row, (i, j, k) in enumerate(active):
        comp = flip_rows.get(row)
        table = CUBE_TRIANGLES[comp if comp is not None else case[i, j, k]]
        for t0 in range(0, len(table), 3):
            ea, eb, ec = table[t0 : t0 + 3]
            if comp is None:
                # The classic tables wind for inward normals; we want normals
                # pointing where the field increases.  Complement-table cells
                # stay as-is: the case inversion flips them once already.
                eb, ec = ec, eb
            va = vertex_on(ea, i, j, k)
            vb = vertex_on(eb, i, j, k)
            vc = vertex_on(ec, i, j, k)
            tris.append((va, vb, vc))

    v = np.asarray(verts, dtype=np.float64)
    t = np.asarray(tris, dtype=np.intp).reshape(-1, 3)
    # Drop degenerate triangles, then unused vertices.
    if t.shape[0]:
        e1 = v[t[:, 1]] - v[t[:, 0]]
        e2 = v[t[:, 2]] - v[t[:, 0]]
        area2 = np.linalg.norm(np.cross(e1, e2), axis=1)
        t = t[area2 > 2.0 * MIN_TRI_AREA]
    used = np.unique(t) if t.size else np.empty(0, dtype=np.intp)
    remap = np.full(v.shape[0], -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    return TriangleMesh(v[used], remap[t] if t.size else t)


# Marching squares: corners c0=(i,j) c1=(i+1,j) c2=(i+1,j+1) c3=(i,j+1);
# edges 0 bottom, 1 right, 2 top, 3 left.  Cases 5 and 10 are the saddles.
_SQ_SEGMENTS = {
    0: (), 15: (),
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((2, 0),),
    11: ((2, 1),), 12: ((1, 3),), 13: ((1, 0),), 14: ((0, 3),),
}
_SQ_SADDLE = {
    5: {True: ((3, 2), (1, 0)), False: ((3, 0), (1, 2))},
    10: {True: ((0, 3), (2, 1)), False: ((0, 1), (2, 3))},
}


def marching_squares(field, box: Aabb, res: int) -> PolylineSet:
    """Extract the zero contour of a 2D field as indexed segments."""
    if box.dim != 2:
        raise ValueError("marching_squares needs a 2D box")
    vals = sample_grid(field, box, res)
    inside = vals < 0.0
    case = np.zeros((res, res), dtype=np.int32)
    for c, (dx, dy) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
        case |= inside[dx : dx + res, dy : dy + res].astype(np.int32) << c
    active = np.argwhere((case != 0) & (case != 15))
    if active.shape[0] == 0:
        return PolylineSet(np.empty((0, 2)), np.empty((0, 2), dtype=np.intp))

    lo = box.lo
    spacing = (box.hi - box.lo) / res
    n = res + 1

    saddles = [row for row, (i, j) in enumerate(active) if case[i, j] in _SQ_SADDLE]
    saddle_inside: dict[int, bool] = {}
    if saddles:
        pts = np.asarray(
            [(lo[0] + (active[r][0] + 0.5) * spacing[0], lo[1] + (active[r][1] + 0.5) * spacing[1])
             for r in saddles]
        )
        cv = np.asarray(field(pts), dtype=np.float64)
        saddle_inside = {r: bool(c < 0.0) for r, c in zip(saddles, cv)}

    # Local edge -> (axis, di, dj); axis 0 horizontal, 1 vertical.
    edge_map = ((0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0))
    axis_step = ((1, 0), (0, 1))

    vert_of_edge: dict[int, int] = {}
    verts: list[tuple[float, float]] = []
    segs: list[tuple[int, int]] = []

    def vertex_on(e: int, i: int, j: int) -> int:
        axis, di, dj = edge_map[e]
        ia, ja = i + di, j + dj
        gid = (axis * n + ja) * n + ia
        found = vert_of_edge.get(gid)
        if found is not None:
            return found
        sx, sy = axis_step[axis]
        va = float(vals[ia, ja])
        vb = float(vals[ia + sx, ja + sy])
        t = 0.5 if va == vb else va / (va - vb)
        idx = len(verts)
        verts.append((lo[0] + (ia + t * sx) * spacing[0], lo[1] + (ja + t * sy) * spacing[1]))
        vert_of_edge[gid] = idx
        return idx

    for row, (i, j) in enumerate(active):
        c = case[i, j]
        pieces = _SQ_SADDLE[c][saddle_inside[row]] if c in _SQ_SADDLE else _SQ_SEGMENTS[c]
        for ea, eb in pieces:
            a = vertex_on(ea, i, j)
            b = vertex_on(eb, i, j)
            if a != b:
                segs.append((a, b))

    v = np.asarray(verts, dtype=np.float64).reshape(-1, 2)
    s = np.asarray(segs, dtype=np.intp).reshape(-1, 2)
    return PolylineSet(v, s)
