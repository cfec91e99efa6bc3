"""Zero-isosurface extraction: marching cubes (3D) and marching squares (2D).

The field is evaluated on a regular grid over an axis-aligned box; cells whose
corner signs differ emit geometry, with crossing positions linearly
interpolated along cell edges.  Both run one vectorized table walk: each
active cell's table row is gathered at once, a grid edge shared by several
cells maps to one global edge id so the output is indexed and watertight, and
vertices are numbered in order of first use over the cells in index order,
making the numbering deterministic.

Cubes use the classic 256-case table, ambiguous faces included.  Squares
resolve their two saddle cases by sampling the field at the cell center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc_tables import CUBE_TRIANGLES
from .geom import Aabb

MIN_TRI_AREA = 1e-12


def _padded(rows) -> np.ndarray:
    """One int8 row per table entry, -1 past the entry's end."""
    out = np.full((len(rows), max(len(r) for r in rows)), -1, dtype=np.int8)
    for c, r in enumerate(rows):
        out[c, : len(r)] = r
    return out


# Cube corner offsets; see _mc_tables for the corner and edge numbering.
_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
# Local edge -> (axis, di, dj, dk) of the grid edge's low corner.
_CUBE_EDGES = (
    (0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0),
    (0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
    (2, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0), (2, 0, 1, 0),
)
# The classic table winds for inward normals; swapping each triangle's last
# two edges makes normals point where the field increases.
_CUBE_TABLE = _padded(
    [sum(((a, c, b) for a, b, c in zip(r[0::3], r[1::3], r[2::3])), ()) for r in CUBE_TRIANGLES]
)

# Marching squares: corners c0=(i,j) c1=(i+1,j) c2=(i+1,j+1) c3=(i,j+1);
# edges 0 bottom, 1 right, 2 top, 3 left.  Cases 5 and 10 are the saddles:
# their rows here hold the pairing for a center outside the level set, rows
# 16 and 17 the pairing for a center inside.
_SQ_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
_SQ_EDGES = ((0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0))
_SQ_TABLE = _padded([
    (), (3, 0), (0, 1), (3, 1), (1, 2), (3, 0, 1, 2), (0, 2), (3, 2),
    (2, 3), (2, 0), (0, 1, 2, 3), (2, 1), (1, 3), (1, 0), (0, 3), (),
    (3, 2, 1, 0), (0, 3, 2, 1),
])


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


def _active_cells(vals: np.ndarray, res: int, corners) -> tuple[np.ndarray, tuple]:
    """Case codes (bit c set when corner c is inside) of the cells whose
    corners straddle the level set, and their index arrays in index order."""
    inside = vals < 0.0
    case = np.zeros((res,) * vals.ndim, dtype=np.uint8)
    for c, off in enumerate(corners):
        case |= inside[tuple(slice(d, d + res) for d in off)].astype(np.uint8) << c
    cells = np.nonzero((case != 0) & (case != (1 << len(corners)) - 1))
    return case[cells], cells


def _walk(vals, box: Aabb, res: int, active, rows, table, edges):
    """Vertices and flat vertex indices of the active cells' table rows.

    ``active`` holds the cells' index arrays, ``rows`` each cell's row of the
    padded ``table``, and ``edges`` maps a local edge to its axis and the
    offset of its low corner from the cell's.  The indices follow the rows in
    cell order; a grid edge's vertex is interpolated once.
    """
    n = res + 1
    m = vals.ndim
    edges = np.asarray(edges, dtype=np.intp)
    strides = n ** np.arange(m)
    # Global edge id: the axis, then the flat grid index of the low corner.
    edge_off = edges[:, 0] * n**m + edges[:, 1:] @ strides
    cell_off = sum(a * s for a, s in zip(active, strides))
    local = table[rows]
    cell, slot = np.nonzero(local >= 0)
    edge = local[cell, slot]
    del local, slot
    gid = cell_off[cell] + edge_off[edge]
    del cell_off
    # Number the distinct grid edges in order of first use.
    _, first, inverse = np.unique(gid, return_index=True, return_inverse=True)
    del gid
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    ids = rank[inverse]
    del inverse, rank
    head = first[order]
    cell, edge = cell[head], edges[edge[head]]
    corner = tuple(active[a][cell] + edge[:, 1 + a] for a in range(m))
    step = [edge[:, 0] == a for a in range(m)]
    va = vals[corner]
    vb = vals[tuple(c + s for c, s in zip(corner, step))]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(va == vb, 0.5, va / (va - vb))
    spacing = (box.hi - box.lo) / res
    verts = np.stack(
        [box.lo[a] + (corner[a] + t * step[a]) * spacing[a] for a in range(m)], axis=1
    )
    return verts, ids


def marching_cubes(field, box: Aabb, res: int) -> TriangleMesh:
    """Triangulate the field's zero level set over the box at res cells/axis."""
    if box.dim != 3:
        raise ValueError("marching_cubes needs a 3D box")
    vals = sample_grid(field, box, res)
    case, active = _active_cells(vals, res, _CORNERS)
    if case.size == 0:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.intp))
    v, t = _walk(vals, box, res, active, case, _CUBE_TABLE, _CUBE_EDGES)
    t = t.reshape(-1, 3)
    # Drop degenerate triangles, then unused vertices.
    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    t = t[np.linalg.norm(np.cross(e1, e2), axis=1) > 2.0 * MIN_TRI_AREA]
    used = np.unique(t)
    remap = np.full(v.shape[0], -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    return TriangleMesh(v[used], remap[t])


def marching_squares(field, box: Aabb, res: int) -> PolylineSet:
    """Extract the zero contour of a 2D field as indexed segments."""
    if box.dim != 2:
        raise ValueError("marching_squares needs a 2D box")
    vals = sample_grid(field, box, res)
    case, active = _active_cells(vals, res, _SQ_CORNERS)
    if case.size == 0:
        return PolylineSet(np.empty((0, 2)), np.empty((0, 2), dtype=np.intp))
    rows = case.astype(np.intp)
    saddle = (case == 5) | (case == 10)
    if saddle.any():
        spacing = (box.hi - box.lo) / res
        centers = np.stack(
            [box.lo[a] + (active[a][saddle] + 0.5) * spacing[a] for a in range(2)], axis=1
        )
        inside = np.asarray(field(centers), dtype=np.float64) < 0.0
        rows[saddle] = np.where(inside, 16 + (case[saddle] == 10), case[saddle])
    v, s = _walk(vals, box, res, active, rows, _SQ_TABLE, _SQ_EDGES)
    return PolylineSet(v, s.reshape(-1, 2))
