"""Zero-isosurface extraction by marching cubes.

The field is evaluated on a regular grid over an axis-aligned 3D box; cells
whose corner signs differ emit triangles from the classic 256-case table,
ambiguous faces included, with crossing positions linearly interpolated along
cell edges.  The table walk streams along the first grid axis, one slab of
cells between x = i and x = i+1 at a time: a grid edge maps to one global
edge id, and only the edges on the face a slab shares with the next one are
carried over, so the output is indexed and watertight.  Vertices are
numbered in order of first use over the cells in index order, making the
numbering deterministic.  Working memory is the value grid, one slab's table
rows and the output mesh.  ``sample_grid`` also grids 2D fields, for the
localization maps.
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
_CUBE_EDGES = np.array((
    (0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0),
    (0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
    (2, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0), (2, 0, 1, 0),
), dtype=np.intp)
# The classic table winds for inward normals; swapping each triangle's last
# two edges makes normals point where the field increases.
_CUBE_TABLE = _padded(
    [sum(((a, c, b) for a, b, c in zip(r[0::3], r[1::3], r[2::3])), ()) for r in CUBE_TRIANGLES]
)


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


def sample_grid(field, box: Aabb, res: int) -> np.ndarray:
    """Field values on the (res+1)^m grid over the box, index order x, y[, z].

    ``field`` is any vectorized callable mapping (N, m) points to (N,) values.
    In 3D the field sees one z-slice of (res+1)^2 points per call, so the
    evaluation's scratch memory stays one slice; the returned grid is whole,
    and ``marching_cubes`` walks it one x-slab at a time.
    """
    if res < 2:
        raise ValueError("need at least 2 cells per axis")
    m = box.dim
    axes = [np.linspace(box.lo[a], box.hi[a], res + 1) for a in range(m)]
    xg, yg = np.meshgrid(axes[0], axes[1], indexing="ij")
    flat = np.stack([xg.reshape(-1), yg.reshape(-1)], axis=1)
    if m == 2:
        return np.asarray(field(flat), dtype=np.float64).reshape(res + 1, res + 1)
    vals = np.empty((res + 1, res + 1, res + 1), dtype=np.float64)
    for k in range(res + 1):
        pts = np.concatenate([flat, np.full((flat.shape[0], 1), axes[2][k])], axis=1)
        vals[:, :, k] = np.asarray(field(pts), dtype=np.float64).reshape(res + 1, res + 1)
    return vals


def marching_cubes(field, box: Aabb, res: int) -> TriangleMesh:
    """Triangulate the field's zero level set over the box at res cells/axis."""
    if box.dim != 3:
        raise ValueError("marching_cubes needs a 3D box")
    vals = sample_grid(field, box, res)
    n = res + 1
    strides = n ** np.arange(3)
    # Global edge id: the axis, then the flat grid index of the low corner.
    edge_off = _CUBE_EDGES[:, 0] * n**3 + _CUBE_EDGES[:, 1:] @ strides
    spacing = (box.hi - box.lo) / res
    # Sorted ids and vertex numbers of the previous slab's edges on face x = i.
    face_gid, face_id = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    prev_v = np.empty((0, 3))
    # Empty first parts keep the concatenations valid when no cell is active.
    v_parts, t_parts = [prev_v], [np.empty((0, 3), dtype=np.intp)]
    n_verts = 0
    for i in range(res):
        inside = vals[i : i + 2] < 0.0
        case = np.zeros((res, res), dtype=np.uint8)
        for c, (dx, dy, dz) in enumerate(_CORNERS):
            case |= inside[dx, dy : dy + res, dz : dz + res].astype(np.uint8) << c
        active = np.nonzero((case != 0) & (case != 255))
        local = _CUBE_TABLE[case[active]]
        cell, slot = np.nonzero(local >= 0)
        edge = local[cell, slot]
        gid = i + active[0][cell] * n + active[1][cell] * n**2 + edge_off[edge]
        gids, first, inverse = np.unique(gid, return_index=True, return_inverse=True)
        pos = np.searchsorted(face_gid, gids)
        old = pos < face_gid.size
        old[old] = face_gid[pos[old]] == gids[old]
        # Edges not carried over are numbered in order of first use.
        new = np.flatnonzero(~old)
        new = new[np.argsort(first[new])]
        uid = np.empty(gids.size, dtype=np.intp)
        uid[old] = face_id[pos[old]]
        uid[new] = n_verts + np.arange(new.size)
        on_face = gids % n == i + 1  # only axis-1 and axis-2 edges reach x = i+1
        face_gid, face_id = gids[on_face], uid[on_face]
        head = first[new]
        e = _CUBE_EDGES[edge[head]]
        corner = (i + e[:, 1], active[0][cell[head]] + e[:, 2], active[1][cell[head]] + e[:, 3])
        step = [e[:, 0] == a for a in range(3)]
        va = vals[corner]
        vb = vals[tuple(c + s for c, s in zip(corner, step))]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(va == vb, 0.5, va / (va - vb))
        v = np.stack([box.lo[a] + (corner[a] + t * step[a]) * spacing[a] for a in range(3)], axis=1)
        # Drop degenerate triangles; their corners lie in this slab or the last,
        # whose first vertex is number n_verts - len(prev_v).
        tri = uid[inverse].reshape(-1, 3)
        near = np.concatenate([prev_v, v])[tri - (n_verts - len(prev_v))]
        area2 = np.linalg.norm(np.cross(near[:, 1] - near[:, 0], near[:, 2] - near[:, 0]), axis=1)
        v_parts.append(v)
        t_parts.append(tri[area2 > 2.0 * MIN_TRI_AREA])
        prev_v, n_verts = v, n_verts + new.size
    verts = np.concatenate(v_parts)
    del v_parts
    tris = np.concatenate(t_parts)
    del t_parts
    # Drop unused vertices, keeping the order of the rest.
    used = np.zeros(verts.shape[0], dtype=bool)
    used[tris] = True
    np.take(np.cumsum(used) - 1, tris, out=tris)
    return TriangleMesh(verts[used], tris)
