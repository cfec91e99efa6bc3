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
rows and the output mesh, held once: a pass over the grid's faces first
counts the crossing edges (one vertex each) and the table's triangles, and
each slab writes its part into arrays of that size.

``sample_grid`` grids 3D fields for the walk and 2D fields for the
localization maps.  It hands its field the grid's axes, one 1D array per
coordinate, in one call, and the field returns its values on their tensor
grid: ``field.evaluate_grid`` does that at separable cost.  ``pointwise``
adapts a function of (N, m) points, such as an analytic scene's ``sdf``,
calling it once per first-axis slice.
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
# Triangles per case.
_TRI_COUNT = np.array([len(r) // 3 for r in CUBE_TRIANGLES], dtype=np.intp)


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

    ``field`` is a grid function: called once, with the grid's m axes as one
    tuple argument of 1D arrays, it returns the values on their tensor grid
    in that index order, as ``field.evaluate_grid`` does.  ``pointwise``
    makes one of a function of (N, m) points.
    """
    if res < 2:
        raise ValueError("need at least 2 cells per axis")
    axes = tuple(np.linspace(box.lo[a], box.hi[a], res + 1) for a in range(box.dim))
    return np.asarray(field(axes), dtype=np.float64).reshape((res + 1,) * box.dim)


def pointwise(f):
    """The grid function of ``f``, a vectorized callable mapping (N, m)
    points to (N,) values, for ``sample_grid``.  It calls ``f`` once per
    first-axis slice, with that slice's nodes in index order, so its scratch
    memory stays one slice."""

    def grid(axes):
        rest = np.meshgrid(*axes[1:], indexing="ij")
        pts = np.empty((rest[0].size, len(axes)))
        for j, r in enumerate(rest, 1):
            pts[:, j] = r.reshape(-1)
        out = np.empty([len(a) for a in axes])
        for i, x in enumerate(axes[0]):
            pts[:, 0] = x
            out[i] = np.asarray(f(pts), dtype=np.float64).reshape(out.shape[1:])
        return out

    return grid


def _cases(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The (res, res) case codes of one slab of cells, from the inside flags
    of its two faces, in (j, k) C order."""
    inside = (below, above)
    res = below.shape[0] - 1
    case = np.zeros((res, res), dtype=np.uint8)
    for c, (dx, dy, dz) in enumerate(_CORNERS):
        case |= inside[dx][dy : dy + res, dz : dz + res].astype(np.uint8) << c
    return case


def _sizes(vals: np.ndarray) -> tuple[int, int]:
    """Bounds on the walk's output: the grid edges whose ends differ in sign,
    each the home of at most one vertex, and the table's triangles over all
    cells, degenerate ones included.  One face of inside flags at a time."""
    n_edges = n_tris = 0
    below = None
    for plane in vals:
        above = plane < 0.0
        n_edges += np.count_nonzero(above[1:] != above[:-1])
        n_edges += np.count_nonzero(above[:, 1:] != above[:, :-1])
        if below is not None:
            n_edges += np.count_nonzero(above != below)
            n_tris += int(_TRI_COUNT[_cases(below, above)].sum())
        below = above
    return n_edges, n_tris


def marching_cubes(field, box: Aabb, res: int) -> TriangleMesh:
    """Triangulate the field's zero level set over the box at res cells/axis.

    ``field`` is a grid function, as ``sample_grid`` takes."""
    if box.dim != 3:
        raise ValueError("marching_cubes needs a 3D box")
    vals = sample_grid(field, box, res)
    n = res + 1
    strides = n ** np.arange(3)
    # Global edge id: the axis, then the flat grid index of the low corner.
    edge_off = _CUBE_EDGES[:, 0] * n**3 + _CUBE_EDGES[:, 1:] @ strides
    spacing = (box.hi - box.lo) / res
    # Each slab writes its part of the mesh in place; the sizes are bounds.
    max_verts, max_tris = _sizes(vals)
    verts = np.empty((max_verts, 3))
    tris = np.empty((max_tris, 3), dtype=np.intp)
    n_verts = n_tris = 0
    # Sorted ids and vertex numbers of the previous slab's edges on face x = i.
    face_gid, face_id = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    below = vals[0] < 0.0
    for i in range(res):
        above = vals[i + 1] < 0.0
        case = _cases(below, above)
        below = above
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
        # A crossing edge joins v < 0 to v >= 0 or NaN, so va - vb is never 0;
        # an infinite grid value can still make inf / inf.
        with np.errstate(invalid="ignore"):
            t = va / (va - vb)
        for a in range(3):
            verts[n_verts : n_verts + new.size, a] = box.lo[a] + (corner[a] + t * step[a]) * spacing[a]
        n_verts += new.size
        # Drop degenerate triangles.
        tri = uid[inverse].reshape(-1, 3)
        near = verts[tri]
        area2 = np.linalg.norm(np.cross(near[:, 1] - near[:, 0], near[:, 2] - near[:, 0]), axis=1)
        kept = tri[area2 > 2.0 * MIN_TRI_AREA]
        tris[n_tris : n_tris + kept.shape[0]] = kept
        n_tris += kept.shape[0]
    verts, tris = verts[:n_verts], tris[:n_tris]
    # Drop unused vertices, keeping the order of the rest; only a degenerate
    # triangle leaves one, so the mesh is usually returned as written.
    used = np.zeros(n_verts, dtype=bool)
    used[tris] = True
    if not used.all():
        np.take(np.cumsum(used) - 1, tris, out=tris)
        verts = verts[used]
    return TriangleMesh(verts, tris)
