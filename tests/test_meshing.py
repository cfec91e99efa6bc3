import tracemalloc

import numpy as np
import pytest

from scanfield import meshing
from scanfield._mc_tables import CUBE_TRIANGLES
from scanfield.encoding import EncodingConfig
from scanfield.field import evaluate_batch, init_field
from scanfield.geom import Aabb
from scanfield.meshing import MIN_TRI_AREA, TriangleMesh, marching_cubes, pointwise, sample_grid

# ---------------------------------------------------------------------------
# Per-cell reference: one cell at a time with an edge-id dict, the reference
# that the vectorized table walk is checked against.  The cube walk also
# samples the field at the center of a cell's single ambiguous face and would
# switch to the complementary case when the table disagrees with the sample;
# test_face_center_sample_can_never_flip shows that switch never happens.

_CORNERS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
_EDGE_VERTS = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
               (0, 4), (1, 5), (2, 6), (3, 7))
# Faces as corner cycles (consecutive corners share an edge).
_FACES = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (3, 2, 6, 7), (0, 3, 7, 4), (1, 2, 6, 5))
_EDGE_OF = {frozenset(v): i for i, v in enumerate(_EDGE_VERTS)}
_FACE_EDGES = tuple(
    tuple(_EDGE_OF[frozenset((f[i], f[(i + 1) % 4]))] for i in range(4)) for f in _FACES
)
_FACE_CENTERS = tuple(
    tuple(sum(_CORNERS[c][a] for c in f) / 4.0 for a in range(3)) for f in _FACES
)


def _triangle_sides(case):
    tris = CUBE_TRIANGLES[case]
    sides = set()
    for t in range(0, len(tris), 3):
        a, b, c = tris[t : t + 3]
        sides |= {frozenset((a, b)), frozenset((b, c)), frozenset((c, a))}
    return sides


def _ambiguity_info():
    """Per case: list of (face index, True if the table keeps the inside
    corners of that face connected across it)."""
    info = [[] for _ in range(256)]
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


def _flips(case, fi, verdict, center_inside):
    """The complementary case the reference switches to, or None."""
    if center_inside == verdict:
        return None
    comp = 255 ^ case
    return comp if dict(_AMB_INFO[comp]).get(fi) == center_inside else None


def reference_cubes(field, box, res):
    """Per-cell marching cubes; returns the mesh and the face-center count."""
    vals = sample_grid(pointwise(field), box, res)
    inside = vals < 0.0
    case = np.zeros((res, res, res), dtype=np.int32)
    for c, (dx, dy, dz) in enumerate(_CORNERS):
        case |= inside[dx : dx + res, dy : dy + res, dz : dz + res].astype(np.int32) << c
    active = np.argwhere((case != 0) & (case != 255))
    if active.shape[0] == 0:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.intp)), 0
    lo = box.lo
    spacing = (box.hi - box.lo) / res
    n = res + 1

    pending, centers = [], []
    for row, (i, j, k) in enumerate(active):
        amb = _AMB_INFO[case[i, j, k]]
        if len(amb) == 1:
            fi, verdict = amb[0]
            cx, cy, cz = _FACE_CENTERS[fi]
            pending.append((row, fi, verdict))
            centers.append((lo[0] + (i + cx) * spacing[0],
                            lo[1] + (j + cy) * spacing[1],
                            lo[2] + (k + cz) * spacing[2]))
    flip_rows = {}
    if pending:
        center_vals = np.asarray(field(np.asarray(centers)), dtype=np.float64)
        for (row, fi, verdict), cv in zip(pending, center_vals):
            i, j, k = active[row]
            comp = _flips(case[i, j, k], fi, verdict, bool(cv < 0.0))
            if comp is not None:
                flip_rows[row] = comp

    # Local edge -> (axis, di, dj, dk) of the grid edge's low corner.
    edge_map = (
        (0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0),
        (0, 0, 0, 1), (1, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
        (2, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0), (2, 0, 1, 0),
    )
    axis_step = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    vert_of_edge, verts, tris = {}, [], []

    def vertex_on(e, i, j, k):
        axis, di, dj, dk = edge_map[e]
        ia, ja, ka = i + di, j + dj, k + dk
        gid = ((axis * n + ka) * n + ja) * n + ia
        found = vert_of_edge.get(gid)
        if found is not None:
            return found
        sx, sy, sz = axis_step[axis]
        va = float(vals[ia, ja, ka])
        vb = float(vals[ia + sx, ja + sy, ka + sz])
        t = 0.5 if va == vb else va / (va - vb)
        verts.append((lo[0] + (ia + t * sx) * spacing[0],
                      lo[1] + (ja + t * sy) * spacing[1],
                      lo[2] + (ka + t * sz) * spacing[2]))
        vert_of_edge[gid] = len(verts) - 1
        return len(verts) - 1

    for row, (i, j, k) in enumerate(active):
        comp = flip_rows.get(row)
        table = CUBE_TRIANGLES[comp if comp is not None else case[i, j, k]]
        for t0 in range(0, len(table), 3):
            ea, eb, ec = table[t0 : t0 + 3]
            if comp is None:
                # Outward winding; a complement-table cell is flipped already.
                eb, ec = ec, eb
            tris.append((vertex_on(ea, i, j, k), vertex_on(eb, i, j, k), vertex_on(ec, i, j, k)))

    v = np.asarray(verts, dtype=np.float64)
    t = np.asarray(tris, dtype=np.intp).reshape(-1, 3)
    if t.shape[0]:
        e1 = v[t[:, 1]] - v[t[:, 0]]
        e2 = v[t[:, 2]] - v[t[:, 0]]
        t = t[np.linalg.norm(np.cross(e1, e2), axis=1) > 2.0 * MIN_TRI_AREA]
    used = np.unique(t) if t.size else np.empty(0, dtype=np.intp)
    remap = np.full(v.shape[0], -1, dtype=np.intp)
    remap[used] = np.arange(used.size)
    return TriangleMesh(v[used], remap[t] if t.size else t), len(pending)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()



def sphere_field(pts):
    return np.linalg.norm(pts, axis=1) - 1.0


def edge_counts(triangles):
    edges = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0) + 1
    return edges


def test_sample_grid_layout():
    box = Aabb.cube(np.zeros(2), 1.0)
    vals = sample_grid(pointwise(lambda p: p[:, 0] + 10.0 * p[:, 1]), box, 4)
    assert vals.shape == (5, 5)
    # index order (x, y): first axis advances x
    assert vals[4, 0] == pytest.approx(1.0 + 10.0 * -1.0)
    assert vals[0, 4] == pytest.approx(-1.0 + 10.0)
    vals3 = sample_grid(pointwise(lambda p: p[:, 2]), Aabb.cube(np.zeros(3), 1.0), 2)
    assert vals3.shape == (3, 3, 3)
    np.testing.assert_allclose(vals3[:, :, 0], -1.0)
    np.testing.assert_allclose(vals3[:, :, 2], 1.0)
    with pytest.raises(ValueError):
        sample_grid(pointwise(lambda p: p[:, 0]), box, 1)


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))


def test_empty_mesh_when_level_set_absent():
    box = Aabb.cube(np.zeros(3), 1.0)
    mesh = marching_cubes(pointwise(lambda p: np.full(p.shape[0], 2.0)), box, 8)
    assert mesh.vertices.shape == (0, 3)
    assert mesh.triangles.shape == (0, 3)


def test_sphere_mesh_accuracy_and_topology():
    box = Aabb.cube(np.zeros(3), 2.0)
    mesh = marching_cubes(pointwise(sphere_field), box, 64)
    r = np.linalg.norm(mesh.vertices, axis=1)
    # error bound: one cell diagonal (4/64 * sqrt(3)/2 ~ 0.054); spec-level
    # slack is half the cell diagonal of the 2-unit box at res 64
    assert np.max(np.abs(r - 1.0)) < 0.108
    # closed 2-manifold: every edge shared by exactly two triangles
    counts = edge_counts(mesh.triangles)
    assert set(counts.values()) == {2}
    v = mesh.vertices.shape[0]
    e = len(counts)
    f = mesh.triangles.shape[0]
    assert v - e + f == 2  # genus-0 Euler characteristic
    # no unreferenced vertices survive pruning
    assert np.unique(mesh.triangles).size == v


def test_vertices_interpolate_between_corners():
    # Every output vertex lies on a lattice edge between corners of opposite
    # sign, so its field magnitude is below the larger corner magnitude.
    box = Aabb.cube(np.zeros(3), 2.0)
    res = 16
    mesh = marching_cubes(pointwise(sphere_field), box, res)
    h = 4.0 / res
    d = np.abs(sphere_field(mesh.vertices))
    # |D| at an interpolated vertex can't exceed the field change across one cell
    assert np.max(d) < np.sqrt(3.0) * h


def test_resolution_doubling_halves_error():
    box = Aabb.cube(np.zeros(3), 2.0)
    errs = []
    for res in (16, 32, 64):
        mesh = marching_cubes(pointwise(sphere_field), box, res)
        errs.append(np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)))
    assert errs[1] < 0.6 * errs[0]
    assert errs[2] < 0.6 * errs[1]


def test_triangles_wind_outward():
    # With distance increasing outward, right-hand-rule normals must point
    # along the gradient (away from the interior).
    box = Aabb.cube(np.zeros(3), 2.0)
    mesh = marching_cubes(pointwise(sphere_field), box, 24)
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    n = np.cross(b - a, c - a)
    centers = (a + b + c) / 3.0
    # for the unit sphere the outward direction is the center direction
    assert np.all(np.sum(n * centers, axis=1) > 0.0)


def blobs(p):
    d1 = np.linalg.norm(p - np.array([0.55, 0.0, 0.0]), axis=1) - 0.5
    d2 = np.linalg.norm(p + np.array([0.55, 0.0, 0.0]), axis=1) - 0.5
    return np.minimum(d1, d2)


def test_two_blob_mesh_is_manifold():
    # Two nearly touching spheres on coarse grids; at these resolutions no
    # cell has an ambiguous face, so this checks stitching, not saddles.
    box = Aabb.cube(np.zeros(3), 1.5)
    for res in (6, 7, 9, 11):
        mesh = marching_cubes(pointwise(blobs), box, res)
        counts = edge_counts(mesh.triangles)
        assert set(counts.values()) == {2}, res


def test_marching_cubes_rejects_2d_box():
    with pytest.raises(ValueError):
        marching_cubes(pointwise(sphere_field), Aabb.cube(np.zeros(2), 1.0), 8)


def quadric(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    a = a + a.T
    b = rng.normal(size=3)
    c = 0.3 * rng.normal()
    return lambda p: np.einsum("ni,ij,nj->n", p, a, p) + p @ b + c


@pytest.mark.parametrize(
    "field, half, res",
    [(sphere_field, 2.0, 8), (sphere_field, 2.0, 24)]
    + [(blobs, 1.5, res) for res in (6, 7, 9, 11)],
)
def test_cubes_match_per_cell_reference(field, half, res):
    box = Aabb.cube(np.zeros(3), half)
    want, _ = reference_cubes(field, box, res)
    got = marching_cubes(pointwise(field), box, res)
    assert_bitwise(got.vertices, want.vertices)
    assert_bitwise(got.triangles, want.triangles)


def test_cubes_match_reference_on_ambiguous_faces():
    box = Aabb.cube(np.zeros(3), 1.0)
    face_samples = 0
    for seed in range(20):
        want, samples = reference_cubes(quadric(seed), box, 7)
        face_samples += samples
        got = marching_cubes(pointwise(quadric(seed)), box, 7)
        assert_bitwise(got.vertices, want.vertices)
        assert_bitwise(got.triangles, want.triangles)
    assert face_samples > 0


def test_cubes_match_reference_on_a_network():
    net = init_field(seed=0, dim=3, hidden=16, hidden_layers=2, encoding=EncodingConfig(4))
    box = Aabb.cube(np.zeros(3), 1.0)
    field = lambda p: evaluate_batch(net, p)  # noqa: E731
    want, _ = reference_cubes(field, box, 16)
    got = marching_cubes(pointwise(field), box, 16)
    assert got.triangles.shape[0] > 0
    assert_bitwise(got.vertices, want.vertices)
    assert_bitwise(got.triangles, want.triangles)


def test_face_center_sample_can_never_flip():
    # Every case with one ambiguous face separates that face's inside corners,
    # and for neither sign of the face-center sample does the complementary
    # case offer the other pairing, so the reference never switches tables.
    single = [(case, amb[0]) for case, amb in enumerate(_AMB_INFO) if len(amb) == 1]
    assert len(single) == 72
    for case, (fi, verdict) in single:
        assert verdict is False
        for center_inside in (False, True):
            assert _flips(case, fi, verdict, center_inside) is None


# ---------------------------------------------------------------------------
# The walk goes one x-slab of cells at a time and carries only the vertices on
# the face a slab shares with the next one; these cases sit on slab boundaries.


def far_shells(p):
    # Two small spheres near the ends of the x axis: the slabs between them
    # have no active cell, so the walk carries an empty face across them.
    d1 = np.linalg.norm(p - np.array([0.7, 0.1, 0.0]), axis=1) - 0.2
    d2 = np.linalg.norm(p + np.array([0.7, 0.0, 0.1]), axis=1) - 0.2
    return np.minimum(d1, d2)


def x_cylinder(p):
    # No grid edge along x crosses the level set: every crossing lies on a
    # face between two slabs, and each slab after the first meets the
    # previous slab's vertices on their shared face.
    return np.hypot(p[:, 1] - 0.1, p[:, 2] + 0.05) - 0.6


@pytest.mark.parametrize(
    "field, res",
    [(far_shells, 16), (x_cylinder, 8), (x_cylinder, 13), (sphere_field, 2), (blobs, 2)],
    ids=["far-shells", "x-cylinder-8", "x-cylinder-13", "sphere-res2", "blobs-res2"],
)
def test_slab_boundaries_match_reference(field, res):
    box = Aabb.cube(np.zeros(3), 1.0 if field is not sphere_field else 2.0)
    want, _ = reference_cubes(field, box, res)
    got = marching_cubes(pointwise(field), box, res)
    assert got.triangles.shape[0] > 0
    assert_bitwise(got.vertices, want.vertices)
    assert_bitwise(got.triangles, want.triangles)


def test_far_shells_leave_middle_slabs_empty():
    mesh = marching_cubes(pointwise(far_shells), Aabb.cube(np.zeros(3), 1.0), 16)
    assert not np.any(np.abs(mesh.vertices[:, 0]) < 0.4)
    assert set(edge_counts(mesh.triangles).values()) == {2}


def test_x_cylinder_crossings_lie_on_slab_faces():
    res = 8
    mesh = marching_cubes(pointwise(x_cylinder), Aabb.cube(np.zeros(3), 1.0), res)
    grid_x = np.linspace(-1.0, 1.0, res + 1)
    assert np.all(np.isin(mesh.vertices[:, 0], grid_x))
    # Every slab face carries vertices, and faces shared by two slabs are
    # used from both sides: each vertex on an inner face is in some triangle
    # of the slab below it and some triangle of the slab above it.
    face = np.searchsorted(grid_x, mesh.vertices[:, 0])
    assert set(face) == set(range(res + 1))
    slab = face[mesh.triangles].min(axis=1)
    for f in range(1, res):
        on = np.flatnonzero(face == f)
        below = np.unique(mesh.triangles[slab == f - 1])
        above = np.unique(mesh.triangles[slab == f])
        assert np.all(np.isin(on, below)) and np.all(np.isin(on, above))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inside-below", "inside-above"])
def test_level_set_on_a_grid_plane(sign):
    # The field is exactly zero on the grid plane x = 0.25, which counts as
    # outside.  With the inside above the plane, every vertex of the slab
    # above lies on the face that slab shares with the slab below, which has
    # no active cell.
    box = Aabb.cube(np.zeros(3), 1.0)
    field = lambda p: sign * (p[:, 0] - 0.25)  # noqa: E731
    want, _ = reference_cubes(field, box, 8)
    got = marching_cubes(pointwise(field), box, 8)
    assert got.triangles.shape[0] == 2 * 8 * 8
    assert np.all(got.vertices[:, 0] == 0.25)
    assert_bitwise(got.vertices, want.vertices)
    assert_bitwise(got.triangles, want.triangles)


def waves(p):
    return np.sin(9.0 * p[:, 0]) * np.sin(9.0 * p[:, 1]) * np.sin(9.0 * p[:, 2]) + 0.1


def test_walk_memory_is_one_slab_beyond_grid_and_mesh():
    # A surface in nearly every slab: 37k faces at res 40.  Beyond the value
    # grid and the returned mesh, the traced peak is 0.70 MB: the slab walk,
    # which writes its vertices and faces into arrays sized before it starts.
    # It was 1.37 MB while the per-slab parts were concatenated at the end,
    # and 6.79 MB when every active cell's table slots were held at once.
    res = 40
    tracemalloc.start()
    try:
        mesh = marching_cubes(pointwise(waves), Aabb.cube(np.zeros(3), 1.0), res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.triangles.shape[0] > 30_000
    extra = peak - (res + 1) ** 3 * 8 - mesh.vertices.nbytes - mesh.triangles.nbytes
    assert extra < 1.0e6


def test_marching_cubes_samples_the_grid_once(monkeypatch):
    calls = []

    def counting(field, box, res):
        calls.append(res)
        return sample_grid(field, box, res)

    monkeypatch.setattr(meshing, "sample_grid", counting)
    mesh = marching_cubes(pointwise(sphere_field), Aabb.cube(np.zeros(3), 2.0), 12)
    assert calls == [12]
    assert mesh.triangles.shape[0] > 0


def _slice_grid(field, box, res):
    """The grid of a point function as the per-slice ``sample_grid`` built it:
    one call of all nodes in 2D, one call per z-slice in 3D."""
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


@pytest.mark.parametrize("field, box, res", [
    (sphere_field, Aabb.cube(np.zeros(3), 2.0), 24),
    (blobs, Aabb(np.array([-1.5, -0.7, -1.1]), np.array([1.4, 0.9, 1.3])), 11),
    (waves, Aabb.cube(np.zeros(3), 1.0), 17),
    (quadric(3), Aabb.cube(np.array([0.1, -0.2, 0.3]), 0.8), 9),
    (lambda p: np.hypot(p[:, 0] - 0.2, p[:, 1]) - 0.5, Aabb(np.array([-1.0, -0.6]), np.array([0.9, 1.2])), 30),
], ids=["sphere", "blobs", "waves", "quadric", "circle-2d"])
def test_pointwise_grid_equals_per_slice_grid_bitwise(field, box, res):
    assert_bitwise(sample_grid(pointwise(field), box, res), _slice_grid(field, box, res))


def test_sample_grid_hands_the_field_its_axes_once():
    calls = []

    def grid(axes):
        calls.append(axes)
        return np.add.outer(np.add.outer(axes[0], 10.0 * axes[1]), 100.0 * axes[2])

    box = Aabb(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0]))
    vals = sample_grid(grid, box, 4)
    assert len(calls) == 1 and isinstance(calls[0], tuple) and len(calls[0]) == 3
    for a in range(3):
        np.testing.assert_array_equal(calls[0][a], np.linspace(box.lo[a], box.hi[a], 5))
    assert vals.shape == (5, 5, 5)
    assert vals[4, 0, 0] == 1.0 + 200.0 and vals[0, 4, 4] == -1.0 + 5.0 + 300.0
