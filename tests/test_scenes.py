import math

import numpy as np
import pytest

from scanfield.geom import Aabb, Pose
from scanfield.scenes import (
    LINE_FORMS,
    AnalyticScene,
    Box,
    Plane,
    ScannerConfig,
    Sphere,
    band_sample,
    beam_directions,
    parse_scene_text,
    scene_bounds,
    simulate_scan,
    sphere_trace,
)


def unit_sphere():
    return AnalyticScene((Sphere(np.zeros(3), 1.0),))


def test_sphere_jet_anchor():
    v, g, lap, ghg = unit_sphere().jet(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(v, [1.0, -1.0])
    np.testing.assert_allclose(g, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    # H = diag(0, 1/2, 1/2) at distance 2 from the center; zero at the center
    np.testing.assert_allclose(lap, [1.0, 0.0])
    np.testing.assert_array_equal(ghg, [0.0, 0.0])


def test_union_takes_min():
    scene = AnalyticScene((Sphere(np.zeros(2), 1.0), Sphere(np.array([4.0, 0.0]), 1.0)))
    assert scene.sdf(np.array([[3.5, 0.0]]))[0] == -0.5
    assert scene.sdf(np.array([[2.0, 0.0]]))[0] == 1.0
    # tie at the midpoint: lowest primitive index wins
    assert scene.active_index(np.array([[2.0, 0.0]]))[0] == 0


def test_box_corner_distance():
    box = Box(np.zeros(3), np.array([1.0, 1.0, 1.0]))
    q = np.array([2.0, 2.0, 2.0])
    assert abs(box.sdf(q)[0] - math.sqrt(3.0)) < 1e-12


def test_box_against_projection():
    # Outside distance equals the distance to the clamped point; inside equals
    # minus the smallest face deficit.  Independent of the q-decomposition.
    box = Box(np.array([0.5, -0.25, 0.0]), np.array([1.0, 0.7, 0.4]))
    lo, hi = box.center - box.half, box.center + box.half
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.5, 3.0, size=(500, 3))
    d = box.sdf(pts)
    proj = np.clip(pts, lo, hi)
    out = np.linalg.norm(pts - proj, axis=1)
    deficits = np.minimum(hi - pts, pts - lo)
    inside = np.all(deficits > 0.0, axis=1)
    expect = np.where(inside, -np.min(deficits, axis=1), out)
    np.testing.assert_allclose(d, expect, atol=1e-3)


def test_plane_inputs_are_normalized():
    p = Plane(np.array([0.0, 2.0]), 4.0)
    np.testing.assert_allclose(p.normal, [0.0, 1.0])
    assert p.offset == 2.0
    assert abs(p.sdf(np.array([7.0, 5.0]))[0] - 3.0) < 1e-12
    with pytest.raises(ValueError):
        Plane(np.zeros(2), 1.0)


def test_gradients_are_unit_at_smooth_points():
    scene = AnalyticScene(
        (
            Sphere(np.array([2.0, 0.0, 0.0]), 1.0),
            Box(np.array([-2.0, 0.0, 0.0]), np.array([0.5, 0.5, 0.5])),
            Plane(np.array([0.0, 0.0, 1.0]), -3.0),
        )
    )
    rng = np.random.default_rng(8)
    pts = rng.uniform(-3.0, 3.0, size=(400, 3))
    _, grads, _, _ = scene.jet(pts)
    norms = np.linalg.norm(grads, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_jet_matches_finite_differences_at_smooth_points():
    scene = AnalyticScene(
        (
            Sphere(np.array([1.5, 0.5, -0.5]), 1.0),
            Box(np.array([-1.5, 0.0, 0.5]), np.array([0.6, 0.8, 0.4])),
        )
    )
    rng = np.random.default_rng(21)
    pts = rng.uniform(-3.0, 3.0, size=(300, 3))
    # Keep the points where the jet agrees with itself one step r away along
    # every axis: the gradient's second difference is O(r^2) where the field
    # is smooth, while within r of a crease, corner, seam or curvature jump
    # the active feature changes and finite differences straddle two pieces.
    _, g0, _, _ = scene.jet(pts)
    r = 1e-2
    keep = np.ones(pts.shape[0], dtype=bool)
    for e in np.eye(3):
        _, gp, _, _ = scene.jet(pts + r * e)
        _, gm, _, _ = scene.jet(pts - r * e)
        keep &= np.linalg.norm(gp + gm - 2.0 * g0, axis=1) < 1e-3
    assert keep.sum() >= 290
    pts = pts[keep]
    vals, grads, lap, ghg = scene.jet(pts)
    h = 1e-5

    def second_difference(step):
        return (scene.sdf(pts + step) - 2 * vals + scene.sdf(pts - step)) / h**2

    g_fd = np.stack([(scene.sdf(pts + h * e) - scene.sdf(pts - h * e)) / (2 * h)
                     for e in np.eye(3)], axis=1)
    lap_fd = sum(second_difference(h * e) for e in np.eye(3))
    ghg_fd = second_difference(h * grads)  # along the unit gradient
    np.testing.assert_array_less(np.linalg.norm(grads - g_fd, axis=1), 1e-6)
    # second differences at h=1e-5 carry ~1e-6 rounding noise of their own
    np.testing.assert_array_less(np.abs(lap - lap_fd), 1e-4 * np.maximum(1.0, np.abs(lap_fd)))
    np.testing.assert_array_less(np.abs(ghg - ghg_fd), 1e-4)
    assert np.any(lap > 0.5)  # curved points are among those checked


def test_sphere_trace_lands_on_surface():
    scene = unit_sphere()
    rng = np.random.default_rng(17)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = -3.0 * dirs  # all aimed through the center
    hit, t = sphere_trace(scene, origins, dirs, max_range=10.0)
    assert np.all(hit)
    landed = origins + t[:, None] * dirs
    assert np.max(np.abs(scene.sdf(landed))) <= 1e-12
    np.testing.assert_allclose(t, 2.0, rtol=0.0, atol=1e-12)


def test_beam_directions_2d_headings():
    cfg = ScannerConfig(beams=1, fov=0.5)
    d = beam_directions(cfg, 2)
    np.testing.assert_allclose(d, [[1.0, 0.0]], atol=1e-15)
    full = beam_directions(ScannerConfig(beams=8, fov=2.0 * math.pi), 2)
    np.testing.assert_allclose(np.linalg.norm(full, axis=1), 1.0)
    # bin centers never duplicate the wrap-around direction
    assert np.unique(np.round(full, 12), axis=0).shape[0] == 8


def test_beam_directions_3d_cap():
    cfg = ScannerConfig(beams=64, fov=1.0)
    d = beam_directions(cfg, 3)
    np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0)
    assert np.all(d[:, 0] >= math.cos(0.5) - 1e-12)  # inside the half-angle cap


def test_head_on_beam_range():
    scene = AnalyticScene((Sphere(np.array([3.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=1, fov=0.1, max_range=10.0)
    (scan,) = simulate_scan(scene, [Pose(np.eye(2), np.zeros(2))], cfg, np.random.default_rng(0))
    assert scan.points.shape == (1, 2)
    np.testing.assert_allclose(scan.points[0], [2.0, 0.0], atol=1e-5)


def test_scan_drops_misses():
    scene = AnalyticScene((Sphere(np.array([3.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=16, fov=2.0 * math.pi, max_range=10.0)
    (scan,) = simulate_scan(scene, [Pose(np.eye(2), np.zeros(2))], cfg, np.random.default_rng(0))
    assert 0 < scan.points.shape[0] < 16  # rear beams escape


def test_scan_requires_free_space_pose():
    scene = unit_sphere()
    with pytest.raises(ValueError, match="free space"):
        simulate_scan(scene, [Pose(np.eye(3), np.zeros(3))], ScannerConfig(beams=4),
                      np.random.default_rng(0))


def test_scan_errors_when_nothing_hit():
    scene = AnalyticScene((Sphere(np.array([50.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=8, fov=0.5, max_range=5.0)
    with pytest.raises(ValueError, match="missed"):
        simulate_scan(scene, [Pose.from_xytheta(0.0, 0.0, math.pi)], cfg, np.random.default_rng(0))


def test_scan_noise_is_seed_deterministic():
    scene = AnalyticScene((Sphere(np.array([3.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=8, fov=1.0, max_range=10.0, noise_sigma=0.05)
    poses = [Pose(np.eye(2), np.zeros(2))]
    (a,) = simulate_scan(scene, poses, cfg, np.random.default_rng(4))
    (b,) = simulate_scan(scene, poses, cfg, np.random.default_rng(4))
    assert np.array_equal(a.points, b.points)
    (c,) = simulate_scan(scene, poses, cfg, np.random.default_rng(5))
    assert not np.array_equal(a.points, c.points)


# A 3D room with a sphere and a box, and a 2D room with a cut corner: an
# oblique plane, whose ``sdf`` (``p @ normal``) rounds rows by their batch
# position but whose ``hit`` does not.
ROOM3D = """
plane 1 0 0 -4
plane -1 0 0 -4
plane 0 1 0 -4
plane 0 -1 0 -4
plane 0 0 1 -2
plane 0 0 -1 -2.5
sphere 0 0 0 1
box 2.6 -2.6 -1.5 0.7 0.7 0.5
"""
ROOM2D = """
plane 1 0 -4
plane -1 0 -4
plane 0 1 -4
plane 0 -1 -4
plane 1 1 -5.2
box 1.5 1.5 0.6 0.6
circle -1.5 -1 0.8
"""


@pytest.mark.parametrize("text", [ROOM3D, ROOM2D])
def test_union_reduces_like_the_per_point_table(text):
    # The union reduces a (primitives, N) table over its rows; reduced per
    # point over an (N, primitives) table instead, min and argmin give the
    # same bits and the same first index on ties, which the lattice points
    # make: a point on a diagonal between two walls is as far from each.
    scene = parse_scene_text(text)
    rng = np.random.default_rng(12)
    lattice = np.stack(np.meshgrid(*[np.arange(-5.0, 5.5, 0.5)] * scene.dim, indexing="ij"), axis=-1)
    pts = np.concatenate([rng.uniform(-5, 5, size=(5000, scene.dim)), lattice.reshape(-1, scene.dim)])
    table = np.stack([p.sdf(pts) for p in scene.primitives], axis=1)
    assert np.array_equal(scene.sdf(pts), np.min(table, axis=1))
    assert np.array_equal(scene.active_index(pts), np.argmin(table, axis=1))
    assert np.sum(table == np.min(table, axis=1)[:, None], axis=1).max() >= 2


def orbit_poses(dim, radius, steps, start=0.3):
    ang = start + 2.0 * math.pi * np.arange(steps) / steps
    return [Pose.from_xytheta(radius * math.cos(a), radius * math.sin(a), a + math.pi, dim)
            for a in ang]


@pytest.mark.parametrize("text, radius, beams", [(ROOM3D, 2.5, 128), (ROOM2D, 3.2, 64)])
def test_one_call_scans_like_one_call_per_pose(text, radius, beams):
    scene = parse_scene_text(text)
    cfg = ScannerConfig(beams=beams, fov=2.0 * math.pi)
    poses = orbit_poses(scene.dim, radius, 12)
    batched = simulate_scan(scene, poses, cfg, np.random.default_rng(0))
    assert len(batched) == len(poses) and all(s.pose is p for s, p in zip(batched, poses))
    for pose, got in zip(poses, batched):
        (alone,) = simulate_scan(scene, [pose], cfg, np.random.default_rng(0))
        assert np.array_equal(got.points, alone.points)


def test_one_call_draws_noise_like_consecutive_calls():
    scene = parse_scene_text(ROOM2D)
    cfg = ScannerConfig(beams=32, noise_sigma=0.05)
    poses = orbit_poses(2, 3.2, 5)
    batched = simulate_scan(scene, poses, cfg, np.random.default_rng(3))
    shared = np.random.default_rng(3)
    for pose, got in zip(poses, batched):
        (alone,) = simulate_scan(scene, [pose], cfg, shared)
        assert np.array_equal(got.points, alone.points)


# The sphere-tracing march that the scanner ran before its closed-form cast,
# kept as an independent oracle: step along each ray by TRACE_SAFETY times the
# scene distance until it is below TRACE_EPS or the ray passes max range.
TRACE_EPS = 1e-6
TRACE_SAFETY = 0.99
TRACE_MAX_STEPS = 10_000


def march(scene, origins, directions, max_range):
    """(hit mask, range) of each ray by marching; stops up to TRACE_EPS short."""
    n = origins.shape[0]
    t = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    for _ in range(TRACE_MAX_STEPS):
        if not np.any(alive):
            break
        idx = np.flatnonzero(alive)
        d = scene.sdf(origins[idx] + t[idx, None] * directions[idx])
        close = np.abs(d) < TRACE_EPS
        hit[idx[close]] = True
        alive[idx[close]] = False
        rest = idx[~close]
        t[rest] += TRACE_SAFETY * d[~close]
        alive[rest[t[rest] > max_range]] = False
    assert not np.any(alive), "the march did not finish"
    return hit, t


def assert_cast_matches_march(scene, origins, dirs, max_range):
    """Same hits as the march, ranges within 1e-4 m, endpoints on the surface."""
    t = scene.hit(origins, dirs)
    hit = t <= max_range
    march_hit, march_t = march(scene, origins, dirs, max_range)
    assert np.array_equal(hit, march_hit)
    np.testing.assert_allclose(t[hit], march_t[hit], rtol=0.0, atol=1e-4)
    landed = origins[hit] + t[hit, None] * dirs[hit]
    assert np.max(np.abs(scene.sdf(landed))) <= 1e-12
    return hit


@pytest.mark.parametrize("start", [0.0, 0.3, 1.9, 4.4])
@pytest.mark.parametrize("text, radius, beams", [(ROOM3D, 2.5, 128), (ROOM2D, 3.2, 64)],
                         ids=["room3d", "room2d"])
def test_cast_matches_the_march_on_room_orbits(text, radius, beams, start):
    scene = parse_scene_text(text)
    poses = orbit_poses(scene.dim, radius, 8, start)
    fan = beam_directions(ScannerConfig(beams=beams), scene.dim)
    origins = np.repeat([p.translation for p in poses], beams, axis=0)
    dirs = np.concatenate([fan @ p.rotation.T for p in poses])
    assert np.all(assert_cast_matches_march(scene, origins, dirs, max_range=100.0))


def random_scene(dim, rng):
    """A floor, one oblique wall, two boxes and two circles or spheres, open
    on the other sides so that some beams escape."""
    floor = Plane(-np.eye(dim)[dim - 1], -2.0)  # solid where the last coordinate > 2
    wall = Plane(np.r_[1.0, 0.5, np.zeros(dim - 2)], -3.0)  # oblique
    boxes = [Box(rng.uniform(-1.5, 1.5, dim), rng.uniform(0.2, 0.6, dim)) for _ in range(2)]
    balls = [Sphere(rng.uniform(-1.5, 1.5, dim), rng.uniform(0.2, 0.6)) for _ in range(2)]
    return AnalyticScene((floor, wall, *boxes, *balls))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cast_matches_the_march_on_random_scenes(dim, seed):
    rng = np.random.default_rng(seed)
    scene = random_scene(dim, rng)
    origins = rng.uniform(-2.5, 2.0, size=(4000, dim))
    origins = origins[scene.sdf(origins) > 0.25][:1500]
    dirs = rng.normal(size=origins.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    hit = assert_cast_matches_march(scene, origins, dirs, max_range=6.0)
    assert 0 < hit.sum() < hit.size  # hits and misses are both checked


def test_beam_parallel_to_a_plane_misses():
    for dim in (2, 3):
        plane = Plane(np.eye(dim)[1], 0.0)  # the solid is y < 0
        origins = np.eye(dim)[[1, 1]]  # one metre above it
        dirs = np.eye(dim)[[0, 0]] * [[1.0], [-1.0]]
        assert np.array_equal(plane.hit(origins, dirs), [np.inf, np.inf])


def test_beam_along_a_box_face_touches_it():
    # the origin lies on the plane of the face y = 1 that the beam runs along:
    # that slab's entry is 0 / 0, decided by where the origin lies instead
    for dim in (2, 3):
        box = Box(np.zeros(dim), np.ones(dim))
        x, y = np.eye(dim)[0], np.eye(dim)[1]
        origins = np.array([-3.0 * x + y, -3.0 * x + y, -3.0 * x + (1.0 + 1e-9) * y, 3.0 * y])
        dirs = np.array([x, -x, x, -y])
        assert np.array_equal(box.hit(origins, dirs), [2.0, np.inf, np.inf, 2.0])
    # along an edge of a 3D box, and along its face plane beside it
    box = Box(np.zeros(3), np.ones(3))
    assert np.array_equal(box.hit(np.array([[-3.0, 1.0, 1.0], [-3.0, 1.0, 1.5]]),
                                  np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])), [2.0, np.inf])


def test_tangent_beams_touch_a_circle_and_a_sphere():
    circle = Sphere(np.zeros(2), 1.0)
    t = circle.hit(np.array([[-3.0, 1.0], [-3.0, 1.0 + 1e-9]]), np.array([[1.0, 0.0]] * 2))
    assert np.array_equal(t, [3.0, np.inf])
    sphere = Sphere(np.zeros(3), 1.0)
    t = sphere.hit(np.array([[-3.0, 0.0, 1.0], [-3.0, 0.0, 1.0]]),
                   np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    assert np.array_equal(t, [3.0, np.inf])


def test_beams_pointing_away_from_everything_are_dropped():
    scene = AnalyticScene((Plane(np.array([-1.0, 0.0]), -5.0),  # solid x > 5
                           Sphere(np.array([2.0, 0.0]), 1.0),
                           Box(np.array([3.0, 0.0]), np.array([0.5, 3.0]))))
    away = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-0.6, 0.8]])
    assert np.array_equal(scene.hit(np.zeros((4, 2)), away), np.full(4, np.inf))
    cfg = ScannerConfig(beams=16, max_range=10.0)
    (scan,) = simulate_scan(scene, [Pose(np.eye(2), np.zeros(2))], cfg, np.random.default_rng(0))
    assert 0 < scan.points.shape[0] < 16
    assert np.all(scan.points[:, 0] > 0.0)  # only forward beams come back


def test_hit_at_max_range_is_kept_and_beyond_it_dropped():
    scene = AnalyticScene((Plane(np.array([-1.0, 0.0]), -5.0),))  # solid x > 5
    pose = [Pose(np.eye(2), np.zeros(2))]
    cfg = ScannerConfig(beams=1, fov=0.1, max_range=5.0)
    (scan,) = simulate_scan(scene, pose, cfg, np.random.default_rng(0))
    assert np.array_equal(scan.points, [[5.0, 0.0]])
    short = ScannerConfig(beams=1, fov=0.1, max_range=math.nextafter(5.0, 0.0))
    with pytest.raises(ValueError, match="missed"):
        simulate_scan(scene, pose, short, np.random.default_rng(0))


def test_free_space_error_names_the_blocked_pose():
    scene = unit_sphere()
    poses = [Pose.from_xytheta(x, 0.0, 0.0, 3) for x in (3.0, 0.5, 0.0)]
    with pytest.raises(ValueError, match="pose 1 is not in free space"):
        simulate_scan(scene, poses, ScannerConfig(beams=4), np.random.default_rng(0))


def test_one_call_of_no_poses_scans_nothing():
    assert simulate_scan(unit_sphere(), [], ScannerConfig(beams=4), np.random.default_rng(0)) == []


def test_scene_validation():
    with pytest.raises(ValueError):
        AnalyticScene(())
    with pytest.raises(ValueError):
        AnalyticScene((Sphere(np.zeros(2), 1.0), Sphere(np.zeros(3), 1.0)))


def test_parse_scene_grammar():
    scene = parse_scene_text(
        """
        # walls
        plane 1 0 -4
        circle -1.5 -1 0.8
        box 1.5 1.5 0.6 0.6
        """
    )
    kinds = [type(p).__name__ for p in scene.primitives]
    assert kinds == ["Plane", "Sphere", "Box"]
    scene3 = parse_scene_text("sphere 0 0 0 1\nbox 0 0 0 1 1 1\nplane 0 0 1 -2")
    assert scene3.dim == 3


def test_parse_scene_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_scene_text("circle 0 0 1\nwedge 1 2 3")
    with pytest.raises(ValueError, match="line 3"):
        parse_scene_text("circle 0 0 1\n\ncircle 0 zero 1")
    with pytest.raises(ValueError, match="line 1"):
        parse_scene_text("sphere 1 2 3")  # arity of neither form
    with pytest.raises(ValueError, match="line 2: unrecognized primitive"):
        parse_scene_text("circle 0 0 1\npolygon 0 0 1 0 1 1")
    for bad in ("circle 0 0 nan", "box 0 0 1 inf"):
        with pytest.raises(ValueError, match="line 2: non-finite"):
            parse_scene_text(f"circle 0 0 1\n{bad}")


LINE_CASES = [
    ("sphere 1 2 3 0.5", Sphere, {"center": [1.0, 2.0, 3.0], "radius": 0.5}),
    ("circle 1 2 0.5", Sphere, {"center": [1.0, 2.0], "radius": 0.5}),
    ("box 1 2 3 0.1 0.2 0.3", Box, {"center": [1.0, 2.0, 3.0], "half": [0.1, 0.2, 0.3]}),
    ("box 1 2 0.1 0.2", Box, {"center": [1.0, 2.0], "half": [0.1, 0.2]}),
    ("plane 0 0 2 -4", Plane, {"normal": [0.0, 0.0, 1.0], "offset": -2.0}),
    ("plane 0 2 -4", Plane, {"normal": [0.0, 1.0], "offset": -2.0}),
]


@pytest.mark.parametrize("line, cls, fields", LINE_CASES)
def test_each_line_form_builds_its_primitive(line, cls, fields):
    (prim,) = parse_scene_text(line).primitives
    assert type(prim) is cls
    for name, want in fields.items():
        assert np.array_equal(getattr(prim, name), want), name


def test_every_line_form_is_tested():
    forms = {(line.split()[0], len(line.split()) - 1) for line, _, _ in LINE_CASES}
    assert forms == set(LINE_FORMS)


@pytest.mark.parametrize("text, message", [
    ("circle 0 0 1\nbox 0 0 1", "line 2: unrecognized primitive 'box 0 0 1'"),
    ("sphere 0 0 0 1\n# c\nsphere 0 0 1", "line 3: unrecognized primitive 'sphere 0 0 1'"),
    ("circle 0 0 1\n\ncylinder 0 0 1", "line 3: unrecognized primitive 'cylinder 0 0 1'"),
])
def test_unknown_line_form_names_its_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_scene_text(text)


@pytest.mark.parametrize("text, message", [
    ("# c\ncircle 0 0 -1", "line 2: radius must be positive in 'circle 0 0 -1'"),
    ("circle 0 0 1\nbox 0 0 0 1",
     r"line 2: box half-extents must be positive and match the center in 'box 0 0 0 1'"),
    ("plane 0 0 5", "line 1: plane normal must be nonzero in 'plane 0 0 5'"),
    ("sphere 0 0 0 1\ncircle 3 0 1", "line 2: 'circle 3 0 1' is 2D but line 1 is 3D"),
    ("\nplane 1 0 -4\nplane 0 1 -4\nbox 0 0 0 1 1 1",
     "line 4: 'box 0 0 0 1 1 1' is 3D but line 2 is 2D"),
])
def test_primitive_value_errors_name_their_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_scene_text(text)


@pytest.mark.parametrize("prim", [
    Sphere(np.zeros(2), 1.0), Sphere(np.zeros(3), 1.0),
    Box(np.zeros(2), np.ones(2)), Box(np.zeros(3), np.ones(3)),
    Plane(np.array([0.0, 1.0]), 1.0), Plane(np.array([0.0, 0.0, 1.0]), 1.0),
], ids=lambda p: f"{type(p).__name__}{p.dim}")
def test_primitive_jet_of_no_points(prim):
    vals, grads, lap = prim.jet(np.empty((0, prim.dim)))
    assert vals.shape == (0,) and grads.shape == (0, prim.dim) and lap.shape == (0,)


def test_scene_jet_with_a_primitive_that_wins_no_point():
    far = Box(np.array([50.0, 0.0]), np.ones(2))
    scene = AnalyticScene((Sphere(np.zeros(2), 1.0), far, Plane(np.array([0.0, 1.0]), -5.0)))
    pts = np.array([[2.0, 0.0], [0.0, -4.5], [0.5, 0.0]])
    assert 1 not in scene.active_index(pts)
    vals, grads, lap, ghg = scene.jet(pts)
    np.testing.assert_array_equal(vals, [1.0, 0.5, -0.5])
    np.testing.assert_array_equal(grads, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(lap, [1.0 / 2.0, 0.0, 2.0])
    np.testing.assert_array_equal(ghg, 0.0)


def test_box_jet_tie_break_inside_and_on_the_surface():
    # the lowest-index face of largest q = |x - c| - h wins, with sign +1
    # where x - c is zero
    box = Box(np.array([1.0, -1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
    rel = np.array([
        [0.0, 0.0, 0.0],  # center: faces 0 and 2 tie
        [-0.5, 0.0, -0.5],  # inside, faces 0 and 2 tie on the negative side
        [1.0, 0.0, 0.0],  # face +x
        [-1.0, 0.0, 0.0],  # face -x
        [0.0, -2.0, 0.0],  # face -y
        [1.0, 2.0, 0.0],  # edge of faces 0 and 1
        [0.0, -2.0, -1.0],  # edge of faces 1 and 2
        [-1.0, -2.0, -1.0],  # corner
    ])
    vals, grads, lap = box.jet(box.center + rel)
    np.testing.assert_array_equal(vals, [-1.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(grads, [
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0],
    ])
    assert not np.any(np.signbit(grads[grads == 0.0]))
    np.testing.assert_array_equal(lap, 0.0)


def test_scene_bounds():
    scene = parse_scene_text("circle 0 0 1\nbox 3 0 1 1")
    b = scene_bounds(scene)
    np.testing.assert_allclose(b.lo, [-1.0, -1.0])
    np.testing.assert_allclose(b.hi, [4.0, 1.0])
    assert scene_bounds(parse_scene_text("plane 1 0 -4")) is None


ROOM = """
plane 1 0 -4
plane -1 0 -4
plane 0 1 -4
plane 0 -1 -4
plane 1 1 -5.2
box 1.5 1.5 0.6 0.6
circle -1.5 -1 0.8
"""


def test_band_sample_fills_every_primitive_quota():
    # 7 primitives, 5 of them planes: 703 points split 101, 101, 101, 100, ...
    scene = parse_scene_text(ROOM)
    region = Aabb(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    pts = band_sample(scene, region, 0.2, 703, np.random.default_rng(0))
    assert pts.shape == (703, 2)
    bounds = np.cumsum([0, 101, 101, 101, 100, 100, 100, 100])
    for prim, a, b in zip(scene.primitives, bounds[:-1], bounds[1:]):
        share = pts[a:b]
        assert np.all(np.abs(prim.sdf(share)) < 0.2), prim
        assert np.all((share > -4.2) & (share < 4.2)), prim
    # the walls are in the band, beyond the bounded content's reach
    assert np.max(np.abs(pts)) > 4.0
    again = band_sample(scene, region, 0.2, 703, np.random.default_rng(0))
    assert np.array_equal(pts, again)
    # fewer points than primitives: the first shares get one each
    few = band_sample(scene, region, 0.2, 3, np.random.default_rng(0))
    assert few.shape == (3, 2)
    assert all(abs(p.sdf(q[None])[0]) < 0.2 for p, q in zip(scene.primitives, few))


def test_band_sample_finds_a_small_primitive_in_a_large_region():
    # a 0.4-wide shell of a unit sphere fills about 5e-6 of this region
    scene = parse_scene_text("sphere 0 0 0 1\nplane 0 0 1 -1")
    region = Aabb.cube(np.zeros(3), 50.0)
    pts = band_sample(scene, region, 0.2, 2000, np.random.default_rng(1))
    assert np.all(np.abs(scene.primitives[0].sdf(pts[:1000])) < 0.2)
    assert np.all(np.abs(scene.primitives[1].sdf(pts[1000:])) < 0.2)


def test_band_sample_names_a_primitive_outside_the_region():
    scene = parse_scene_text("circle 0 0 1\ncircle 9 0 0.5")
    region = Aabb(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match=r"primitive 2 \(Sphere\(center=array\(\[9\., 0\.\]\)"):
        band_sample(scene, region, 0.2, 100, np.random.default_rng(0))
