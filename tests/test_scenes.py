import math

import numpy as np
import pytest

from scanfield.geom import Aabb, Pose
from scanfield.scenes import (
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
    assert np.max(np.abs(scene.sdf(landed))) < 1e-6
    np.testing.assert_allclose(t, 2.0, atol=1e-5)


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
    scan = simulate_scan(scene, Pose(np.eye(2), np.zeros(2)), cfg, np.random.default_rng(0))
    assert scan.points.shape == (1, 2)
    np.testing.assert_allclose(scan.points[0], [2.0, 0.0], atol=1e-5)


def test_scan_drops_misses():
    scene = AnalyticScene((Sphere(np.array([3.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=16, fov=2.0 * math.pi, max_range=10.0)
    scan = simulate_scan(scene, Pose(np.eye(2), np.zeros(2)), cfg, np.random.default_rng(0))
    assert 0 < scan.points.shape[0] < 16  # rear beams escape


def test_scan_requires_free_space_pose():
    scene = unit_sphere()
    with pytest.raises(ValueError, match="free space"):
        simulate_scan(scene, Pose(np.eye(3), np.zeros(3)), ScannerConfig(beams=4), np.random.default_rng(0))


def test_scan_errors_when_nothing_hit():
    scene = AnalyticScene((Sphere(np.array([50.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=8, fov=0.5, max_range=5.0)
    with pytest.raises(ValueError, match="missed"):
        simulate_scan(scene, Pose.from_xytheta(0.0, 0.0, math.pi), cfg, np.random.default_rng(0))


def test_scan_noise_is_seed_deterministic():
    scene = AnalyticScene((Sphere(np.array([3.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=8, fov=1.0, max_range=10.0, noise_sigma=0.05)
    a = simulate_scan(scene, Pose(np.eye(2), np.zeros(2)), cfg, np.random.default_rng(4))
    b = simulate_scan(scene, Pose(np.eye(2), np.zeros(2)), cfg, np.random.default_rng(4))
    assert np.array_equal(a.points, b.points)
    c = simulate_scan(scene, Pose(np.eye(2), np.zeros(2)), cfg, np.random.default_rng(5))
    assert not np.array_equal(a.points, c.points)


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
