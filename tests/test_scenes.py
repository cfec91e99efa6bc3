import math

import numpy as np
import pytest

from scanfield.geom import Pose
from scanfield.scenes import (
    AnalyticScene,
    Box,
    ConvexPolygon2D,
    Plane,
    ScannerConfig,
    Sphere,
    beam_directions,
    parse_scene_text,
    scene_bounds,
    simulate_scan,
    sphere_trace,
)


def unit_sphere():
    return AnalyticScene((Sphere(np.zeros(3), 1.0),))


def test_sphere_jet_anchor():
    v, g, h = unit_sphere().jet(np.array([[2.0, 0.0, 0.0]]))
    assert v[0] == 1.0
    np.testing.assert_allclose(g[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(h[0], np.diag([0.0, 0.5, 0.5]))


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


def test_polygon_orientation_and_regions():
    tri_ccw = ConvexPolygon2D(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    tri_cw = ConvexPolygon2D(np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]]))
    for tri in (tri_ccw, tri_cw):
        # interior: signed distance to the nearest edge line
        scene = AnalyticScene((tri,))
        assert abs(scene.sdf(np.array([[0.5, 0.5]]))[0] + 0.5) < 1e-12
        # vertex region: diagonal from the corner at (2, 0)
        v, g, _ = scene.jet(np.array([[3.0, -1.0]]))
        assert abs(v[0] - math.sqrt(2.0)) < 1e-12
        np.testing.assert_allclose(g[0], [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)])
        # edge region: flat, unit normal gradient
        v, _, h = scene.jet(np.array([[1.0, -0.5]]))
        assert abs(v[0] - 0.5) < 1e-12
        np.testing.assert_allclose(h[0], np.zeros((2, 2)), atol=1e-15)
    with pytest.raises(ValueError):
        ConvexPolygon2D(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # collinear


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
    _, grads, _ = scene.jet(pts)
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
    # every axis; within r of a crease, corner or seam the active feature
    # changes and finite differences straddle two pieces.
    _, g0, h0 = scene.jet(pts)
    r = 1e-2
    keep = np.ones(pts.shape[0], dtype=bool)
    for j in range(3):
        for s in (r, -r):
            _, g1, _ = scene.jet(pts + s * np.eye(3)[j])
            keep &= np.linalg.norm(g1 - g0 - s * h0[:, :, j], axis=1) < 1e-3
    assert keep.sum() >= 290
    pts = pts[keep]
    vals, grads, hess = scene.jet(pts)
    h = 1e-5
    g_fd = np.zeros_like(grads)
    h_fd = np.zeros_like(hess)
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        vp = scene.sdf(pts + step)
        vm = scene.sdf(pts - step)
        g_fd[:, j] = (vp - vm) / (2 * h)
        h_fd[:, j, j] = (vp - 2 * vals + vm) / h**2
        for k in range(j + 1, 3):
            sk = np.zeros(3)
            sk[k] = h
            cross = (
                scene.sdf(pts + step + sk)
                - scene.sdf(pts + step - sk)
                - scene.sdf(pts - step + sk)
                + scene.sdf(pts - step - sk)
            ) / (4 * h * h)
            h_fd[:, j, k] = h_fd[:, k, j] = cross
    for i in range(pts.shape[0]):
        assert np.linalg.norm(grads[i] - g_fd[i]) < 1e-6 * max(1.0, np.linalg.norm(g_fd[i]))
        # second differences at h=1e-5 carry ~1e-6 rounding noise of their own
        assert np.linalg.norm(hess[i] - h_fd[i]) < 1e-4 * max(1.0, np.linalg.norm(h_fd[i]))


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
        polygon 0 0  1 0  1 1  0 1
        """
    )
    kinds = [type(p).__name__ for p in scene.primitives]
    assert kinds == ["Plane", "Sphere", "Box", "ConvexPolygon2D"]
    scene3 = parse_scene_text("sphere 0 0 0 1\nbox 0 0 0 1 1 1\nplane 0 0 1 -2")
    assert scene3.dim == 3


def test_parse_scene_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_scene_text("circle 0 0 1\nwedge 1 2 3")
    with pytest.raises(ValueError, match="line 3"):
        parse_scene_text("circle 0 0 1\n\ncircle 0 zero 1")
    with pytest.raises(ValueError, match="line 1"):
        parse_scene_text("sphere 1 2 3")  # arity of neither form


def test_scene_bounds():
    scene = parse_scene_text("circle 0 0 1\nbox 3 0 1 1")
    b = scene_bounds(scene, pad=0.5)
    np.testing.assert_allclose(b.lo, [-1.5, -1.5])
    np.testing.assert_allclose(b.hi, [4.5, 1.5])
    assert scene_bounds(parse_scene_text("plane 1 0 -4")) is None
