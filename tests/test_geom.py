import numpy as np
import pytest

from scanfield.geom import Aabb, Pose, Scan, SceneTransform, normalize_scene, to_world


def test_pose_identity_roundtrip():
    p = Pose(np.eye(3), np.zeros(3))
    pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(p.apply(pts), pts)
    np.testing.assert_array_equal(p.inverse_apply(pts), pts)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Pose(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))


def test_pose_rejects_reflection():
    # det = -1 is a valid orthogonal matrix but not a rotation
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, -1.0]), np.zeros(2))


def test_pose_apply_inverse_apply_roundtrip():
    rng = np.random.default_rng(3)
    p = Pose.from_xytheta(0.3, -1.2, 0.7)
    pts = rng.normal(size=(17, 2))
    np.testing.assert_allclose(p.inverse_apply(p.apply(pts)), pts, atol=1e-12)


def test_from_xytheta_matches_manual_rotation():
    p = Pose.from_xytheta(1.0, 2.0, np.pi / 2)
    out = p.apply(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(out, [[1.0, 3.0]], atol=1e-12)


def test_ray_validation():
    o = np.zeros((2, 3))
    e = np.array([[0.0, 3.0, 4.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="ray 1 has zero length"):
        normalize_scene(o, np.array([[0.0, 3.0, 4.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        normalize_scene(o, np.array([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        normalize_scene(np.full((2, 3), np.nan), e)
    with pytest.raises(ValueError, match="shape"):
        normalize_scene(o[:1], e)
    with pytest.raises(ValueError, match="shape"):
        normalize_scene(o[0], e[0])
    with pytest.raises(ValueError, match="empty"):
        normalize_scene(np.zeros((0, 3)), np.zeros((0, 3)))
    (oc, ec), tf = normalize_scene(o, e)
    np.testing.assert_allclose(np.linalg.norm(ec - oc, axis=1) * tf.scale, [5.0, 1.0])


def test_scan_dim_mismatch():
    with pytest.raises(ValueError):
        Scan(Pose(np.eye(3), np.zeros(3)), np.zeros((4, 2)))


def test_scan_rejects_non_finite_points():
    # to_world relies on this check and does not repeat it.
    with pytest.raises(ValueError, match="points contains non-finite entries"):
        Scan(Pose(np.eye(3), np.zeros(3)), np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="points contains non-finite entries"):
        Scan(Pose(np.eye(2), np.zeros(2)), np.array([[1.0, 0.0], [np.inf, 0.0]]))


def test_aabb_cube():
    box = Aabb.cube(np.array([1.0, 1.0, 1.0]), 2.0)
    np.testing.assert_array_equal(box.lo, [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(box.hi, [3.0, 3.0, 3.0])
    with pytest.raises(ValueError):
        Aabb(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_to_world_transforms_sensor_points():
    pose = Pose.from_xytheta(1.0, 0.0, np.pi / 2)
    scan = Scan(pose, np.array([[2.0, 0.0]]))  # ahead of the sensor
    # one row per ray: its world endpoint; the origin is the pose translation
    np.testing.assert_allclose(to_world(scan), [[1.0, 2.0]], atol=1e-12)


def test_to_world_rejects_zero_range_point():
    scan = Scan(Pose(np.eye(2), np.zeros(2)), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="1"):
        to_world(scan)


def test_scene_transform_roundtrip():
    tf = SceneTransform(np.array([1.0, -2.0]), 4.0)
    pts = np.array([[1.0, -2.0], [5.0, 2.0]])
    canon = tf.to_canonical(pts)
    np.testing.assert_allclose(canon, [[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(tf.to_world(canon), pts)


def test_normalize_scene_scale_is_max_half_extent():
    # The ray spans the box [0, 3] x [-4, 2]: half extents (1.5, 3), padded
    # by 1e-9 of the largest coordinate magnitude (4).
    (o, _), tf = normalize_scene(np.array([[0.0, -4.0]]), np.array([[3.0, 2.0]]))
    assert tf.scale == pytest.approx(3.0 + 4e-9, rel=1e-15)
    np.testing.assert_allclose(tf.center, [1.5, -1.0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(o[0], (np.array([0.0, -4.0]) - tf.center) / tf.scale)
    assert np.all(np.abs(o) < 1.0)


def test_normalized_rays_fit_unit_cube():
    rng = np.random.default_rng(0)
    origins = rng.uniform(-5, 5, size=(40, 3))
    endpoints = rng.uniform(-5, 5, size=(40, 3))
    (o, e), _ = normalize_scene(origins, endpoints)
    assert np.all(np.abs(o) <= 1.0 + 1e-12)
    assert np.all(np.abs(e) <= 1.0 + 1e-12)
