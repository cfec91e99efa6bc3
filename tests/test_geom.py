import numpy as np
import pytest

from scanfield.geom import ROT_TOL, Aabb, Pose, Scan, SceneTransform, normalize_scene, to_world


def test_pose_identity_roundtrip():
    p = Pose(np.eye(3), np.zeros(3))
    pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(p.apply(pts), pts)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Pose(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))


def test_pose_orthonormality_tolerance_is_inclusive():
    # [[1, e], [0, 1]] has the Gram matrix [[1, e], [e, 1 + e*e]], and 1 + e*e
    # rounds to 1, so it is off the identity by exactly e: e = ROT_TOL passes
    # and the next float up fails, as under np.allclose(atol=ROT_TOL, rtol=0),
    # the rule this check replaced.  The determinant is 1 either way.
    at, above = (np.array([[1.0, e], [0.0, 1.0]]) for e in (ROT_TOL, np.nextafter(ROT_TOL, 1.0)))
    assert np.allclose(at.T @ at, np.eye(2), atol=ROT_TOL, rtol=0.0)
    assert not np.allclose(above.T @ above, np.eye(2), atol=ROT_TOL, rtol=0.0)
    Pose(at, np.zeros(2))
    with pytest.raises(ValueError, match="not orthonormal"):
        Pose(above, np.zeros(2))


def test_pose_rejects_reflection():
    # det = -1 is a valid orthogonal matrix but not a rotation
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, -1.0]), np.zeros(2))


def test_from_xytheta_matches_manual_rotation():
    p = Pose.from_xytheta(1.0, 2.0, np.pi / 2)
    out = p.apply(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(out, [[1.0, 3.0]], atol=1e-12)


def test_from_xytheta_in_3d_turns_about_z_at_zero_height():
    flat = Pose.from_xytheta(1.0, 2.0, 0.7)
    p = Pose.from_xytheta(1.0, 2.0, 0.7, dim=3)
    np.testing.assert_array_equal(p.translation, [1.0, 2.0, 0.0])
    np.testing.assert_array_equal(p.rotation[:2, :2], flat.rotation)
    np.testing.assert_array_equal(p.rotation[2], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(p.rotation[:, 2], [0.0, 0.0, 1.0])


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
    # the scanned cube holds every origin and endpoint in world metres
    box = tf.cube
    assert np.all((np.concatenate([o, e]) > box.lo) & (np.concatenate([o, e]) < box.hi))
    np.testing.assert_array_equal(box.lo, tf.to_world(-np.ones(3)))


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
