import numpy as np
import pytest

from scanfield.sampling import sample_rays_batch, schedule


def test_schedule_hits_zero_exactly():
    for n in (2, 10, 40, 100):
        t = schedule(n)
        assert t.shape == (n,)
        assert t[n - 2] == 0.0  # second-to-last sample sits on the ray origin


def test_schedule_strictly_decreasing():
    t = schedule(40)
    assert np.all(np.diff(t) < 0.0)


def test_schedule_known_values():
    t = schedule(40)
    # First sample hugs the endpoint; spacing stretches log-linearly toward
    # the sensor, with exactly one sample behind it.
    assert abs(t[0] - (1.0 - 10.0 ** (1.0 / 39.0 - 1.0)) / 0.9) < 1e-15
    assert t[0] > 0.99
    assert t[39] < 0.0
    assert abs(t[39] - (1.0 - 10.0 ** (40.0 / 39.0 - 1.0)) / 0.9) < 1e-15


def test_schedule_rejects_tiny_counts():
    with pytest.raises(ValueError):
        schedule(1)


def test_sample_ray_positions_and_distances():
    origin, endpoint = np.array([1.0, 0.0]), np.array([3.0, 0.0])
    pos = sample_rays_batch(origin[None], endpoint[None], 10)
    dist = np.linalg.norm(endpoint - pos, axis=1)
    t = schedule(10)
    assert pos.shape == (10, 2)
    for k in range(10):
        np.testing.assert_allclose(pos[k], origin + t[k] * (endpoint - origin))
        assert abs(dist[k] - (1.0 - t[k]) * 2.0) < 1e-15
    # the schedule's zero lands on the sensor: full ray length to the endpoint
    assert t[8] == 0.0
    assert dist[8] == 2.0
    np.testing.assert_allclose(pos[8], [1.0, 0.0])
    # first sample is the closest to the surface
    assert dist[0] == dist.min()


def _sample_one_ray(origin, endpoint, n):
    """Scalar reference: (position, distance to endpoint) per schedule parameter."""
    length = float(np.linalg.norm(endpoint - origin))
    return [(origin + ti * (endpoint - origin), (1.0 - ti) * length) for ti in schedule(n)]


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(9)
    origins = rng.normal(size=(6, 3))
    endpoints = origins + rng.uniform(0.5, 2.0, size=(6, 3))
    pos = sample_rays_batch(origins, endpoints, 7)
    assert pos.shape == (42, 3)
    k = 0
    for i in range(6):
        for position, ray_distance in _sample_one_ray(origins[i], endpoints[i], 7):
            np.testing.assert_allclose(pos[k], position, atol=1e-12)
            assert abs(np.linalg.norm(endpoints[i] - pos[k]) - ray_distance) < 1e-12
            k += 1


def test_batch_rejects_degenerate_rays():
    with pytest.raises(ValueError):
        sample_rays_batch(np.zeros((1, 2)), np.zeros((1, 2)), 5)
