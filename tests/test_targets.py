import numpy as np
import pytest

from scanfield.sampling import sample_rays_batch
from scanfield.scenes import AnalyticScene, Sphere
from scanfield.targets import GRAD_EPS, ROC_MAX, ROC_MIN, SupervisionMode, compute_targets

# ---------------------------------------------------------------------------
# Scalar reference: one sample at a time, the reference that the batched
# compute_targets is checked against.


class DegenerateGradient(ValueError):
    """Gradient too small to define a surface direction."""


def normal_dir(gradient, eps=GRAD_EPS):
    """Unit direction toward the closest surface: the negated, normalized gradient."""
    g = np.asarray(gradient, dtype=np.float64)
    n = float(np.linalg.norm(g))
    if n < eps:
        raise DegenerateGradient(f"gradient norm {n:.3e} below {eps:.1e}")
    return -g / n


def principal_curvature_sum(gradient, hessian, eps=GRAD_EPS):
    """Divergence of the unit gradient: sum of the level set's principal curvatures."""
    g = np.asarray(gradient, dtype=np.float64)
    h = np.asarray(hessian, dtype=np.float64)
    n = float(np.linalg.norm(g))
    if n < eps:
        raise DegenerateGradient(f"gradient norm {n:.3e} below {eps:.1e}")
    return float(np.trace(h) / n - g @ h @ g / n**3)


def iso_curvature(gradient, hessian, r_min=ROC_MIN, r_max=ROC_MAX, eps=GRAD_EPS):
    """kappa = |principal sum| / (m - 1) and its radius, clamped to [r_min, r_max]."""
    m = np.asarray(gradient).shape[0]
    kappa = abs(principal_curvature_sum(gradient, hessian, eps)) / (m - 1)
    if kappa <= 1.0 / r_max:
        return kappa, r_max
    return kappa, float(np.clip(1.0 / kappa, r_min, r_max))


def dcn_distance(n_unit, endpoint, x):
    """Ray distance projected onto the surface-normal direction."""
    return float(np.asarray(n_unit) @ (endpoint - np.asarray(x, dtype=np.float64)))


def curvature_distance(r, endpoint, x, n_unit):
    """Signed distance to the curvature-matched sphere through the endpoint."""
    delta = endpoint - np.asarray(x, dtype=np.float64)
    d2 = float(delta @ delta)
    p = float(np.asarray(n_unit) @ delta)
    radicand = d2 + r * r - 2.0 * r * p
    return float(r - np.sqrt(max(radicand, 0.0)))


def hessian_terms(gradients, hessians):
    """(tr H, gᵀHg) per row: what compute_targets takes in place of the
    (S, m, m) Hessians, as field.jet_batch returns them for the network."""
    h = np.asarray(hessians, dtype=np.float64)
    return np.einsum("sii->s", h), np.einsum("si,sij,sj->s", gradients, h, gradients)


def sample_weight(d_pred_abs, d_max, d_min, gamma):
    """Emphasis weight ((d_max - |D|) / (d_max - d_min))^gamma over a batch
    whose |D| spans [d_min, d_max]: 1 at the smallest |D|, 0 at the largest
    (and everywhere when all |D| are equal)."""
    base = max(d_max - d_pred_abs, 0.0)
    return float((base / (d_max - d_min) if d_max > d_min else base) ** gamma)


def estimate_sample(mode, value, gradient, hessian, endpoint, x, d_max, d_min=0.0,
                    tau=0.2, gamma=3.0, r_min=ROC_MIN, r_max=ROC_MAX):
    """One sample's (d_hat, weight, roc_query).

    Degenerate gradients and negative raw estimates both fall back to the ray
    distance.
    """
    xq = np.asarray(x, dtype=np.float64)
    delta = endpoint - xq
    d = float(np.linalg.norm(delta))
    weight = sample_weight(abs(value), d_max, d_min, gamma)
    ray_fallback = mode is SupervisionMode.RAY_DISTANCE
    if not ray_fallback:
        try:
            n = normal_dir(gradient)
            if mode is SupervisionMode.CLOSEST_NORMAL:
                d_raw, roc_q = dcn_distance(n, endpoint, xq), r_max
            else:
                _, r = iso_curvature(gradient, hessian, r_min, r_max)
                d_raw, roc_q = curvature_distance(r, endpoint, xq, n), r
            if d_raw < 0.0:
                ray_fallback = True
        except DegenerateGradient:
            ray_fallback = True
    if ray_fallback:
        d_raw, roc_q = d, r_max
    return float(np.clip(d_raw, 0.0, tau)), weight, roc_q


# ---------------------------------------------------------------------------


def _sphere_level_jet(dist, m):
    """Exact jet of |x| at a point on the x-axis at the given distance."""
    u = np.zeros(m)
    u[0] = 1.0
    g = u
    h = (np.eye(m) - np.outer(u, u)) / dist
    return g, h


def _one(mode, g, h, x, e, value=0.0, tau=0.2):
    """compute_targets on a one-row batch."""
    g = np.asarray(g, dtype=np.float64)[None]
    return compute_targets(mode, np.array([value]), g, hessian_terms(g, np.asarray(h)[None]),
                           np.asarray(x, dtype=np.float64)[None], np.asarray(e)[None],
                           tau=tau, gamma=3.0)


def test_normal_dir_points_against_gradient():
    x, e = np.zeros(2), np.array([0.0, -0.1])
    tb = _one(SupervisionMode.CLOSEST_NORMAL, [0.0, 3.0], np.zeros((2, 2)), x, e)
    assert not tb.degenerate[0]  # the projection onto -grad is positive
    assert abs(tb.d_hat[0] - 0.1) < 1e-15
    tb = _one(SupervisionMode.CLOSEST_NORMAL, np.zeros(2), np.zeros((2, 2)), x, e)
    assert tb.degenerate[0]  # vanishing gradient: fall back to the ray distance
    assert abs(tb.d_hat[0] - 0.1) < 1e-15
    with pytest.raises(DegenerateGradient):
        normal_dir(np.zeros(3))


def test_curvature_at_distance_two_from_sphere_center():
    # Level set through a point 2 away from the center is a radius-2 sphere.
    for m in (2, 3):
        g, h = _sphere_level_jet(2.0, m)
        x = 2.0 * g
        tb = _one(SupervisionMode.CURVATURE_CONSTRAINED, g, h, x, x - 0.5 * g)
        assert not tb.degenerate[0]
        assert abs(tb.roc_query[0] - 2.0) < 1e-12
        kappa, r = iso_curvature(g, h)
        assert abs(kappa - 0.5) < 1e-12
        assert abs(r - 2.0) < 1e-12


def test_principal_sum_and_mean():
    # A 3D sphere of radius 2 bends in both sections (principal sum 1); a
    # cylinder of radius 2 in one (sum 0.5).  The isotropic radius is the
    # reciprocal of the sum's mean over the m - 1 = 2 sections.
    g, h = _sphere_level_jet(2.0, 3)
    assert abs(principal_curvature_sum(g, h) - 1.0) < 1e-12
    h_cyl = np.diag([0.0, 0.5, 0.0])
    assert abs(principal_curvature_sum(g, h_cyl) - 0.5) < 1e-12
    x = 2.0 * g
    for hess, radius in ((h, 2.0), (h_cyl, 4.0)):
        tb = _one(SupervisionMode.CURVATURE_CONSTRAINED, g, hess, x, x - 0.5 * g)
        assert abs(tb.roc_query[0] - radius) < 1e-12


def test_flat_region_radius_saturates():
    g = np.array([0.0, 1.0])
    h = np.zeros((2, 2))
    kappa, r = iso_curvature(g, h)
    assert kappa == 0.0
    assert r == 1e6
    tb = _one(SupervisionMode.CURVATURE_CONSTRAINED, g, h, np.zeros(2), np.array([0.0, -0.1]))
    assert not tb.degenerate[0]
    assert tb.roc_query[0] == 1e6


def test_radius_clamped_below():
    g, h = _sphere_level_jet(1e-5, 3)  # curvature 1e5 -> radius 1e-5 < floor
    _, r = iso_curvature(g, h)
    assert r == 1e-3
    tb = _one(SupervisionMode.CURVATURE_CONSTRAINED, g, h, np.zeros(3), -5e-4 * g)
    assert not tb.degenerate[0]
    assert tb.roc_query[0] == 1e-3


def test_dcn_projection():
    e = np.array([2.0, 1.0])
    x = np.array([1.0, 0.5])
    n = np.array([1.0, 0.0])
    assert abs(dcn_distance(n, e, x) - 1.0) < 1e-15
    tb = _one(SupervisionMode.CLOSEST_NORMAL, -n, np.zeros((2, 2)), x, e, tau=np.inf)
    assert abs(tb.d_hat[0] - 1.0) < 1e-15


def test_curvature_distance_radicand_anchor():
    # r=2, |e-x|=sqrt(2), projection 1.25: radicand collapses to 1, target 1.
    x = np.zeros(2)
    n = np.array([1.0, 0.0])
    e = np.array([1.25, np.sqrt(2.0 - 1.25**2)])
    assert abs(curvature_distance(2.0, e, x, n) - 1.0) < 1e-12
    h = np.diag([0.0, 0.5])  # level-set curvature 1/2 across the normal
    tb = _one(SupervisionMode.CURVATURE_CONSTRAINED, -n, h, x, e, tau=np.inf)
    assert abs(tb.roc_query[0] - 2.0) < 1e-12
    assert abs(tb.d_hat[0] - 1.0) < 1e-12


def test_curvature_distance_exact_on_concentric_levels():
    # Around a sphere/circle every level set is concentric, so the
    # curvature-matched construction recovers the true signed distance for
    # any endpoint on the surface -- not just along the ray.
    rng = np.random.default_rng(42)
    for m in (2, 3):
        center = rng.normal(size=m)
        scene = AnalyticScene((Sphere(center, 1.0),))
        u = rng.normal(size=(200, m))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rho = rng.uniform(1.2, 3.0, size=200)
        x = center + rho[:, None] * u
        v = rng.normal(size=(200, m))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = center + v  # any surface point
        vals, g, lap, ghg = scene.jet(x)
        tb = compute_targets(SupervisionMode.CURVATURE_CONSTRAINED, vals, g, (lap, ghg), x, e,
                             tau=np.inf, gamma=3.0)
        assert not np.any(tb.degenerate)
        np.testing.assert_allclose(tb.d_hat, rho - 1.0, rtol=0.0, atol=1e-9)


def test_curvature_matches_projection_in_flat_limit():
    # With the radius saturated at 1e6 the curvature target collapses to the
    # normal projection up to d^2 / (2 r).
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 3))
    e = x + rng.uniform(0.1, 1.0, size=(200, 1)) * rng.normal(size=(200, 3))
    g = np.tile([0.0, 0.0, -1.0], (200, 1))  # normal +z
    flat = (np.zeros(200), np.zeros(200))  # tr H and gᵀHg of a zero Hessian
    vals = np.zeros(200)
    d = np.linalg.norm(e - x, axis=1)
    cd = compute_targets(SupervisionMode.CURVATURE_CONSTRAINED, vals, g, flat, x, e, tau=np.inf, gamma=3.0)
    dcn = compute_targets(SupervisionMode.CLOSEST_NORMAL, vals, g, None, x, e, tau=np.inf, gamma=3.0)
    np.testing.assert_array_equal(cd.degenerate, dcn.degenerate)
    assert np.all(np.abs(cd.d_hat - dcn.d_hat) < 1e-3 * d)


def test_sample_weight_anchor():
    w = [sample_weight(a, 2.0, 0.0, 3.0) for a in (0.0, 1.0, 2.0)]
    assert w == [1.0, 0.125, 0.0]
    assert sample_weight(5.0, 2.0, 0.0, 3.0) == 0.0  # beyond the batch max
    assert sample_weight(1.5, 2.0, 1.0, 3.0) == 0.125  # the span, not d_max, scales
    assert sample_weight(2.0, 2.0, 2.0, 3.0) == 0.0  # all |D| equal


def test_estimate_sample_clamps_to_band():
    x = np.zeros(2)
    e = np.array([1.0, 0.0])
    g = np.array([-1.0, 0.0])  # surface ahead along +x
    h = np.zeros((2, 2))
    d_hat, _, _ = estimate_sample(
        SupervisionMode.RAY_DISTANCE, 0.0, g, h, e, x, d_max=1.0, tau=0.2
    )
    assert d_hat == 0.2  # raw distance 1.0 clipped to the band
    # A normal pointing away from the endpoint would give a negative raw
    # target; the sample falls back to ray distance (1.0) and band-clamps.
    d_hat2, _, _ = estimate_sample(
        SupervisionMode.CLOSEST_NORMAL, 0.0, np.array([1.0, 0.0]), h, e, x, d_max=1.0
    )
    assert d_hat2 == 0.2
    for mode, grad in ((SupervisionMode.RAY_DISTANCE, g), (SupervisionMode.CLOSEST_NORMAL, -g)):
        tb = _one(mode, grad, h, x, e, tau=0.2)
        assert tb.d_hat[0] == 0.2


def test_estimate_sample_degenerate_falls_back_to_ray():
    x = np.zeros(2)
    e = np.array([0.1, 0.0])
    mode = SupervisionMode.CURVATURE_CONSTRAINED
    d_hat, _, _ = estimate_sample(mode, 0.0, np.zeros(2), np.zeros((2, 2)), e, x, d_max=1.0)
    assert abs(d_hat - 0.1) < 1e-15
    tb = _one(mode, np.zeros(2), np.zeros((2, 2)), x, e)
    assert tb.degenerate[0]
    assert abs(tb.d_hat[0] - 0.1) < 1e-15


def test_compute_targets_matches_scalar_loop():
    rng = np.random.default_rng(5)
    s, m = 64, 3
    x = rng.normal(size=(s, m))
    dirs = rng.normal(size=(s, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    e = x + rng.uniform(0.05, 0.5, size=(s, 1)) * dirs
    vals = rng.normal(size=s)
    g = rng.normal(size=(s, m))
    g[3] = 1e-12  # one degenerate row
    a = rng.normal(size=(s, m, m))
    h = a + np.swapaxes(a, 1, 2)
    d_max, d_min = float(np.max(np.abs(vals))), float(np.min(np.abs(vals)))
    for mode in SupervisionMode:
        batch = compute_targets(mode, vals, g, hessian_terms(g, h), x, e, tau=0.2, gamma=3.0)
        for i in range(s):
            d_hat, weight, roc_query = estimate_sample(
                mode, vals[i], g[i], h[i], e[i], x[i], d_max, d_min
            )
            assert abs(batch.d_hat[i] - d_hat) < 1e-12, (mode, i)
            assert abs(batch.weight[i] - weight) < 1e-9
            assert abs(batch.roc_query[i] - roc_query) < 1e-6 * roc_query
        if mode is not SupervisionMode.RAY_DISTANCE:
            assert batch.degenerate[3]
            # fallback rows carry the band-clamped ray distance
            ray_d = np.linalg.norm(e - x, axis=1)
            np.testing.assert_allclose(
                batch.d_hat[batch.degenerate],
                np.clip(ray_d[batch.degenerate], 0.0, 0.2),
            )


def test_negative_estimates_fall_back_to_ray():
    # Random jets make half the projections negative; none may survive as
    # zero targets, or training can settle on the all-zero field.
    rng = np.random.default_rng(11)
    s = 256
    x = rng.normal(size=(s, 3))
    e = x + rng.uniform(0.3, 1.0, size=(s, 1)) * rng.normal(size=(s, 3))
    vals = 0.01 * rng.normal(size=s)
    g = 0.1 * rng.normal(size=(s, 3))
    a = 0.1 * rng.normal(size=(s, 3, 3))
    h = a + np.swapaxes(a, 1, 2)
    ray_d = np.linalg.norm(e - x, axis=1)
    for mode in (SupervisionMode.CLOSEST_NORMAL, SupervisionMode.CURVATURE_CONSTRAINED):
        batch = compute_targets(mode, vals, g, hessian_terms(g, h), x, e, tau=0.2, gamma=3.0)
        assert np.any(batch.degenerate)
        np.testing.assert_allclose(
            batch.d_hat[batch.degenerate], np.clip(ray_d[batch.degenerate], 0.0, 0.2)
        )
        assert np.mean(batch.d_hat == 0.0) < 0.05


@pytest.mark.parametrize("m", [2, 3])
def test_per_ray_endpoints_match_row_aligned_call(m):
    # One endpoint row per ray serves that ray's L ray-major samples; the
    # result must equal the call with each endpoint repeated per sample,
    # bit for bit, on rows that hit every fallback cause.
    rng = np.random.default_rng(40 + m)
    r_rays, n = 7, 5
    origins = rng.normal(size=(r_rays, m))
    endpoints = origins + rng.uniform(0.5, 2.0, size=(r_rays, 1)) * rng.normal(size=(r_rays, m))
    x = sample_rays_batch(origins, endpoints, n)
    e_rows = np.repeat(endpoints, n, axis=0)
    s = x.shape[0]
    vals = rng.normal(size=s)
    delta = e_rows - x
    g = -delta / np.linalg.norm(delta, axis=1, keepdims=True) + 0.3 * rng.normal(size=(s, m))
    tr, ghg = rng.normal(size=s), rng.normal(size=s)
    g[3] = 0.0  # vanishing gradient
    g[11] = delta[11]  # normal points away from the endpoint: negative projection
    # A tight level set (r = |g| / 100) with a positive projection: d² > 2rp.
    g[17] = -(delta[17] + 0.5 * np.linalg.norm(delta[17]) * np.roll(delta[17], 1))
    gn = np.linalg.norm(g[17])
    tr[17], ghg[17] = 100.0 * m, 100.0 * gn**2
    p17 = -g[17] @ delta[17] / gn
    assert 0.0 < p17 and delta[17] @ delta[17] > 2.0 * (gn / 100.0) * p17
    causes = {
        SupervisionMode.RAY_DISTANCE: [],
        SupervisionMode.CLOSEST_NORMAL: [3, 11],
        SupervisionMode.CURVATURE_CONSTRAINED: [3, 11, 17],
    }
    for mode, rows in causes.items():
        per_ray = compute_targets(mode, vals, g, (tr, ghg), x, endpoints, tau=0.2, gamma=3.0)
        aligned = compute_targets(mode, vals, g, (tr, ghg), x, e_rows, tau=0.2, gamma=3.0)
        for field in ("d_hat", "weight", "roc_query", "degenerate"):
            assert np.array_equal(getattr(per_ray, field), getattr(aligned, field)), (mode, field)
        assert np.all(per_ray.degenerate[rows]), mode
        assert per_ray.degenerate.sum() < s // 2
    with pytest.raises(ValueError):
        compute_targets(SupervisionMode.RAY_DISTANCE, vals, g, None, x, endpoints[:4], tau=0.2, gamma=3.0)


def test_compute_targets_weights_use_batch_max():
    x = np.zeros((3, 2))
    e = np.tile([0.1, 0.0], (3, 1))
    vals = np.array([0.0, 1.0, 2.0])
    g = np.tile([-1.0, 0.0], (3, 1))
    batch = compute_targets(SupervisionMode.RAY_DISTANCE, vals, g, None, x, e, tau=0.2, gamma=3.0)
    # (d_top - |D|)^gamma = (8, 1, 0), divided by its largest value first: the
    # loss normalises by the sum, so the scale changes rounding alone.
    np.testing.assert_array_equal(batch.weight, [1.0, 0.125, 0.0])


@pytest.mark.parametrize("gamma", [1e3, 1e6])
def test_compute_targets_weights_stay_finite_for_large_gamma(gamma):
    x = np.zeros((4, 2))
    e = np.tile([0.1, 0.0], (4, 1))
    g = np.tile([-1.0, 0.0], (4, 1))
    vals = np.array([0.0, -1e-3, 0.5, 2.0])
    weight = compute_targets(SupervisionMode.RAY_DISTANCE, vals, g, None, x, e, tau=0.2, gamma=gamma).weight
    assert np.all(np.isfinite(weight))
    assert weight[0] == 1.0 and weight[-1] == 0.0
    # an all-equal batch has no emphasis: zero weights, the loss's uniform fallback
    flat = compute_targets(SupervisionMode.RAY_DISTANCE, np.full(4, 0.3), g, None, x, e, tau=0.2, gamma=gamma)
    np.testing.assert_array_equal(flat.weight, np.zeros(4))


def test_compute_targets_rejects_empty():
    with pytest.raises(ValueError):
        compute_targets(
            SupervisionMode.RAY_DISTANCE,
            np.zeros(0),
            np.zeros((0, 2)),
            None,
            np.zeros((0, 2)),
            np.zeros((0, 2)),
            tau=0.2,
            gamma=3.0,
        )
