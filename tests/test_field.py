import numpy as np
import pytest

from scanfield.encoding import default_encoding, encode_jet
from scanfield.field import (
    FieldNet,
    backprop,
    evaluate_batch,
    grad_batch,
    init_field,
    jet_batch,
)


def test_default_parameter_count():
    net = init_field(seed=0, dim=3)
    # 183 features -> 128 -> 128 -> 128 -> 128 -> 1
    assert sum(w.size + b.size for w, b in zip(net.weights, net.biases)) == 73_217


def test_layer_factors():
    net = init_field(seed=0, dim=3)
    assert net.sine_factors == (30.0, 1.0, 1.0, 1.0, 0.0)
    assert net.layer_count == 5
    assert net.weights[0].shape == (128, 183)
    assert net.weights[-1].shape == (1, 128)


def test_init_is_seed_deterministic():
    a = init_field(seed=7, dim=2)
    b = init_field(seed=7, dim=2)
    c = init_field(seed=8, dim=2)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_first_layer_bound_scales_with_fan_in():
    net = init_field(seed=0, dim=3)
    assert np.max(np.abs(net.weights[0])) <= 1.0 / 183
    # deeper sine layers shrink their init by the frequency factor 1 (none here)
    assert np.max(np.abs(net.weights[1])) <= np.sqrt(6.0 / 128)


def test_shape_validation():
    net = init_field(seed=0, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(2))
    with pytest.raises(ValueError):
        FieldNet(
            encoding=net.encoding,
            dim=2,
            weights=net.weights[:-1],  # drops the scalar output layer
            biases=net.biases[:-1],
            sine_factors=net.sine_factors[:-1],
        )
    bad = [w.copy() for w in net.weights]
    bad[1] = np.full_like(bad[1], np.nan)
    with pytest.raises(ValueError):
        FieldNet(net.encoding, 2, bad, net.biases, net.sine_factors)


def test_scalar_and_batch_agree():
    # BLAS picks different reduction orders for different matrix shapes, so
    # cross-shape agreement is to rounding, not bitwise; identical calls are
    # bitwise repeatable.
    net = init_field(seed=3, dim=3, hidden=16, hidden_layers=2, encoding=default_encoding(4))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(10, 3))
    vals = evaluate_batch(net, pts)
    for i in range(10):
        assert abs(evaluate_batch(net, pts[i : i + 1])[0] - vals[i]) < 1e-12
    assert np.array_equal(vals, evaluate_batch(net, pts))


def test_value_track_independent_of_order():
    # Asking for derivatives must not perturb the scalar output at all.
    net = init_field(seed=5, dim=2, hidden=16, hidden_layers=3, encoding=default_encoding(4))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(32, 2))
    v0 = evaluate_batch(net, pts)
    v1, g1 = grad_batch(net, pts)
    v2, g2, _ = jet_batch(net, pts)
    assert np.array_equal(v0, v1)
    assert np.array_equal(v0, v2)
    assert np.array_equal(g1, g2)


def test_chunking_is_invisible():
    net = init_field(seed=2, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(3))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(33, 2))
    np.testing.assert_allclose(
        evaluate_batch(net, pts, chunk=7), evaluate_batch(net, pts), rtol=1e-13, atol=1e-14
    )
    va, ga, ha = jet_batch(net, pts, chunk=5)
    vb, gb, hb = jet_batch(net, pts)
    np.testing.assert_allclose(va, vb, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(ga, gb, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(ha, hb, rtol=1e-11, atol=1e-12)
    # backprop keeps its forward record for one chunk only; the sum over
    # chunks must not depend on where the chunks end.
    vbar = rng.normal(size=33)
    gbar = rng.normal(size=(33, 2))
    for g in (gbar, None):
        pa = backprop(net, pts, vbar, g, chunk=5)
        pb = backprop(net, pts, vbar, g)
        for x, y in zip(pa.weights + pa.biases, pb.weights + pb.biases):
            np.testing.assert_allclose(x, y, rtol=1e-12)


def test_jet_matches_finite_differences():
    # The analytic jet is exact; central differences carry truncation error
    # ~ (omega_eff * h)^2 / 6, so the check uses moderate frequencies where
    # that error sits well below the tolerance.  Relative error is norm-based
    # per point (elementwise ratios blow up on near-zero components).
    net = init_field(
        seed=11, dim=3, hidden=24, hidden_layers=3,
        encoding=default_encoding(3), first_factor=1.0,
    )
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(20, 3))
    vals, grads, hess = jet_batch(net, pts)
    assert np.allclose(hess, np.swapaxes(hess, 1, 2))
    h = 1e-3
    g_fd = np.zeros_like(grads)
    h_fd = np.zeros_like(hess)
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        vp = evaluate_batch(net, pts + step)
        vm = evaluate_batch(net, pts - step)
        g_fd[:, j] = (vp - vm) / (2 * h)
        h_fd[:, j, j] = (vp - 2 * vals + vm) / h**2
        for k in range(j + 1, 3):
            stepk = np.zeros(3)
            stepk[k] = h
            cross = (
                evaluate_batch(net, pts + step + stepk)
                - evaluate_batch(net, pts + step - stepk)
                - evaluate_batch(net, pts - step + stepk)
                + evaluate_batch(net, pts - step - stepk)
            ) / (4 * h * h)
            h_fd[:, j, k] = h_fd[:, k, j] = cross
    for i in range(pts.shape[0]):
        ge = np.linalg.norm(grads[i] - g_fd[i]) / np.linalg.norm(g_fd[i])
        he = np.linalg.norm(hess[i] - h_fd[i]) / np.linalg.norm(h_fd[i])
        assert ge < 1e-4, (i, ge)
        assert he < 1e-4, (i, he)


def test_backprop_matches_parameter_finite_differences():
    net = init_field(seed=9, dim=2, hidden=6, hidden_layers=2, encoding=default_encoding(2))
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1, 1, size=(7, 2))
    vbar = rng.normal(size=7)
    gbar = rng.normal(size=(7, 2))

    def objective(n):
        v, g = grad_batch(n, pts)
        return float(np.sum(vbar * v) + np.sum(gbar * g))

    grads = backprop(net, pts, vbar, gbar)
    h = 1e-6
    for li in (0, 1, 2):
        w = net.weights[li]
        for _ in range(5):
            r, c = rng.integers(w.shape[0]), rng.integers(w.shape[1])
            wp = [x.copy() for x in net.weights]
            wm = [x.copy() for x in net.weights]
            wp[li][r, c] += h
            wm[li][r, c] -= h
            np_ = FieldNet(net.encoding, 2, wp, net.biases, net.sine_factors)
            nm = FieldNet(net.encoding, 2, wm, net.biases, net.sine_factors)
            fd = (objective(np_) - objective(nm)) / (2 * h)
            an = grads.weights[li][r, c]
            assert abs(an - fd) < 1e-5 * max(1.0, abs(fd)), (li, r, c)
        b = net.biases[li]
        r = rng.integers(b.shape[0])
        bp = [x.copy() for x in net.biases]
        bm = [x.copy() for x in net.biases]
        bp[li][r] += h
        bm[li][r] -= h
        fd = (
            objective(FieldNet(net.encoding, 2, net.weights, bp, net.sine_factors))
            - objective(FieldNet(net.encoding, 2, net.weights, bm, net.sine_factors))
        ) / (2 * h)
        assert abs(grads.biases[li][r] - fd) < 1e-5 * max(1.0, abs(fd))


def test_backprop_value_only():
    net = init_field(seed=1, dim=2, hidden=5, hidden_layers=1, encoding=default_encoding(2))
    pts = np.array([[0.1, 0.2], [0.3, -0.4]])
    vbar = np.array([1.0, -2.0])
    grads = backprop(net, pts, vbar, None)
    h = 1e-6
    w = net.weights[0]
    wp = [x.copy() for x in net.weights]
    wp[0][0, 0] += h
    wm = [x.copy() for x in net.weights]
    wm[0][0, 0] -= h

    def obj(n):
        return float(np.sum(vbar * evaluate_batch(n, pts)))

    fd = (
        obj(FieldNet(net.encoding, 2, wp, net.biases, net.sine_factors))
        - obj(FieldNet(net.encoding, 2, wm, net.biases, net.sine_factors))
    ) / (2 * h)
    assert abs(grads.weights[0][0, 0] - fd) < 1e-6 * max(1.0, abs(fd))


def test_jet_one_row_matches_batch():
    # One row and a batch reach BLAS with different matrix shapes, so they
    # agree to rounding (tolerances of test_chunking_is_invisible).
    net = init_field(seed=4, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(3))
    pts = np.array([[0.25, -0.5], [0.1, 0.7], [-0.3, 0.2]])
    v, g, h = jet_batch(net, pts)
    for i in range(pts.shape[0]):
        vi, gi, hi = jet_batch(net, pts[i : i + 1])
        np.testing.assert_allclose(vi[0], v[i], rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(gi[0], g[i], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(hi[0], h[i], rtol=1e-11, atol=1e-12)


def _full_square_forward(net, x):
    """Reference jet that carries all m*m Hessian entries through every layer."""
    n, m = x.shape
    jet = encode_jet(x, net.encoding)
    blocks = 2 * net.encoding.bands + 1
    cols = [np.arange(blocks) * m + j for j in range(m)]
    a, da, d2a = jet.values, None, None
    for w, b, fac in zip(net.weights, net.biases, net.sine_factors):
        z = a @ w.T + b
        if da is None:
            dz = np.empty((n, m, w.shape[0]))
            d2z = np.zeros((n, m, m, w.shape[0]))
            for j in range(m):
                dz[:, j, :] = jet.d1[:, cols[j]] @ w[:, cols[j]].T
                d2z[:, j, j, :] = jet.d2[:, cols[j]] @ w[:, cols[j]].T
        else:
            dz = (da.reshape(n * m, -1) @ w.T).reshape(n, m, w.shape[0])
            d2z = (d2a.reshape(n * m * m, -1) @ w.T).reshape(n, m, m, w.shape[0])
        if fac == 0.0:
            a, da, d2a = z, dz, d2z
        else:
            arg = fac * z
            a = np.sin(arg)
            c1 = fac * np.cos(arg)
            c2 = -(fac * fac) * a
            da = c1[:, None, :] * dz
            d2a = c1[:, None, None, :] * d2z
            d2a += c2[:, None, None, :] * (dz[:, :, None, :] * dz[:, None, :, :])
    return a[:, 0], da[:, :, 0], d2a[:, :, :, 0]


@pytest.mark.parametrize("dim", [2, 3])
def test_upper_triangle_hessian_matches_full_square(dim):
    # 64 rows keep every BLAS row count (64 * m(m+1)/2 and 64 * m * m) a
    # multiple of the kernel unroll, so no row lands in an edge kernel and
    # the two layouts round identically.
    net = init_field(seed=6, dim=dim, hidden=32, hidden_layers=3, encoding=default_encoding(5))
    pts = np.random.default_rng(7).uniform(-1, 1, size=(64, dim))
    vals, grads, hess = jet_batch(net, pts)
    v_ref, g_ref, h_ref = _full_square_forward(net, pts)
    assert np.array_equal(vals, v_ref)
    assert np.array_equal(grads, g_ref)
    assert np.array_equal(hess, h_ref)
    assert np.array_equal(hess, np.swapaxes(hess, 1, 2))
