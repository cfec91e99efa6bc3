from dataclasses import replace

import numpy as np
import pytest

from scanfield import field
from scanfield.encoding import default_encoding, encode_jet, sincos
from scanfield.field import (
    backprop,
    evaluate_batch,
    grad_batch,
    init_field,
    jet_batch,
)
from scanfield.targets import SupervisionMode, compute_targets


def test_default_parameter_count():
    net = init_field(seed=0, dim=3)
    # 183 features -> 128 -> 128 -> 128 -> 128 -> 1
    assert net.params.size == 73_217


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


@pytest.mark.parametrize("dim", [2, 3])
def test_init_matches_per_layer_draws(dim):
    # The flat vector holds, bitwise, the per-layer draws: each layer's weight
    # matrix and then its bias, from one generator.
    net = init_field(seed=17, dim=dim, hidden=24, hidden_layers=3, encoding=default_encoding(5),
                     first_factor=12.0)
    rng = np.random.default_rng(17)
    fan_in = 11 * dim
    for li, (width, factor) in enumerate([(24, 12.0), (24, 1.0), (24, 1.0), (1, 0.0)]):
        bound = 1.0 / fan_in if li == 0 else np.sqrt(6.0 / fan_in)
        if li > 0 and factor > 0.0:
            bound /= factor
        w = rng.uniform(-bound, bound, size=(width, fan_in))
        b = rng.uniform(-bound, bound, size=width)
        assert np.array_equal(net.weights[li], w)
        assert np.array_equal(net.biases[li], b)
        fan_in = width
    assert net.widths == (24, 24, 24, 1)
    assert net.sine_factors == (12.0, 1.0, 1.0, 0.0)


def test_shape_validation():
    net = init_field(seed=0, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(2))
    with pytest.raises(ValueError, match="parameters"):
        replace(net, params=net.params[:-1])
    with pytest.raises(ValueError, match="one scalar"):
        replace(net, widths=(8, 8, 2), params=np.zeros(net.params.size + 9))
    bad = net.params.copy()
    bad[100] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        replace(net, params=bad)
    with pytest.raises(ValueError, match="non-finite sine factors"):
        replace(net, sine_factors=(np.nan,) + net.sine_factors[1:])


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
    v2, g2, _, _ = jet_batch(net, pts)
    assert np.array_equal(v0, v1)
    assert np.array_equal(v0, v2)
    assert np.array_equal(g1, g2)


def test_chunking_is_invisible(monkeypatch):
    net = init_field(seed=2, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(3))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(33, 2))
    vbar = rng.normal(size=33)
    gbar = rng.normal(size=(33, 2))
    ref_v = evaluate_batch(net, pts)
    vb, gb, tb, qb = jet_batch(net, pts)
    ref_p = [backprop(net, pts, vbar, g) for g in (gbar, None)]
    for block in (5, 7):
        monkeypatch.setattr(field, "BLOCK", block)
        np.testing.assert_allclose(evaluate_batch(net, pts), ref_v, rtol=1e-13, atol=1e-14)
        va, ga, ta, qa = jet_batch(net, pts)
        np.testing.assert_allclose(va, vb, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(ga, gb, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(ta, tb, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(qa, qb, rtol=1e-11, atol=1e-12)
        # backprop keeps its forward record and gradient sum for one block
        # only; the sum over blocks must not depend on where the blocks end.
        for g, pb in zip((gbar, None), ref_p):
            np.testing.assert_allclose(backprop(net, pts, vbar, g), pb, rtol=1e-12)


def test_jet_matches_finite_differences():
    # The analytic jet is exact; central differences carry truncation error
    # ~ (omega_eff * h)^2 / 6, so the check uses moderate frequencies where
    # that error sits well below the tolerance.  Errors are norm-based per
    # point (elementwise ratios blow up on near-zero components): tr H and
    # gᵀHg against the same contractions of the finite-difference Hessian,
    # relative to its norm (times |g|² for gᵀHg).
    h = 1e-3
    for dim in (2, 3):
        net = init_field(
            seed=11, dim=dim, hidden=24, hidden_layers=3,
            encoding=default_encoding(3), first_factor=1.0,
        )
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1, 1, size=(20, dim))
        vals, grads, trace, ghg = jet_batch(net, pts)
        g_fd = np.zeros_like(grads)
        h_fd = np.zeros((20, dim, dim))
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = h
            vp = evaluate_batch(net, pts + step)
            vm = evaluate_batch(net, pts - step)
            g_fd[:, j] = (vp - vm) / (2 * h)
            h_fd[:, j, j] = (vp - 2 * vals + vm) / h**2
            for k in range(j + 1, dim):
                stepk = np.zeros(dim)
                stepk[k] = h
                cross = (
                    evaluate_batch(net, pts + step + stepk)
                    - evaluate_batch(net, pts + step - stepk)
                    - evaluate_batch(net, pts - step + stepk)
                    + evaluate_batch(net, pts - step - stepk)
                ) / (4 * h * h)
                h_fd[:, j, k] = h_fd[:, k, j] = cross
        trace_fd, ghg_fd = _contract(grads, h_fd)
        for i in range(pts.shape[0]):
            scale = np.linalg.norm(h_fd[i])
            ge = np.linalg.norm(grads[i] - g_fd[i]) / np.linalg.norm(g_fd[i])
            te = abs(trace[i] - trace_fd[i]) / scale
            qe = abs(ghg[i] - ghg_fd[i]) / (scale * (grads[i] @ grads[i]))
            assert ge < 1e-4, (dim, i, ge)
            assert te < 1e-4, (dim, i, te)
            assert qe < 1e-4, (dim, i, qe)


def _perturbed(net, k, h):
    params = net.params.copy()
    params[k] += h
    return replace(net, params=params)


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
    # Each layer's weight and bias entries, as indices into the flat vector.
    index = net.layers(np.arange(net.params.size))
    h = 1e-6
    for li in (0, 1, 2):
        w, b = index[li]
        for _ in range(5):
            k = w[rng.integers(w.shape[0]), rng.integers(w.shape[1])]
            fd = (objective(_perturbed(net, k, h)) - objective(_perturbed(net, k, -h))) / (2 * h)
            assert abs(grads[k] - fd) < 1e-5 * max(1.0, abs(fd)), (li, k)
        k = b[rng.integers(b.shape[0])]
        fd = (objective(_perturbed(net, k, h)) - objective(_perturbed(net, k, -h))) / (2 * h)
        assert abs(grads[k] - fd) < 1e-5 * max(1.0, abs(fd))


def test_backprop_3d_matches_parameter_finite_differences():
    # The test above runs at m = 2; here the first layer's tangent
    # interleaves three coordinates per encoder block (feature b*m + j).
    net = init_field(seed=5, dim=3, hidden=6, hidden_layers=2, encoding=default_encoding(2))
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(6, 3))
    vbar = rng.normal(size=6)
    gbar = rng.normal(size=(6, 3))

    def objective(n):
        v, g = grad_batch(n, pts)
        return float(np.sum(vbar * v) + np.sum(gbar * g))

    grads = backprop(net, pts, vbar, gbar)
    h = 1e-6
    # Every entry of layer 0, which holds the tangent layout, and samples of the rest.
    w0, b0 = net.layers(np.arange(net.params.size))[0]
    keys = list(w0.ravel()) + list(b0) + list(rng.choice(np.arange(b0[-1] + 1, net.params.size), 12))
    for k in keys:
        fd = (objective(_perturbed(net, k, h)) - objective(_perturbed(net, k, -h))) / (2 * h)
        assert abs(grads[k] - fd) < 1e-5 * max(1.0, abs(fd)), k
    # A zero grad_bar runs the tangent track but must add nothing to it.
    value_only = backprop(net, pts, vbar, None)
    np.testing.assert_allclose(backprop(net, pts, vbar, np.zeros_like(gbar)), value_only,
                               rtol=1e-14, atol=1e-15 * np.abs(value_only).max())


def test_backprop_value_only():
    net = init_field(seed=1, dim=2, hidden=5, hidden_layers=1, encoding=default_encoding(2))
    pts = np.array([[0.1, 0.2], [0.3, -0.4]])
    vbar = np.array([1.0, -2.0])
    grads = backprop(net, pts, vbar, None)
    h = 1e-6

    def obj(n):
        return float(np.sum(vbar * evaluate_batch(n, pts)))

    # params[0] is layer 0's weight [0, 0].
    fd = (obj(_perturbed(net, 0, h)) - obj(_perturbed(net, 0, -h))) / (2 * h)
    assert abs(grads[0] - fd) < 1e-6 * max(1.0, abs(fd))


def test_jet_one_row_matches_batch():
    # One row and a batch reach BLAS with different matrix shapes, so they
    # agree to rounding (tolerances of test_chunking_is_invisible).
    net = init_field(seed=4, dim=2, hidden=8, hidden_layers=2, encoding=default_encoding(3))
    pts = np.array([[0.25, -0.5], [0.1, 0.7], [-0.3, 0.2]])
    v, g, t, q = jet_batch(net, pts)
    for i in range(pts.shape[0]):
        vi, gi, ti, qi = jet_batch(net, pts[i : i + 1])
        np.testing.assert_allclose(vi[0], v[i], rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(gi[0], g[i], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(ti[0], t[i], rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(qi[0], q[i], rtol=1e-11, atol=1e-12)


def _full_square_forward(net, x):
    """Reference jet that carries all m*m Hessian entries through every layer."""
    n, m = x.shape
    jet = encode_jet(x, net.encoding)
    blocks = 2 * net.encoding.bands + 1
    cols = [np.arange(blocks) * m + j for j in range(m)]
    w0 = [net.weights[0][:, c] for c in cols]
    a, da, d2a = jet.values, None, None
    for w, b, fac in zip(net.weights, net.biases, net.sine_factors):
        z = a @ w.T + b
        if da is None:
            dz = np.empty((n, m, w.shape[0]))
            d2z = np.zeros((n, m, m, w.shape[0]))
            for j in range(m):
                dz[:, j, :] = jet.d1[j] @ w0[j].T
                d2z[:, j, j, :] = jet.d2[j] @ w0[j].T
        else:
            dz = (da.reshape(n * m, -1) @ w.T).reshape(n, m, w.shape[0])
            d2z = (d2a.reshape(n * m * m, -1) @ w.T).reshape(n, m, m, w.shape[0])
        if fac == 0.0:
            a, da, d2a = z, dz, d2z
        else:
            a, c1 = sincos(fac * z)
            c1 = fac * c1
            c2 = -(fac * fac) * a
            da = c1[:, None, :] * dz
            d2a = c1[:, None, None, :] * d2z
            d2a += c2[:, None, None, :] * (dz[:, :, None, :] * dz[:, None, :, :])
    return a[:, 0], da[:, :, 0], d2a[:, :, :, 0]


def _contract(grads, hess):
    return np.einsum("sii->s", hess), np.einsum("si,sij,sj->s", grads, hess, grads)


def _assert_close_to_max(new, ref, rel):
    # The contractions are sums of terms of either sign, so their rounding is
    # relative to the largest of them, not to each entry.
    assert np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_terms_match_full_square(dim):
    # 64 rows keep every BLAS row count a multiple of the kernel unroll, so
    # no row lands in an edge kernel and the value and gradient tracks round
    # as in the oracle.  tr H and gᵀHg come from the Laplacian and directional
    # slabs, not from the oracle's m * m Hessian, so they agree to rounding.
    net = init_field(seed=6, dim=dim)
    pts = np.random.default_rng(7).uniform(-1, 1, size=(64, dim))
    vals, grads, trace, ghg = jet_batch(net, pts)
    v_ref, g_ref, h_ref = _full_square_forward(net, pts)
    assert np.array_equal(vals, v_ref)
    assert np.array_equal(grads, g_ref)
    for new, ref in zip((trace, ghg), _contract(g_ref, h_ref)):
        _assert_close_to_max(new, ref, 1e-13)


def test_curvature_targets_match_full_square():
    # On the default 3D net the contractions' rounding must not move a
    # fallback decision or a target: same degenerate mask as with the
    # oracle's Hessians, d_hat within 1e-12.  Endpoints lie roughly along
    # the field's normal, at distances of the order of its curvature radii
    # (a few hundredths at init), so both outcomes occur.
    net = init_field(seed=23, dim=3)
    rng = np.random.default_rng(24)
    pts = rng.uniform(-1, 1, size=(2085, 3))
    vals, grads, trace, ghg = jet_batch(net, pts)
    v_ref, g_ref, h_ref = _full_square_forward(net, pts)
    dirs = -grads / np.linalg.norm(grads, axis=1)[:, None] + 0.7 * rng.normal(size=(2085, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ends = pts + rng.uniform(0.002, 0.1, size=(2085, 1)) * dirs
    mode = SupervisionMode.CURVATURE_CONSTRAINED
    new = compute_targets(mode, vals, grads, (trace, ghg), pts, ends, tau=0.2, gamma=3.0)
    ref = compute_targets(mode, v_ref, g_ref, _contract(g_ref, h_ref), pts, ends, tau=0.2, gamma=3.0)
    assert 0 < np.count_nonzero(ref.degenerate) < ref.degenerate.size
    assert np.array_equal(new.degenerate, ref.degenerate)
    np.testing.assert_allclose(new.d_hat, ref.d_hat, rtol=0.0, atol=1e-12)


# The field passes as they were with 2,048-row chunks (8,192 for values) and a
# feature-major encoder, kept as the reference for the row-block passes.  Like
# _full_square_forward they take their sines from the shared ``sincos``
# kernel: they pin layout and blocking, not the trig routine.
_OLD_JET_CHUNK = 2048
_OLD_VALUE_CHUNK = 8192


def _old_encode(x, cfg, order):
    n, m = x.shape
    f = (2 * cfg.bands + 1) * m
    values = np.empty((n, f))
    d1 = np.empty((n, f)) if order >= 1 else None
    d2 = np.empty((n, f)) if order >= 2 else None
    values[:, :m] = x
    if d1 is not None:
        d1[:, :m] = 1.0
    if d2 is not None:
        d2[:, :m] = 0.0
    for k, w in enumerate(cfg.frequencies):
        s, c = sincos(w * x)
        lo = (1 + 2 * k) * m
        values[:, lo : lo + m] = s
        values[:, lo + m : lo + 2 * m] = c
        if d1 is not None:
            d1[:, lo : lo + m] = w * c
            d1[:, lo + m : lo + 2 * m] = -w * s
        if d2 is not None:
            d2[:, lo : lo + m] = -(w * w) * s
            d2[:, lo + m : lo + 2 * m] = -(w * w) * c
    return values, d1, d2


def _old_cols(net):
    blocks = 2 * net.encoding.bands + 1
    return [np.arange(blocks) * net.dim + j for j in range(net.dim)]


def _old_forward(net, x, order, record=None):
    n, m = x.shape
    values, d1, d2 = _old_encode(x, net.encoding, order)
    cols = _old_cols(net)
    iu, ju = np.triu_indices(m)
    diag = np.flatnonzero(iu == ju)
    a, da, d2a = values, d1, None
    for li in range(net.layer_count):
        w, b, fac = net.weights[li], net.biases[li], net.sine_factors[li]
        a_in, da_in = a, da
        z = a @ w.T + b
        dz = d2z = fac_cos = None
        if order >= 1:
            if li == 0:
                dz = np.empty((n, m, w.shape[0]))
                for j in range(m):
                    dz[:, j, :] = d1[:, cols[j]] @ w[:, cols[j]].T
            else:
                dz = (da.reshape(n * m, -1) @ w.T).reshape(n, m, w.shape[0])
        if order >= 2:
            if li == 0:
                d2z = np.zeros((n, iu.size, w.shape[0]))
                for j in range(m):
                    d2z[:, diag[j], :] = d2[:, cols[j]] @ w[:, cols[j]].T
            else:
                d2z = (d2a.reshape(n * iu.size, -1) @ w.T).reshape(n, iu.size, w.shape[0])
        if fac == 0.0:
            a, da, d2a = z, dz, d2z
        else:
            s, cos = sincos(fac * z)
            a = s
            if order >= 1 or record is not None:
                fac_cos = fac * cos
            if order >= 1:
                da = fac_cos[:, None, :] * dz
            if order >= 2:
                c2 = -(fac * fac) * s
                d2a = d2z
                d2a *= fac_cos[:, None, :]
                for j in range(m):
                    prod = dz[:, j, None, :] * dz[:, j:, :]
                    prod *= c2[:, None, :]
                    d2a[:, diag[j] : diag[j] + m - j, :] += prod
        if record is not None:
            record.append((a_in, da_in, fac_cos, dz))
    val = a[:, 0]
    grad = da[:, :, 0] if order >= 1 else None
    hess = None
    if order >= 2:
        hess = np.empty((n, m, m))
        hess[:, iu, ju] = d2a[:, :, 0]
        hess[:, ju, iu] = d2a[:, :, 0]
    return val, grad, hess


def _old_backward_chunk(net, x, vbar, gbar, out):
    n, m = x.shape
    with_grad = gbar is not None
    record = []
    _old_forward(net, x, 1 if with_grad else 0, record)
    cols = _old_cols(net)
    zbar = vbar[:, None].copy()
    dzbar = gbar[:, :, None].copy() if with_grad else None
    for li in range(net.layer_count - 1, -1, -1):
        w = net.weights[li]
        gw, gb = out[li]
        a_in, da_in = record[li][:2]
        gb += zbar.sum(axis=0)
        gw += zbar.T @ a_in
        if with_grad:
            flat_dzbar = dzbar.reshape(n * m, w.shape[0])
            if li == 0:
                for j in range(m):
                    gw[:, cols[j]] += dzbar[:, j, :].T @ da_in[:, cols[j]]
            else:
                gw += flat_dzbar.T @ da_in.reshape(n * m, -1)
        if li == 0:
            break
        abar = zbar @ w
        dabar = flat_dzbar @ w if with_grad else None
        facp = net.sine_factors[li - 1]
        _, _, fac_cos, dzp = record[li - 1]
        zbar = fac_cos * abar
        if with_grad:
            dabar = dabar.reshape(n, m, -1)
            zbar += np.sum(dabar * dzp, axis=1) * (-(facp * facp) * a_in)
            dzbar = fac_cos[:, None, :] * dabar


def _old_passes(net, x, vbar, gbar):
    n = x.shape[0]
    value = np.concatenate([
        _old_forward(net, x[lo : lo + _OLD_VALUE_CHUNK], 0)[0]
        for lo in range(0, n, _OLD_VALUE_CHUNK)
    ])
    chunks = [slice(lo, lo + _OLD_JET_CHUNK) for lo in range(0, n, _OLD_JET_CHUNK)]
    grad = [np.concatenate(t) for t in zip(*(_old_forward(net, x[c], 1)[:2] for c in chunks))]
    jet = [np.concatenate(t) for t in zip(*(_old_forward(net, x[c], 2) for c in chunks))]
    grads = []
    for g in (gbar, None):
        out = np.zeros_like(net.params)
        for c in chunks:
            _old_backward_chunk(net, x[c], vbar[c], None if g is None else g[c], net.layers(out))
        grads.append(out)
    return value, grad, jet, grads


@pytest.mark.parametrize(
    "dim, rows, kwargs",
    [
        (3, 2085, {}),  # default 3D net
        (2, 2597, {"encoding": default_encoding(8), "hidden": 64, "hidden_layers": 3}),
        # 5 rows past a whole block: BLAS rounds a few-row matmul differently
        (2, 2309, {"encoding": default_encoding(8), "hidden": 64, "hidden_layers": 3}),
    ],
)
def test_row_blocks_match_old_chunking(dim, rows, kwargs):
    # Every pass is row-independent, so the row blocks must reproduce the
    # old chunks bitwise; only backprop's gradient sum is grouped per block.
    net = init_field(seed=21, dim=dim, **kwargs)
    rng = np.random.default_rng(22)
    pts = rng.uniform(-1, 1, size=(rows, dim))
    vbar = rng.normal(size=rows)
    gbar = rng.normal(size=(rows, dim))
    value, grad, jet, grads = _old_passes(net, pts, vbar, gbar)
    assert np.array_equal(evaluate_batch(net, pts), value)
    for new, old in zip(grad_batch(net, pts), grad):
        assert np.array_equal(new, old)
    new_jet = jet_batch(net, pts)
    for new, old in zip(new_jet[:2], jet[:2]):
        assert np.array_equal(new, old)
    for new, old in zip(new_jet[2:], _contract(jet[1], jet[2])):
        _assert_close_to_max(new, old, 1e-13)
    for g, old in zip((gbar, None), grads):
        new = backprop(net, pts, vbar, g)
        for new_layer, old_layer in zip(net.layers(new), net.layers(old)):
            for x, y in zip(new_layer, old_layer):
                # Entries that are sums of cancelling terms keep an absolute
                # error of the order of the terms, so the bound is relative to
                # the weight or bias array.
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())
