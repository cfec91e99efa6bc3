import ctypes
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scanfield import field
from scanfield.encoding import EncodingConfig, encode_jet, sincos
from scanfield.field import (
    backprop,
    evaluate_batch,
    grad_batch,
    init_field,
    jet_batch,
)
from scanfield.targets import SupervisionMode, compute_targets


def _block_rows(net):
    # The rows of one block of the net's passes: BLOCK_WORK is rows x width.
    return field.BLOCK_WORK // net.hidden


def test_default_parameter_count():
    net = init_field(seed=0, dim=3)
    # 183 features -> 128 -> 128 -> 128 -> 128 -> 1
    assert net.params.size == 73_217


def test_layer_factors():
    net = init_field(seed=0, dim=3)
    layers = net.layers()
    assert [fac for _, _, fac in layers] == [30.0, 1.0, 1.0, 1.0, 0.0]
    assert layers[0][0].shape == (128, 183)
    assert layers[-1][0].shape == (1, 128)


def test_init_is_seed_deterministic():
    a = init_field(seed=7, dim=2)
    b = init_field(seed=7, dim=2)
    c = init_field(seed=8, dim=2)
    for (wa, _, _), (wb, _, _) in zip(a.layers(), b.layers()):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for (wa, _, _), (wc, _, _) in zip(a.layers(), c.layers()))


def test_first_layer_bound_scales_with_fan_in():
    net = init_field(seed=0, dim=3)
    assert np.max(np.abs(net.layers()[0][0])) <= 1.0 / 183
    # deeper sine layers shrink their init by the frequency factor 1 (none here)
    assert np.max(np.abs(net.layers()[1][0])) <= np.sqrt(6.0 / 128)


@pytest.mark.parametrize("dim", [2, 3])
def test_init_matches_per_layer_draws(dim):
    # The flat vector holds, bitwise, the per-layer draws: each layer's weight
    # matrix and then its bias, from one generator.
    net = init_field(seed=17, dim=dim, hidden=24, hidden_layers=3, encoding=EncodingConfig(5),
                     first_factor=12.0)
    rng = np.random.default_rng(17)
    fan_in = 11 * dim
    for li, (width, factor) in enumerate([(24, 12.0), (24, 1.0), (24, 1.0), (1, 0.0)]):
        bound = 1.0 / fan_in if li == 0 else np.sqrt(6.0 / fan_in)
        if li > 0 and factor > 0.0:
            bound /= factor
        w = rng.uniform(-bound, bound, size=(width, fan_in))
        b = rng.uniform(-bound, bound, size=width)
        assert np.array_equal(net.layers()[li][0], w)
        assert np.array_equal(net.layers()[li][1], b)
        fan_in = width
    assert [(w.shape[0], fac) for w, _, fac in net.layers()] == [(24, 12.0), (24, 1.0), (24, 1.0), (1, 0.0)]


def test_shape_validation():
    net = init_field(seed=0, dim=2, hidden=8, hidden_layers=2, encoding=EncodingConfig(2))
    assert [(w.shape[0], fac) for w, _, fac in net.layers()] == [(8, 30.0), (8, 1.0), (1, 0.0)]
    for change in ({"params": net.params[:-1]}, {"hidden": 9}, {"hidden_layers": 3},
                   {"dim": 3}, {"encoding": EncodingConfig(3)}):
        with pytest.raises(ValueError, match="parameters"):
            replace(net, **change)
    for change in ({"dim": 0}, {"hidden": 0}, {"hidden_layers": 0}):
        with pytest.raises(ValueError, match="need a dimension"):
            replace(net, **change)
        with pytest.raises(ValueError, match="need a dimension"):
            init_field(seed=0, **{"dim": 2, **change})
    bad = net.params.copy()
    bad[100] = np.nan
    with pytest.raises(ValueError, match="non-finite parameters"):
        replace(net, params=bad)
    with pytest.raises(ValueError, match="non-finite first-layer factor"):
        replace(net, first_factor=np.nan)


def test_scalar_and_batch_agree():
    # BLAS picks different reduction orders for different matrix shapes, so
    # cross-shape agreement is to rounding, not bitwise; identical calls are
    # bitwise repeatable.
    net = init_field(seed=3, dim=3, hidden=16, hidden_layers=2, encoding=EncodingConfig(4))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(10, 3))
    vals = evaluate_batch(net, pts)
    for i in range(10):
        assert abs(evaluate_batch(net, pts[i : i + 1])[0] - vals[i]) < 1e-12
    assert np.array_equal(vals, evaluate_batch(net, pts))


def test_value_track_independent_of_order():
    # Asking for derivatives must not perturb the scalar output at all.
    net = init_field(seed=5, dim=2, hidden=16, hidden_layers=3, encoding=EncodingConfig(4))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(32, 2))
    v0 = evaluate_batch(net, pts)
    v1, g1 = grad_batch(net, pts)
    v2, g2, _, _ = jet_batch(net, pts)
    assert np.array_equal(v0, v1)
    assert np.array_equal(v0, v2)
    assert np.array_equal(g1, g2)


def test_chunking_is_invisible(monkeypatch):
    net = init_field(seed=2, dim=2, hidden=8, hidden_layers=2, encoding=EncodingConfig(3))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(33, 2))
    vbar = rng.normal(size=33)
    gbar = rng.normal(size=(33, 2))
    ref_v = evaluate_batch(net, pts)
    vb, gb, tb, qb = jet_batch(net, pts)
    ref_p = [backprop(net, pts, vbar, g) for g in (gbar, None)]
    for block in (5, 7):
        monkeypatch.setattr(field, "BLOCK_WORK", block * net.hidden)
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
            encoding=EncodingConfig(3), first_factor=1.0,
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
    net = init_field(seed=9, dim=2, hidden=6, hidden_layers=2, encoding=EncodingConfig(2))
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
        w, b, _ = index[li]
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
    net = init_field(seed=5, dim=3, hidden=6, hidden_layers=2, encoding=EncodingConfig(2))
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
    w0, b0, _ = net.layers(np.arange(net.params.size))[0]
    keys = list(w0.ravel()) + list(b0) + list(rng.choice(np.arange(b0[-1] + 1, net.params.size), 12))
    for k in keys:
        fd = (objective(_perturbed(net, k, h)) - objective(_perturbed(net, k, -h))) / (2 * h)
        assert abs(grads[k] - fd) < 1e-5 * max(1.0, abs(fd)), k
    # A zero grad_bar runs the tangent track but must add nothing to it.
    value_only = backprop(net, pts, vbar, None)
    np.testing.assert_allclose(backprop(net, pts, vbar, np.zeros_like(gbar)), value_only,
                               rtol=1e-14, atol=1e-15 * np.abs(value_only).max())


def test_backprop_value_only():
    net = init_field(seed=1, dim=2, hidden=5, hidden_layers=1, encoding=EncodingConfig(2))
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
    net = init_field(seed=4, dim=2, hidden=8, hidden_layers=2, encoding=EncodingConfig(3))
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
    w0 = [net.layers()[0][0][:, c] for c in cols]
    a, da, d2a = jet.values, None, None
    for w, b, fac in net.layers():
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
    for li, (w, b, fac) in enumerate(net.layers()):
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
    layers = net.layers()
    for li in range(len(layers) - 1, -1, -1):
        w = layers[li][0]
        gw, gb, _ = out[li]
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
        facp = layers[li - 1][2]
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
        (2, 2597, {"encoding": EncodingConfig(8), "hidden": 64, "hidden_layers": 3}),
        # 5 rows past a whole block: BLAS rounds a few-row matmul differently
        (2, 2309, {"encoding": EncodingConfig(8), "hidden": 64, "hidden_layers": 3}),
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
            for x, y in zip(new_layer[:2], old_layer[:2]):
                # Entries that are sums of cancelling terms keep an absolute
                # error of the order of the terms, so the bound is relative to
                # the weight or bias array.
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())


def _reference_backward_block(net, x, vbar, gbar, out):
    # The reverse pass as it was with its own forward loop over the layers,
    # kept as the reference that backprop's single forward walk must match.
    n = x.shape[0]
    with_grad = gbar is not None
    jet = encode_jet(x, net.encoding, 1 if with_grad else 0)
    a, t = jet.values, None
    if with_grad:
        t = (jet.d1.transpose(1, 2, 0) * gbar[:, None, :]).reshape(n, -1)
    record = []
    for w, b, fac in net.layers():
        a_in, t_in = a, t
        z = a @ w.T + b
        tz = t @ w.T if with_grad else None
        fac_cos = None
        if fac == 0.0:
            a, t = z, tz
        else:
            a, fac_cos = sincos(fac * z)
            fac_cos *= fac
            if with_grad:
                t = fac_cos * tz
        record.append((a_in, t_in, fac_cos, tz))
    zbar = vbar[:, None]
    tbar = np.ones((n, 1)) if with_grad else None
    layers = net.layers()
    for li in range(len(layers) - 1, -1, -1):
        (gw, gb, _), (a_in, t_in, _, _), (w, _, _) = out[li], record[li], layers[li]
        gb += zbar.sum(axis=0)
        gw += zbar.T @ a_in
        if with_grad:
            gw += tbar.T @ t_in
        if li == 0:
            break
        facp = layers[li - 1][2]
        _, _, fac_cos, tzp = record[li - 1]
        zbar = fac_cos * (zbar @ w)
        if with_grad:
            tabar = tbar @ w
            zbar += tabar * tzp * (-(facp * facp) * a_in)
            tbar = fac_cos * tabar


@pytest.mark.parametrize(
    "dim, rows, kwargs",
    [
        (3, 2085, {}),  # default 3D net
        (2, 2309, {"encoding": EncodingConfig(8), "hidden": 64, "hidden_layers": 3}),
        (2, 300, {}),  # one block that is not a whole block
    ],
)
def test_backprop_matches_reference_walk_bitwise(dim, rows, kwargs):
    net = init_field(seed=23, dim=dim, **kwargs)
    rng = np.random.default_rng(24)
    pts = rng.uniform(-1, 1, size=(rows, dim))
    vbar = rng.normal(size=rows)
    gbar = rng.normal(size=(rows, dim))
    for g in (gbar, None):
        ref = np.zeros_like(net.params)
        for lo, hi in field._blocks(net, rows):
            _reference_backward_block(net, pts[lo:hi], vbar[lo:hi], None if g is None else g[lo:hi], net.layers(ref))
        assert np.array_equal(backprop(net, pts, vbar, g), ref)


def test_backprop_walks_forward_once_per_block(monkeypatch):
    # The reverse sweep reads its activations from _forward's record; it runs
    # no layer loop of its own.
    net = init_field(seed=25, dim=2, encoding=EncodingConfig(4), hidden=16, hidden_layers=2)
    rng = np.random.default_rng(26)
    rows = 3 * _block_rows(net) + 7
    pts = rng.uniform(-1, 1, size=(rows, 2))
    calls = []
    original = field._forward

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", counting)
    for g in (rng.normal(size=(rows, 2)), None):
        calls.clear()
        backprop(net, pts, rng.normal(size=rows), g)
        assert calls == [hi - lo for lo, hi in field._blocks(net, rows)]


def _passes(net, pts, vbar, gbar):
    return [evaluate_batch(net, pts), *grad_batch(net, pts), *jet_batch(net, pts),
            backprop(net, pts, vbar, gbar), backprop(net, pts, vbar)]


def _assert_pooled_passes_match_sequential(net, rows, threads, meeting, monkeypatch):
    # Each block writes its own rows, and backprop adds the blocks' terms in
    # block order, so the thread count cannot move a bit.  A pooled pass
    # holds its first two threads' first blocks until both have come, so it
    # runs on two threads for certain.
    rng = np.random.default_rng(28)
    pts = rng.uniform(-1, 1, size=(rows, net.dim))
    vbar = rng.normal(size=rows)
    gbar = rng.normal(size=(rows, net.dim))
    ran_on = set()
    meet = None
    forward = field._forward

    def recording(*args, **kwargs):
        ran_on.add(threading.get_ident())
        if meet is not None:
            meet()
        return forward(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", recording)
    pooled = len(list(field._blocks(net, rows))) > 1
    threads(1)
    ref = _passes(net, pts, vbar, gbar)
    assert ran_on == {threading.get_ident()}
    for workers in (2, 3):
        threads(workers)
        ran_on.clear()
        meet = meeting() if pooled else None
        for new, old in zip(_passes(net, pts, vbar, gbar), ref):
            assert np.array_equal(new, old)
        if pooled:
            assert 1 < len(ran_on) <= workers
        else:
            assert ran_on == {threading.get_ident()}


@pytest.mark.parametrize("rows", [1, 255, 511, 512, 3000])
def test_pooled_passes_match_sequential_bitwise(rows, threads, meeting, monkeypatch):
    net = init_field(seed=27, dim=3)
    assert _block_rows(net) == 256
    _assert_pooled_passes_match_sequential(net, rows, threads, meeting, monkeypatch)


@pytest.mark.parametrize("rows", ["1", "r-1", "r", "2r-1", "2r", "3000"])
def test_64_wide_passes_pool_and_match_sequential_bitwise(rows, threads, meeting, monkeypatch):
    # The room2d benchmark's net: r-row blocks twice as tall as the default
    # net's, on the pool like any other width.
    net = init_field(seed=27, dim=2, encoding=EncodingConfig(8), hidden=64, hidden_layers=3)
    r = _block_rows(net)
    rows = {"1": 1, "r-1": r - 1, "r": r, "2r-1": 2 * r - 1, "2r": 2 * r, "3000": 3000}[rows]
    _assert_pooled_passes_match_sequential(net, rows, threads, meeting, monkeypatch)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sets_in_one_dispatch_equal_each_set_alone(workers, threads):
    # Each set is cut into blocks as it would be alone, whatever runs beside
    # it; side results follow the sets' in order.
    net = init_field(seed=44, dim=2, encoding=EncodingConfig(8), hidden=64, hidden_layers=3)
    rng = np.random.default_rng(45)
    r = _block_rows(net)
    pts = [rng.uniform(-1, 1, size=(rows, 2)) for rows in (2 * r + 3, r - 5, 3 * r)]
    vbar = [rng.normal(size=len(x)) for x in pts]
    gbar = [rng.normal(size=x.shape) for x in pts]
    threads(1)
    alone = [jet_batch(net, pts[0]), grad_batch(net, pts[1]), (evaluate_batch(net, pts[2]),)]
    grads = [backprop(net, pts[0], vbar[0], gbar[0]), backprop(net, pts[1], vbar[1]),
             backprop(net, pts[2], vbar[2], gbar[2])]
    threads(workers)
    *outs, first, second = field.forward_sets(net, [(pts[0], 2), (pts[1], 1), (pts[2], 0)],
                                              [lambda: "first", lambda: "second"])
    assert (first, second) == ("first", "second")
    assert [len(out) for out in outs] == [4, 2, 1]
    for out, ref in zip(outs, alone):
        for a, b in zip(out, ref):
            assert np.array_equal(a, b)
    got = field.backprop_sets(net, [(pts[0], vbar[0], gbar[0]), (pts[1], vbar[1], None),
                                    (pts[2], vbar[2], gbar[2])])
    assert len(got) == 3
    for a, b in zip(got, grads):
        assert np.array_equal(a, b)


def test_pooled_backprop_under_frequent_thread_switches(threads):
    # More threads than cores, switching every microsecond: a lost update of
    # the shared task counters would skip, repeat or reorder a block's terms,
    # or add them to the other set's gradient.
    net = init_field(seed=41, dim=2, hidden=96, hidden_layers=2, encoding=EncodingConfig(4))
    rows = 40 * _block_rows(net)
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1, 1, size=(rows, 2))
    vbar = rng.normal(size=rows)
    gbar = rng.normal(size=(rows, 2))
    sets = [(pts, vbar, gbar), (pts[::4], vbar[::4], None)]
    threads(1)
    expected = field.backprop_sets(net, sets)
    threads(4)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=lambda: results.extend(field.backprop_sets(net, sets) for _ in range(3)))
        caller.start()
        caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(results) == 3
    for got in results:
        assert len(got) == 2
        for grad, ref in zip(got, expected):
            assert np.array_equal(grad, ref)


def test_worker_error_reaches_the_caller(threads, meeting, monkeypatch):
    net = init_field(seed=31, dim=2)
    pts = np.random.default_rng(32).uniform(-1, 1, size=(3 * _block_rows(net), 2))
    err = FloatingPointError("non-finite block")
    forward = field._forward
    main = threading.get_ident()
    meet = None

    def failing(*args, **kwargs):
        meet()
        if threading.get_ident() != main:
            raise err
        return forward(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", failing)
    threads(2)
    for call in (lambda: jet_batch(net, pts), lambda: backprop(net, pts, np.ones(len(pts)))):
        meet = meeting()
        with pytest.raises(FloatingPointError) as caught:
            call()
        assert caught.value is err
        assert len(meet.threads) == 2


def test_workers_run_under_the_callers_error_state(threads, meeting, monkeypatch):
    net = init_field(seed=33, dim=2)
    pts = np.random.default_rng(34).uniform(-1, 1, size=(4 * _block_rows(net), 2))
    seen = {}
    forward = field._forward
    meet = meeting()

    def recording(*args, **kwargs):
        meet()
        seen[threading.get_ident()] = np.geterr()["over"]
        return forward(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", recording)
    threads(2)
    with np.errstate(over="raise"):
        grad_batch(net, pts)
    assert len(seen) == 2 and set(seen.values()) == {"raise"}


def test_tune_malloc_sets_thresholds_then_arena_cap(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    field._tune_malloc()
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX
    assert calls == [(-3, 32 << 20), (-1, 256 << 20), (-8, 1)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: SimpleNamespace()],
                         ids=["no-library", "no-mallopt"])
def test_tune_malloc_is_a_no_op_without_mallopt(monkeypatch, cdll):
    # The allocator setting is best effort: a C library that cannot be
    # loaded, or one without mallopt, leaves the process as it was.
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert field._tune_malloc() is None


MALLOPT_PROBE = """
import ctypes, sys, threading, types
calls = []
def mallopt(param, value):
    calls.append((param, value, threading.active_count()))
    return 1
cdll = ctypes.CDLL
ctypes.CDLL = lambda name, *a, **k: types.SimpleNamespace(mallopt=mallopt) if name is None else cdll(name, *a, **k)
import scanfield.field
assert "scanfield.__main__" not in sys.modules
print(calls)
"""


def test_loading_field_tunes_malloc_before_any_thread():
    # Library use, without the launcher: importing ``field`` sets all three
    # parameters once, before any pool thread can start.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", MALLOPT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([(-3, 32 << 20, 1), (-1, 256 << 20, 1), (-8, 1, 1)])


def test_pooled_pass_starts_no_more_lanes_than_blocks(threads):
    # The pool starts a thread on each submit while none is idle, so a lane
    # with no block to take would still cost a thread.
    threads(1)  # shuts down any pool, so the next pooled pass starts one
    idle = threading.active_count()
    threads(8)
    net = init_field(seed=43, dim=2, hidden=96, hidden_layers=2, encoding=EncodingConfig(4))
    evaluate_batch(net, np.zeros((2 * _block_rows(net), 2)))
    assert threading.active_count() == idle + 1


@pytest.mark.parametrize("workers", [2, 3])
def test_backprop_holds_at_most_one_result_per_thread(workers, threads, monkeypatch):
    # While the first block stalls, the others may run ahead only until
    # ``workers`` finished blocks wait to be added; with no bound they would
    # all finish.
    net = init_field(seed=39, dim=2)
    rows = 12 * _block_rows(net)
    pts = np.random.default_rng(40).uniform(-1, 1, size=(rows, 2))
    vbar = np.arange(rows, dtype=np.float64)
    finished, ahead = [], []
    original = field._backward_block

    def stall_first(net, x, vbar, gbar):
        if vbar[0] == 0.0:
            time.sleep(0.5)
            ahead.append(len(finished))
        terms = original(net, x, vbar, gbar)
        finished.append(vbar[0])
        return terms

    threads(1)
    expected = backprop(net, pts, vbar)
    monkeypatch.setattr(field, "_backward_block", stall_first)
    threads(workers)
    assert np.array_equal(backprop(net, pts, vbar), expected)
    assert ahead == [workers]


def test_pooled_passes_hold_one_block_per_thread(threads):
    # Each extra thread holds one more block's working set; backprop keeps
    # at most one block's gradient terms per thread.
    net = init_field(seed=36, dim=3)
    rng = np.random.default_rng(37)
    rows = 4096
    pts = rng.uniform(-1, 1, size=(rows, 3))
    vbar = rng.normal(size=rows)
    gbar = rng.normal(size=(rows, 3))

    def peak(workers, n):
        threads(workers)
        evaluate_batch(net, pts)  # start the pool's threads outside the trace
        tracemalloc.start()
        try:
            jet_batch(net, pts[:n])
            backprop(net, pts[:n], vbar[:n], gbar[:n])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = peak(1, _block_rows(net))
    sequential = peak(1, rows)
    for workers in (2, 3):
        assert peak(workers, rows) <= sequential + workers * block


def _pooled_pass_in_child(conn):
    net = init_field(seed=38, dim=2)
    conn.send(evaluate_batch(net, np.zeros((3 * _block_rows(net), 2))).tolist())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
# Python 3.12 warns on every fork of a process with threads; the pool's
# threads are what this test forks with.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_pool(threads):
    # The child inherits the parent's pool object but none of its threads.
    threads(2)
    net = init_field(seed=38, dim=2)
    expected = evaluate_batch(net, np.zeros((3 * _block_rows(net), 2)))
    assert field._pool is not None
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_pooled_pass_in_child, args=(child,))
    proc.start()
    try:
        assert parent.poll(60), "the child's pooled pass did not finish"
        assert np.array_equal(parent.recv(), expected)
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0


# ---------------------------------------------------------------------------
# Grids: layer 0 from per-axis tables, layers 1 onward through _forward.


def _grid_points(axes):
    return np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("hidden", [16, 64, 128])
def test_grid_matches_point_values(dim, hidden):
    # Angle addition rounds differently from sin(f z0), and more accurately:
    # the point path rounds an argument f z0 of up to about 100.
    net = init_field(seed=50 + hidden, dim=dim, encoding=EncodingConfig(8 if dim == 2 else 30),
                     hidden=hidden, hidden_layers=3)
    lo, hi = np.array([-0.9, -0.4, -1.0]), np.array([0.7, 1.0, 0.2])  # not a cube
    axes = [np.linspace(lo[j], hi[j], 9 + 4 * j) for j in range(dim)]  # unequal lengths
    got = field.evaluate_grid(net, axes)
    assert got.shape == tuple(a.size for a in axes)
    want = evaluate_batch(net, _grid_points(axes)).reshape(got.shape)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("hidden", [64, 128])
def test_grid_bytes_do_not_depend_on_threads(hidden, threads, meeting, monkeypatch):
    # Block bounds depend on the grid and the net alone, and each block
    # writes its own lines.  A pooled grid holds its first two threads'
    # first blocks until both have come, so two threads run for certain.
    net = init_field(seed=60, dim=3, encoding=EncodingConfig(8), hidden=hidden, hidden_layers=3)
    axes = [np.linspace(-1.0, 1.0, n) for n in (23, 17, 12)]
    ran_on = set()
    meet = None
    forward = field._forward

    def recording(*args, **kwargs):
        ran_on.add(threading.get_ident())
        if meet is not None:
            meet()
        return forward(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", recording)
    threads(1)
    ref = field.evaluate_grid(net, axes)
    for workers in (2, 3):
        threads(workers)
        ran_on.clear()
        meet = meeting()
        assert field.evaluate_grid(net, axes).tobytes() == ref.tobytes()
        assert 1 < len(ran_on) <= workers


def test_grid_is_one_dispatch(threads, monkeypatch):
    threads(2)
    net = init_field(seed=61, dim=3, encoding=EncodingConfig(4), hidden=32, hidden_layers=2)
    axes = [np.linspace(-1.0, 1.0, n) for n in (40, 30, 20)]
    calls = []
    run = field._run

    def counting(tasks):
        calls.append(len(tasks))
        return run(tasks)

    monkeypatch.setattr(field, "_run", counting)
    field.evaluate_grid(net, axes)
    assert len(calls) == 1 and calls[0] > 1


def test_grid_blocks_are_whole_lines_of_block_work(threads, monkeypatch):
    # Each block is whole lines of the first axis, a grid row counting as half
    # a row of BLOCK_WORK: about 2 * BLOCK_WORK // hidden rows.  The last
    # block also takes the remainder.
    threads(1)
    net = init_field(seed=62, dim=3, encoding=EncodingConfig(4), hidden=128, hidden_layers=2)
    rows = []
    forward = field._forward

    def recording(*args, **kwargs):
        rows.append(kwargs["a1"].shape[0])
        return forward(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", recording)
    field.evaluate_grid(net, [np.linspace(-1.0, 1.0, n) for n in (49, 49, 49)])
    # 2,401 lines of 49 nodes, counted as 25 rows each: 256 // 25 = 10 lines a block.
    assert rows == [10 * 49] * 239 + [11 * 49]


def test_grid_holds_no_table_of_all_lines(threads, monkeypatch):
    # Beyond the output, a grid holds per-axis tables and one block's working
    # set per thread, never an n^(m-1) x width table of every line's E.  With
    # blocks of one 65-node line, the table would dwarf the block.
    threads(1)
    net = init_field(seed=63, dim=3, hidden=256, hidden_layers=2)
    monkeypatch.setattr(field, "BLOCK_WORK", 33 * net.hidden)
    axes = [np.linspace(-1.0, 1.0, 65)] * 3
    tracemalloc.start()
    try:
        out = field.evaluate_grid(net, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 65 * 65 * net.hidden * 8
    assert peak - out.nbytes < table / 2


def test_grid_rejects_axes_of_another_dimension():
    net = init_field(seed=64, dim=3, encoding=EncodingConfig(4), hidden=16, hidden_layers=2)
    with pytest.raises(ValueError, match="3 1D axes"):
        field.evaluate_grid(net, [np.zeros(4)] * 2)
    with pytest.raises(ValueError, match="3 1D axes"):
        field.evaluate_grid(net, [np.zeros((4, 1))] * 3)
