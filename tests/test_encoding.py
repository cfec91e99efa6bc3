import warnings

import numpy as np
import pytest

from scanfield.encoding import (
    SINCOS_LIMIT,
    EncodingConfig,
    encode_jet,
    sincos,
)


def test_feature_count_matches_formula():
    # (2h + 1) * m, the documented output signature
    assert EncodingConfig(30).feature_count(3) == 183
    assert EncodingConfig(30).feature_count(2) == 122
    assert EncodingConfig(4).feature_count(3) == 27


def test_default_ladder_is_linear_in_pi():
    cfg = EncodingConfig(5)
    np.testing.assert_allclose(cfg.frequencies, np.pi * np.arange(1, 6))


@pytest.mark.parametrize("bands, base", [(0, np.pi), (-1, np.pi), (3, 0.0), (3, -1.0),
                                         (3, np.nan), (3, np.inf)])
def test_bands_and_base_are_validated(bands, base):
    with pytest.raises(ValueError, match="band" if bands < 1 else "base frequency"):
        EncodingConfig(bands, base)


def test_encode_layout_blocks():
    cfg = EncodingConfig(2, 2.0)
    x = np.array([0.3, -0.7, 0.1])
    f = encode_jet(x[None, :], cfg, 0).values[0]
    assert f.shape == (15,)
    np.testing.assert_array_equal(f[:3], x)
    np.testing.assert_allclose(f[3:6], np.sin(2.0 * x))
    np.testing.assert_allclose(f[6:9], np.cos(2.0 * x))
    np.testing.assert_allclose(f[9:12], np.sin(4.0 * x))
    np.testing.assert_allclose(f[12:15], np.cos(4.0 * x))


def test_encode_batch_matches_single():
    cfg = EncodingConfig(7)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(11, 3))
    batch = encode_jet(pts, cfg, 0).values
    for i in range(11):
        np.testing.assert_array_equal(batch[i], encode_jet(pts[i : i + 1], cfg, 0).values[0])


def test_jet_orders_share_values():
    cfg = EncodingConfig(7)
    pts = np.random.default_rng(6).normal(size=(9, 3))
    j0, j1, j2 = (encode_jet(pts, cfg, order) for order in (0, 1, 2))
    np.testing.assert_array_equal(j0.values, j2.values)
    np.testing.assert_array_equal(j1.values, j2.values)
    np.testing.assert_array_equal(j1.d1, j2.d1)
    assert j0.d1 is None and j0.d2 is None and j1.d2 is None
    assert j2.d2 is not None


def test_jet_coord_mapping():
    # d1[j][:, b] is the partial of feature b * m + j along x_j.  At x = 0 the
    # raw coordinate's is 1, sin(w x)'s is w and cos(w x)'s is 0.
    cfg = EncodingConfig(2)
    jet = encode_jet(np.zeros((1, 3)), cfg)
    assert jet.d1.shape == jet.d2.shape == (3, 1, 5)
    w1, w2 = cfg.frequencies
    for j in range(3):
        np.testing.assert_array_equal(jet.d1[j, 0], [1.0, w1, 0.0, w2, 0.0])
        np.testing.assert_array_equal(jet.d2[j, 0], [0.0, 0.0, -w1 * w1, 0.0, -w2 * w2])


def test_jet_derivatives_match_finite_differences():
    cfg = EncodingConfig(6)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(5, 3))
    jet = encode_jet(pts, cfg)
    # Small step for first derivatives; a larger one for second differences,
    # which otherwise drown in 1/h^2-amplified rounding noise.
    h1, h2 = 1e-6, 1e-4
    for j in range(3):
        step = np.zeros(3)
        step[j] = 1.0
        fp1 = encode_jet(pts + h1 * step, cfg, 0).values
        fm1 = encode_jet(pts - h1 * step, cfg, 0).values
        fp2 = encode_jet(pts + h2 * step, cfg, 0).values
        fm2 = encode_jet(pts - h2 * step, cfg, 0).values
        d1_fd = (fp1 - fm1) / (2 * h1)
        d2_fd = (fp2 - 2 * jet.values + fm2) / h2**2
        own = np.arange(d1_fd.shape[1]) % 3 == j  # features b * 3 + j
        np.testing.assert_allclose(jet.d1[j], d1_fd[:, own], atol=1e-5)
        np.testing.assert_allclose(jet.d2[j], d2_fd[:, own], atol=2e-3)
        # features owned by other coordinates are flat along x_j
        np.testing.assert_allclose(d1_fd[:, ~own], 0.0, atol=1e-9)


def test_dense_jacobian_scatter():
    # Scattering d1[j] into column j of the feature rows b * m + j gives the
    # dense (F, m) Jacobian, which must match central differences of the
    # features, zeros included.
    cfg = EncodingConfig(3)
    rng = np.random.default_rng(2)
    x = rng.normal(size=2)
    jet = encode_jet(x[None, :], cfg, 1)
    dense = np.zeros((14, 2))
    for j in range(2):
        dense[j::2, j] = jet.d1[j, 0]
    h = 1e-6
    fd = np.stack([
        (encode_jet((x + h * e)[None, :], cfg, 0).values[0]
         - encode_jet((x - h * e)[None, :], cfg, 0).values[0]) / (2 * h)
        for e in np.eye(2)
    ], axis=1)
    np.testing.assert_allclose(dense, fd, atol=1e-6)


def test_raw_coordinate_passthrough_derivatives():
    cfg = EncodingConfig(1)
    jet = encode_jet(np.array([[0.4, -0.2]]), cfg)
    np.testing.assert_array_equal(jet.d1[:, 0, 0], [1.0, 1.0])
    np.testing.assert_array_equal(jet.d2[:, 0, 0], [0.0, 0.0])


def _ulps(got, ref, floor=0.0):
    return np.abs(got - ref) / np.spacing(np.maximum(np.abs(ref), floor))


@pytest.mark.parametrize("bound", [1.0, 100.0, 3000.0])
def test_sincos_matches_libm(bound):
    x = np.random.default_rng(int(bound)).uniform(-bound, bound, 10**6)
    s, c = sincos(x)
    for got, ref in ((s, np.sin(x)), (c, np.cos(x))):
        assert _ulps(got, ref).max() <= 4.0
        assert np.abs(got - ref).max() <= 2.0**-52


def test_sincos_near_quadrants_and_table_nodes():
    # Near a zero of sin or cos only the absolute error stays small, so ulps
    # are counted against a floor of 1e-12.
    rng = np.random.default_rng(5)
    quadrants = np.arange(-1909, 1910) * (np.pi / 2)
    nodes = rng.integers(-(2**19), 2**19, 20_000) * (np.pi / 512)
    for centers in (quadrants, nodes[np.abs(nodes) <= 3000.0]):
        x = (centers[:, None] + rng.uniform(-1e-12, 1e-12, (centers.size, 20))).ravel()
        s, c = sincos(x)
        for got, ref in ((s, np.sin(x)), (c, np.cos(x))):
            assert np.abs(got - ref).max() <= 2.0**-52
            assert _ulps(got, ref, floor=1e-12).max() <= 4.0


def test_sincos_fallback_is_libm_exactly():
    edge = np.nextafter(SINCOS_LIMIT, np.inf)
    x = np.array([SINCOS_LIMIT, -SINCOS_LIMIT, edge, -edge, 1e4, -3e5, 1e300,
                  np.inf, -np.inf, np.nan, 0.5])
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        s, c = sincos(x)
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always")
        rs, rc = np.sin(x), np.cos(x)
    far = ~(np.abs(x) <= SINCOS_LIMIT)
    assert np.array_equal(s[far], rs[far], equal_nan=True)
    assert np.array_equal(c[far], rc[far], equal_nan=True)
    assert _ulps(s[~far], rs[~far]).max() <= 4.0
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in ref_warnings]


def test_sine_alone_is_the_pair_sine():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-3000.0, 3000.0, 10**5), [1e4, -3e5, 1e300, np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        s, c = sincos(x)
        s_only, none = sincos(x, with_cos=False)
    assert none is None
    assert np.array_equal(s_only, s, equal_nan=True)


def test_sincos_rows_do_not_depend_on_their_block():
    rng = np.random.default_rng(6)
    block = rng.uniform(-60.0, 60.0, (256, 64))
    s, c = sincos(block)
    with np.errstate(invalid="ignore"):
        for row in (0, 117, 255):
            for other in (block[row], block[row : row + 1].T,
                          np.concatenate([[np.inf, 1e6], block[row]])):
                so, co = sincos(other)
                assert np.array_equal(so.ravel()[-64:], s[row])
                assert np.array_equal(co.ravel()[-64:], c[row])
        # A far or non-finite entry elsewhere in the block changes no other entry.
        mixed = block.copy()
        mixed[3, 5], mixed[200, 0] = np.nan, -1e9
        sm, cm = sincos(mixed)
    keep = np.isfinite(mixed) & (np.abs(mixed) <= SINCOS_LIMIT)
    assert np.array_equal(sm[keep], s[keep]) and np.array_equal(cm[keep], c[keep])
