import numpy as np
import pytest

from scanfield.encoding import (
    EncodingConfig,
    default_encoding,
    encode_jet,
)


def test_feature_count_matches_formula():
    # (2h + 1) * m, the documented output signature
    assert default_encoding(30).feature_count(3) == 183
    assert default_encoding(30).feature_count(2) == 122
    assert default_encoding(4).feature_count(3) == 27


def test_default_ladder_is_linear_in_pi():
    cfg = default_encoding(5)
    np.testing.assert_allclose(cfg.frequencies, np.pi * np.arange(1, 6))


def test_frequencies_must_increase():
    with pytest.raises(ValueError):
        EncodingConfig(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        EncodingConfig(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        EncodingConfig(np.array([-1.0, 1.0]))


def test_encode_layout_blocks():
    cfg = EncodingConfig(np.array([2.0, 5.0]))
    x = np.array([0.3, -0.7, 0.1])
    f = encode_jet(x[None, :], cfg, 0).values[0]
    assert f.shape == (15,)
    np.testing.assert_array_equal(f[:3], x)
    np.testing.assert_allclose(f[3:6], np.sin(2.0 * x))
    np.testing.assert_allclose(f[6:9], np.cos(2.0 * x))
    np.testing.assert_allclose(f[9:12], np.sin(5.0 * x))
    np.testing.assert_allclose(f[12:15], np.cos(5.0 * x))


def test_encode_batch_matches_single():
    cfg = default_encoding(7)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(11, 3))
    batch = encode_jet(pts, cfg, 0).values
    for i in range(11):
        np.testing.assert_array_equal(batch[i], encode_jet(pts[i : i + 1], cfg, 0).values[0])


def test_jet_orders_share_values():
    cfg = default_encoding(7)
    pts = np.random.default_rng(6).normal(size=(9, 3))
    j0, j1, j2 = (encode_jet(pts, cfg, order) for order in (0, 1, 2))
    np.testing.assert_array_equal(j0.values, j2.values)
    np.testing.assert_array_equal(j1.values, j2.values)
    np.testing.assert_array_equal(j1.d1, j2.d1)
    assert j0.d1 is None and j0.d2 is None and j1.d2 is None
    assert j2.d2 is not None


def test_jet_coord_mapping():
    cfg = default_encoding(2)
    jet = encode_jet(np.zeros((1, 3)), cfg)
    np.testing.assert_array_equal(jet.coord, np.tile([0, 1, 2], 5))


def test_jet_derivatives_match_finite_differences():
    cfg = default_encoding(6)
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
        mask = jet.coord == j
        np.testing.assert_allclose(jet.d1[:, mask], d1_fd[:, mask], atol=1e-5)
        np.testing.assert_allclose(jet.d2[:, mask], d2_fd[:, mask], atol=2e-3)
        # features owned by other coordinates are flat along x_j
        np.testing.assert_allclose(d1_fd[:, ~mask], 0.0, atol=1e-9)


def test_dense_jacobian_scatter():
    # Scattering d1 through coord gives the dense (F, m) Jacobian, which must
    # match central differences of the features, zeros included.
    cfg = default_encoding(3)
    rng = np.random.default_rng(2)
    x = rng.normal(size=2)
    jet = encode_jet(x[None, :], cfg, 1)
    dense = np.zeros((14, 2))
    dense[np.arange(14), jet.coord] = jet.d1[0]
    h = 1e-6
    fd = np.stack([
        (encode_jet((x + h * e)[None, :], cfg, 0).values[0]
         - encode_jet((x - h * e)[None, :], cfg, 0).values[0]) / (2 * h)
        for e in np.eye(2)
    ], axis=1)
    np.testing.assert_allclose(dense, fd, atol=1e-6)


def test_raw_coordinate_passthrough_derivatives():
    cfg = default_encoding(1)
    jet = encode_jet(np.array([[0.4, -0.2]]), cfg)
    np.testing.assert_array_equal(jet.d1[0, :2], [1.0, 1.0])
    np.testing.assert_array_equal(jet.d2[0, :2], [0.0, 0.0])
