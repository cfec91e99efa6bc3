"""Periodic positional features lifting raw coordinates ahead of the network.

A point x in R^m is mapped to

    [x, sin(w_1 x), cos(w_1 x), ..., sin(w_h x), cos(w_h x)]

where each sin/cos acts componentwise, giving (2h + 1) * m features.  Every
feature depends on exactly one input coordinate, which keeps the chain rule
through the encoding sparse: the Jacobian has one nonzero per row, and the
feature Hessians are diagonal.  ``encode_jet`` exposes that structure so the
network's derivative propagation never materializes dense encoder Jacobians.

The features keep the blockwise layout above, feature ``b * m + j`` being
block b of coordinate j.  Their derivatives are coordinate-major: ``d1[j]``
and ``d2[j]`` are (N, 2h + 1) arrays over the blocks of coordinate j, so the
first network layer's per-coordinate matmuls read contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

_F = npt.NDArray[np.floating]

DEFAULT_BANDS = 30
DEFAULT_BASE_FREQ = math.pi


@dataclass(frozen=True)
class EncodingConfig:
    """Frequency ladder (rad per unit), strictly increasing and positive."""

    frequencies: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.frequencies, dtype=np.float64).reshape(-1)
        if w.size and (not np.all(np.isfinite(w)) or np.any(w <= 0.0)):
            raise ValueError("frequencies must be finite and positive")
        if w.size > 1 and np.any(np.diff(w) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", w)

    @property
    def bands(self) -> int:
        return int(self.frequencies.size)

    def feature_count(self, dim: int) -> int:
        return (2 * self.bands + 1) * dim


def default_encoding(bands: int = DEFAULT_BANDS, base: float = DEFAULT_BASE_FREQ) -> EncodingConfig:
    """Linear ladder w_k = k * base for k = 1..bands."""
    return EncodingConfig(base * np.arange(1, bands + 1, dtype=np.float64))


@dataclass(frozen=True)
class EncodedJet:
    """Features with their sparse first and second derivatives.

    ``values`` has shape (N, F) in the blockwise layout: the m raw coordinates
    first, then for each frequency the m sine features followed by the m
    cosine features.  ``d1``/``d2`` have shape (m, N, 2h + 1): ``d1[j][:, b]``
    is the one nonzero partial of feature ``b * m + j``, along x_j, and
    ``d2[j][:, b]`` its second derivative.  Either is None when it was not
    requested.
    """

    values: np.ndarray
    d1: np.ndarray | None
    d2: np.ndarray | None


def encode_jet(points: _F, cfg: EncodingConfig, order: int = 2) -> EncodedJet:
    """Features plus exact per-feature derivatives for (N, m) points.

    ``order`` 0 builds only ``values``, 1 adds ``d1`` and 2 adds ``d2``;
    ``values`` and ``d1`` are bitwise the same at every order that builds them.
    """
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    w = cfg.frequencies
    blocks = 2 * w.size + 1
    # All bands at once, coordinate-major: arg[j, i, k] = w_k * x_ij.
    arg = x.T[:, :, None] * w
    s = np.sin(arg)
    c = np.cos(arg)
    values = np.empty((n, blocks, m), dtype=np.float64)
    values[:, 0, :] = x
    values[:, 1::2, :] = s.transpose(1, 2, 0)
    values[:, 2::2, :] = c.transpose(1, 2, 0)
    d1 = d2 = None
    if order >= 1:
        d1 = np.empty((m, n, blocks), dtype=np.float64)
        d1[:, :, 0] = 1.0
        d1[:, :, 1::2] = w * c
        d1[:, :, 2::2] = -w * s
    if order >= 2:
        d2 = np.empty((m, n, blocks), dtype=np.float64)
        d2[:, :, 0] = 0.0
        d2[:, :, 1::2] = -(w * w) * s
        d2[:, :, 2::2] = -(w * w) * c
    return EncodedJet(values=values.reshape(n, -1), d1=d1, d2=d2)
