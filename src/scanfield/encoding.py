"""Periodic positional features lifting raw coordinates ahead of the network.

A point x in R^m is mapped to

    [x, sin(w_1 x), cos(w_1 x), ..., sin(w_h x), cos(w_h x)]

where each sin/cos acts componentwise, giving (2h + 1) * m features.  Every
feature depends on exactly one input coordinate, which keeps the chain rule
through the encoding sparse: the Jacobian has one nonzero per row, and the
feature Hessians are diagonal.  ``encode_jet`` exposes that structure so the
network's derivative propagation never materializes dense encoder Jacobians.
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

    ``values``/``d1``/``d2`` all have shape (N, F).  Feature f depends only on
    input coordinate ``coord[f]``; d1 and d2 hold that single partial and its
    second derivative, or are None when the derivative was not requested.

    Layout is blockwise: the m raw coordinates first, then for each frequency
    the m sine features followed by the m cosine features.
    """

    values: np.ndarray
    d1: np.ndarray | None
    d2: np.ndarray | None
    coord: np.ndarray


def encode_jet(points: _F, cfg: EncodingConfig, order: int = 2) -> EncodedJet:
    """Features plus exact per-feature derivatives for (N, m) points.

    ``order`` 0 builds only ``values``, 1 adds ``d1`` and 2 adds ``d2``;
    ``values`` and ``d1`` are bitwise the same at every order that builds them.
    """
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    h = cfg.bands
    f = (2 * h + 1) * m
    values = np.empty((n, f), dtype=np.float64)
    d1 = np.empty((n, f), dtype=np.float64) if order >= 1 else None
    d2 = np.empty((n, f), dtype=np.float64) if order >= 2 else None
    values[:, :m] = x
    if d1 is not None:
        d1[:, :m] = 1.0
    if d2 is not None:
        d2[:, :m] = 0.0
    for k in range(h):
        w = cfg.frequencies[k]
        arg = w * x
        s = np.sin(arg)
        c = np.cos(arg)
        lo = (1 + 2 * k) * m
        values[:, lo : lo + m] = s
        values[:, lo + m : lo + 2 * m] = c
        if d1 is not None:
            d1[:, lo : lo + m] = w * c
            d1[:, lo + m : lo + 2 * m] = -w * s
        if d2 is not None:
            d2[:, lo : lo + m] = -(w * w) * s
            d2[:, lo + m : lo + 2 * m] = -(w * w) * c
    coord = np.tile(np.arange(m, dtype=np.intp), 2 * h + 1)
    return EncodedJet(values=values, d1=d1, d2=d2, coord=coord)
