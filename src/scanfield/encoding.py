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

Every sine and cosine of the encoder and of the network's sine layers goes
through ``sincos``.  The field needs both functions of the same arguments at
every ray sample.  numpy's float64 ``np.sin``/``np.cos`` are scalar libm calls
of 21-30 ns per element each, where an in-place multiply costs about 0.3 ns
(2-vCPU x86-64 VM, numpy 2.4).  ``sincos`` computes both from one table-driven
range reduction (Tang 1991, "Table-lookup algorithms for elementary
functions") in 15-19 ns per element for the pair, on block-sized arrays:

- ``x = j h + d`` with ``h = 2 pi / 1024``, reduced Cody-Waite style with
  fdlibm's three leading bit pieces of pi/2 scaled by 2^-8, so ``|d| <= h / 2``;
- ``sin(j h)``, ``cos(j h)`` from a 1024-entry table built once at import;
- ``sin d - d`` and ``cos d - 1`` from degree-5 and degree-4 polynomials
  (truncation error below 1e-18), combined by the angle-sum formulas.

Against ``np.sin``/``np.cos`` the error is at most 4 ulp and 2^-52 absolute for
``|x| <= 3000``.  Entries beyond ``SINCOS_LIMIT`` (about 3217) and non-finite
entries take ``np.sin``/``np.cos`` exactly.  The choice is made per entry, so
each result depends on its own argument alone, not on the rest of the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

_F = npt.NDArray[np.floating]

# sincos: fdlibm's pi/2 in three pieces of at most 32 significant bits, scaled
# by 2^-8 to pieces of the step h = 2 pi / 1024.  With |j| <= 2^19 the products
# j * _P1 and j * _P2 are exact.
_TABLE_SIZE = 1024
_P1 = 1.57079632673412561417e00 * 2.0**-8
_P2 = 6.07710050630396597660e-11 * 2.0**-8
_P3 = 2.02226624871116645580e-21 * 2.0**-8
_INV_STEP = _TABLE_SIZE / (2.0 * math.pi)
SINCOS_LIMIT = 2.0**19 * _P1


def _sincos_table() -> tuple[np.ndarray, np.ndarray]:
    # sin and cos of k * (_P1 + _P2 + _P3): a = k * _P1 is exact and the
    # remainder b is below 3e-10, so first order in b is exact to 1e-19.
    k = np.arange(_TABLE_SIZE, dtype=np.float64)
    a = k * _P1
    b = k * (_P2 + _P3)
    sin_a, cos_a = np.sin(a), np.cos(a)
    return sin_a + cos_a * b, cos_a - sin_a * b


_SIN_TABLE, _COS_TABLE = _sincos_table()


def _sincos_reduced(x: np.ndarray, with_cos: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """sincos for finite x with |x| <= SINCOS_LIMIT."""
    t = x * _INV_STEP
    np.rint(t, out=t)
    d = t * _P1
    np.subtract(x, d, out=d)
    u = t * _P2
    d -= u
    np.multiply(t, _P3, out=u)
    d -= u
    k = t.astype(np.intp)
    np.bitwise_and(k, _TABLE_SIZE - 1, out=k)
    s = np.take(_SIN_TABLE, k)
    c = np.take(_COS_TABLE, k)
    z = np.multiply(d, d, out=t)
    # u = sin d = d + d z (z / 120 - 1 / 6)
    np.multiply(z, 1.0 / 120.0, out=u)
    u -= 1.0 / 6.0
    u *= z
    u *= d
    u += d
    # v = cos d - 1 = z (z / 24 - 1 / 2), reusing the spent index buffer
    v = np.multiply(z, 1.0 / 24.0, out=k.view(np.float64))
    v -= 0.5
    v *= z
    # sin x = s + (s (cos d - 1) + c sin d),  cos x = c + (c (cos d - 1) - s sin d)
    np.multiply(s, v, out=t)
    np.multiply(c, u, out=d)
    t += d
    if not with_cos:
        s += t
        return s, None
    v *= c
    np.multiply(s, u, out=d)
    v -= d
    s += t
    c += v
    return s, c


def sincos(x, with_cos: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``(np.sin(x), np.cos(x))`` of a float64 array, to 4 ulp; see the module
    docstring for the method and the entries that take ``np.sin``/``np.cos``.

    ``with_cos=False`` returns ``(sin, None)`` with the sine bitwise the same
    and skips the cosine's share of the work: 8 % of ``field.evaluate_batch``
    on the default 3D net (2-vCPU x86-64 VM, one BLAS thread)."""
    # C order throughout: ufuncs on mixed memory layouts run strided loops,
    # which cost about as much as the libm calls saved.
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0 or (x.min() >= -SINCOS_LIMIT and x.max() <= SINCOS_LIMIT):
        return _sincos_reduced(x, with_cos)
    far = ~(np.abs(x) <= SINCOS_LIMIT)
    s, c = _sincos_reduced(np.where(far, 0.0, x), with_cos)
    s[far] = np.sin(x[far])
    if with_cos:
        c[far] = np.cos(x[far])
    return s, c


@dataclass(frozen=True)
class EncodingConfig:
    """The frequency ladder w_k = k * base (rad per unit) for k = 1..bands."""

    bands: int = 30
    base: float = math.pi

    def __post_init__(self):
        if self.bands < 1:
            raise ValueError(f"encoding needs at least one band, got {self.bands}")
        if not (math.isfinite(self.base) and self.base > 0.0):
            raise ValueError(f"encoding base frequency must be finite and positive, got {self.base}")

    @property
    def frequencies(self) -> np.ndarray:
        return self.base * np.arange(1, self.bands + 1, dtype=np.float64)

    def feature_count(self, dim: int) -> int:
        return (2 * self.bands + 1) * dim


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
    # All bands at once, coordinate-major and C-ordered: arg[j, i, k] = w_k * x_ij.
    arg = np.ascontiguousarray(x.T)[:, :, None] * w
    s, c = sincos(arg)
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
