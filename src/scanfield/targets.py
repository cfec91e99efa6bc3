"""Per-sample distance targets for self-supervised field training.

One construction serves all three modes.  The sample x's level set bends
with curvature κ = 1 / R about the centre c = x + R n, n the unit normal
toward the surface; the target is the distance from x to the sphere (circle
in 2D) about c through the measured endpoint e, R - |e - c|.  With
d = |e - x|, p = n · (e - x) and q = 2p - κd², that is
R - sqrt(d² + R² - 2Rp) multiplied through by its conjugate:

    t = q / (1 + sqrt(1 - κq)).

The denominator is at least 1, so nothing cancels at large R, and κ = 0
needs no radius: t is then p, bit for bit.  A mode picks only (n, κ):

  RAY_DISTANCE          n = (e - x) / d, κ = 0: t = d, the along-ray
                        distance.  An overestimate unless the beam meets
                        the surface along its normal.
  CLOSEST_NORMAL        n = -∇D / |∇D|, κ = 0: t = p, the ray distance
                        projected onto the field's normal.  Exact for
                        planes, an overestimate on curved surfaces.
  CURVATURE_CONSTRAINED the same n, κ = |div n| / (m - 1) capped at
                        1 / ROC_MIN: exact when the level sets are
                        concentric spheres, for any endpoint on the surface.

Targets are pseudo-ground-truth: no optimizer gradient ever flows through
them, so everything here is plain (non-differentiable) arithmetic.

Inputs are per ray: ``endpoints`` holds one row per ray and ``positions``
its R·L samples in ray-major order (``sampling.sample_rays_batch``), so
endpoint i serves sample rows i·L to i·L + L - 1; a row-aligned call is L = 1.

One fallback rule: a sample whose gradient vanishes (normal modes only) or
whose estimate is negative (2p < κd²) is flagged degenerate and takes the
ray distance.  A negative estimate means the field's own derivatives
mislead (free-space samples are never inside the surface); clamping it to
zero would make the all-zero field self-consistent, and training stalls
there from a fresh init.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

_F = npt.NDArray[np.floating]

GRAD_EPS = 1e-8
ROC_MIN = 1e-3


class SupervisionMode(enum.Enum):
    RAY_DISTANCE = "ray"
    CLOSEST_NORMAL = "dcn"
    CURVATURE_CONSTRAINED = "curvature"


@dataclass
class TargetBatch:
    """Vectorized targets for one training batch, all shape (S, ...)."""

    d_hat: np.ndarray
    weight: np.ndarray
    degenerate: np.ndarray


def compute_targets(
    mode: SupervisionMode,
    values: _F,
    gradients: _F,
    hessian_terms: tuple[_F, _F] | None,
    positions: _F,
    endpoints: _F,
    tau: float,
    gamma: float,
) -> TargetBatch:
    """Batched target assembly over (S,) values and (S, m) gradients g.

    ``hessian_terms`` is ``(tr H, gᵀHg)``, two (S,) arrays, for the
    curvature mode (other modes ignore it): the mean curvature of the level
    set is div n = tr H / |g| - gᵀHg / |g|³, which needs these two
    contractions of the Hessian H and nothing else of it.

    ``endpoints`` is (R, m), one row per ray, and ``positions`` the (R·L, m)
    ray-major samples; an S that R does not divide raises ValueError.
    Samples whose gradient vanishes or whose estimate comes out negative
    fall back to ray distance and are flagged degenerate.  d_hat is clamped
    to [0, tau].  Weights are (d_top - |values|)^gamma with d_top the batch
    maximum of |values|, divided by their largest value first.
    """
    vals = np.asarray(values, dtype=np.float64)
    x = np.asarray(positions, dtype=np.float64)
    e = np.asarray(endpoints, dtype=np.float64)
    s, m = x.shape
    if s == 0:
        raise ValueError("empty target batch")
    delta = (e[:, None, :] - x.reshape(e.shape[0], -1, m)).reshape(s, m)
    d = np.linalg.norm(delta, axis=1)
    p, kappa, vanishing = d, 0.0, False  # the ray mode: n along the ray
    if mode is not SupervisionMode.RAY_DISTANCE:
        g = np.asarray(gradients, dtype=np.float64)
        gnorm = np.linalg.norm(g, axis=1)
        safe_g = np.maximum(gnorm, GRAD_EPS)
        p = np.sum(-g / safe_g[:, None] * delta, axis=1)  # normal . (e - x)
        vanishing = gnorm < GRAD_EPS
    if mode is SupervisionMode.CURVATURE_CONSTRAINED:
        tr, ghg = (np.asarray(t, dtype=np.float64) for t in hessian_terms)
        kappa = np.minimum(np.abs(tr / safe_g - ghg / safe_g**3) / (m - 1), 1.0 / ROC_MIN)
    q = 2.0 * p - kappa * d * d
    estimate = q / (1.0 + np.sqrt(np.maximum(1.0 - kappa * q, 0.0)))
    degenerate = vanishing | (estimate < 0.0)
    d_hat = np.clip(np.where(degenerate, d, estimate), 0.0, tau)
    d_pred_abs = np.abs(vals)
    base = float(np.max(d_pred_abs)) - d_pred_abs  # d_top - |D| >= 0
    # Scaled so that the largest weight is exactly 1: no gamma overflows it.
    top = float(np.max(base))
    weight = (base / top if top > 0.0 else base) ** gamma
    return TargetBatch(d_hat=d_hat, weight=weight, degenerate=degenerate)
