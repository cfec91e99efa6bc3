"""Per-sample distance targets for self-supervised field training.

Three interchangeable target modes, all computed from the ray geometry plus
(for the richer two) the field's own first and second derivatives at the
sample:

  RAY_DISTANCE          d_hat = |e - x|, the along-ray distance to the
                        measured endpoint.  Always an overestimate of the true
                        distance unless the beam is normal to the surface.
  CLOSEST_NORMAL        d_hat = n . (e - x) with n the unit direction toward
                        the surface (negated field gradient).  Projects the
                        ray distance onto the surface normal; exact for
                        planes, an overestimate on curved surfaces.
  CURVATURE_CONSTRAINED d_hat = R - sqrt(d^2 + R^2 - 2 R n.(e - x)) where R is
                        the level-set radius of curvature at the sample.  The
                        construction places a center c = x + R n and measures
                        the signed distance from x to the sphere around c
                        through e; when the level sets are concentric circles
                        or spheres this is the true signed distance exactly,
                        for any measured endpoint on the surface.

Targets are pseudo-ground-truth: no optimizer gradient ever flows through
them, so everything here is plain (non-differentiable) arithmetic.

Inputs are per ray: ``endpoints`` holds one row per ray and ``positions``
its R·L samples in ray-major order (``sampling.sample_rays_batch``), so
endpoint i serves sample rows i·L to i·L + L - 1; a row-aligned call is L = 1.

One fallback rule serves the dcn and curvature modes: a sample whose gradient
vanishes or whose raw estimate is negative is flagged degenerate and takes the
ray distance.  A negative estimate means the field's own derivatives mislead
(free-space samples are never inside the surface); clamping it to zero would
make the all-zero field self-consistent, and training stalls there from a
fresh init.  The ray mode reads no gradient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

_F = npt.NDArray[np.floating]

GRAD_EPS = 1e-8
ROC_MIN = 1e-3
ROC_MAX = 1e6


class SupervisionMode(enum.Enum):
    RAY_DISTANCE = "ray"
    CLOSEST_NORMAL = "dcn"
    CURVATURE_CONSTRAINED = "curvature"


@dataclass
class TargetBatch:
    """Vectorized targets for one training batch, all shape (S, ...)."""

    d_hat: np.ndarray
    weight: np.ndarray
    roc_query: np.ndarray
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
    Samples whose gradient vanishes or whose raw estimate comes out negative
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
    roc_query = np.full(s, ROC_MAX, dtype=np.float64)
    if mode is SupervisionMode.RAY_DISTANCE:
        d_raw = d
        degenerate = np.zeros(s, dtype=bool)
    else:
        g = np.asarray(gradients, dtype=np.float64)
        gnorm = np.linalg.norm(g, axis=1)
        safe_g = np.maximum(gnorm, GRAD_EPS)
        p = np.sum(-g / safe_g[:, None] * delta, axis=1)  # normal . (e - x)
        if mode is SupervisionMode.CLOSEST_NORMAL:
            estimate = p
        else:
            tr, ghg = (np.asarray(t, dtype=np.float64) for t in hessian_terms)
            kappa = np.abs(tr / safe_g - ghg / safe_g**3) / (m - 1)
            r = np.where(kappa > 1.0 / ROC_MAX, 1.0 / np.maximum(kappa, 1.0 / ROC_MAX), ROC_MAX)
            roc_query = r = np.clip(r, ROC_MIN, ROC_MAX)
            estimate = r - np.sqrt(np.maximum(d * d + r * r - 2.0 * r * p, 0.0))
        degenerate = (gnorm < GRAD_EPS) | (estimate < 0.0)
        d_raw = np.where(degenerate, d, estimate)
        roc_query = np.where(degenerate, ROC_MAX, roc_query)
    d_hat = np.clip(d_raw, 0.0, tau)
    d_pred_abs = np.abs(vals)
    base = float(np.max(d_pred_abs)) - d_pred_abs  # d_top - |D| >= 0
    # Scaled so that the largest weight is exactly 1: no gamma overflows it.
    top = float(np.max(base))
    weight = (base / top if top > 0.0 else base) ** gamma
    return TargetBatch(
        d_hat=d_hat,
        weight=weight,
        roc_query=roc_query,
        degenerate=degenerate,
    )
