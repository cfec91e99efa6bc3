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

A raw estimate can only come out negative when the field's own derivatives
mislead (the learned normal points away from the measured endpoint, or the
curvature radius is noise); free-space samples are never actually inside the
surface.  Such samples are treated exactly like degenerate gradients and fall
back to the ray distance instead of being clamped to zero — feeding the
clamped zeros back as targets makes the all-zero field self-consistent, and
training provably stalls there from a fresh init.
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

    ``endpoints`` holds each sample's parent-ray endpoint, row-aligned with
    ``positions``.  Samples whose gradient vanishes or whose raw estimate
    comes out negative fall back to ray distance and are flagged degenerate.
    d_hat is clamped to [0, tau].  Weights are (d_top - |values|)^gamma with
    d_top the batch maximum of |values|, divided by their largest value first.
    """
    vals = np.asarray(values, dtype=np.float64)
    g = np.asarray(gradients, dtype=np.float64)
    x = np.asarray(positions, dtype=np.float64)
    e = np.asarray(endpoints, dtype=np.float64)
    s, m = x.shape
    if s == 0:
        raise ValueError("empty target batch")
    delta = e - x
    d = np.linalg.norm(delta, axis=1)
    gnorm = np.linalg.norm(g, axis=1)
    degenerate = gnorm < GRAD_EPS
    safe_g = np.maximum(gnorm, GRAD_EPS)
    normal = -g / safe_g[:, None]
    roc_query = np.full(s, ROC_MAX, dtype=np.float64)
    if mode is SupervisionMode.RAY_DISTANCE:
        d_raw = d.copy()
        degenerate = np.zeros(s, dtype=bool)
    elif mode is SupervisionMode.CLOSEST_NORMAL:
        p = np.sum(normal * delta, axis=1)
        degenerate = degenerate | (p < 0.0)
        d_raw = np.where(degenerate, d, p)
    else:
        tr, ghg = (np.asarray(t, dtype=np.float64) for t in hessian_terms)
        div = tr / safe_g - ghg / safe_g**3
        kappa = np.abs(div) / (m - 1)
        r = np.where(kappa > 1.0 / ROC_MAX, 1.0 / np.maximum(kappa, 1.0 / ROC_MAX), ROC_MAX)
        r = np.clip(r, ROC_MIN, ROC_MAX)
        p = np.sum(normal * delta, axis=1)
        radicand = np.maximum(d * d + r * r - 2.0 * r * p, 0.0)
        root = np.sqrt(radicand)
        degenerate = degenerate | (r - root < 0.0)
        d_raw = np.where(degenerate, d, r - root)
        roc_query = np.where(degenerate, ROC_MAX, r)
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
