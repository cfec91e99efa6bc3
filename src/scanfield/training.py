"""Loss assembly and optimization for the distance field.

The per-batch loss over ray samples x with frozen targets d_hat and frozen
emphasis weights w is

    sum_l w_l |D(x_l) - d_hat_l| / sum_j w_j            (data)
  + lam_endpoint * mean_i |D(e_i)|                      (surface anchoring)
  + lam_eikonal  * mean_l | |grad D(x_l)| - 1 |         (unit gradient)
  + lam_smooth   * mean_(l,j) (1 - n_l . n_j)           (neighbor normals)

with n the unit negated gradient and (l, j) running over each sample's k
nearest neighbors inside the batch.  Targets and weights never receive
gradient; the field's value and spatial gradient do, and the hand-derived
adjoints are pushed through ``field.backprop``.  The optimizer is AdamW with
decoupled weight decay and the fixed moment decays ``ADAM_BETAS``, applied
elementwise to the flat parameter vector.

Positions, distances and the target clamp tau are in the canonical frame
that ``geom.normalize_scene`` maps the scene into.  ``LossWeights`` and
``OptimConfig`` hold the only defaults and range checks of these settings;
``config.KEYS`` maps one config key to each of their fields, and
``config.RunConfig`` takes its types and defaults from them and builds them
to check its keys.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np
import numpy.typing as npt
from scipy.spatial import cKDTree

from . import field as field_mod
from . import sampling
from .field import FieldNet
from .targets import GRAD_EPS, SupervisionMode, TargetBatch, compute_targets

_F = npt.NDArray[np.floating]

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    """Loss term coefficients and target parameters; the clamp ``tau`` is in canonical units."""

    endpoint: float = 1e-1
    eikonal: float = 1e-4
    smooth: float = 1e-3
    gamma: float = 3.0
    tau: float = 0.2
    knn: int = 4

    def __post_init__(self):
        if min(self.endpoint, self.eikonal, self.smooth) < 0.0:
            raise ValueError("loss coefficients must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("weight exponent gamma must be positive")
        if self.tau <= 0.0:
            raise ValueError("truncation must be positive (inf allowed)")
        if self.knn < 0:
            raise ValueError("knn must be nonnegative")


@dataclass(frozen=True)
class OptimConfig:
    """Optimizer, schedule and ray-sampling settings."""

    lr: float = 1e-4
    weight_decay: float = 1e-2
    epochs: int = 10
    batch_rays: int = 512
    seed: int = 0
    samples_per_ray: int = sampling.DEFAULT_SAMPLES

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1 or self.batch_rays < 1:
            raise ValueError("epochs and batch_rays must be positive")
        if self.samples_per_ray < 2:
            raise ValueError("samples_per_ray must be at least 2")
        for name in ("weight_decay", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted term values; total applies the lambda coefficients."""

    data: float
    endpoint: float
    eikonal: float
    smoothness: float
    total: float


@dataclass
class RayBatch:
    """One batch: the (R, m) ray endpoints and their (R·L, m) samples, ray-major.

    ``compute_targets`` pairs sample rows i·L to i·L + L - 1 with endpoint i.
    """

    endpoints: np.ndarray
    positions: np.ndarray


def make_batch(
    origins: _F,
    endpoints: _F,
    samples_per_ray: int = sampling.DEFAULT_SAMPLES,
) -> RayBatch:
    e = np.asarray(endpoints, dtype=np.float64)
    return RayBatch(endpoints=e, positions=sampling.sample_rays_batch(origins, e, samples_per_ray))


def neighbor_pairs(positions: _F, k: int) -> np.ndarray:
    """(P, 2) directed index pairs: each sample to its k nearest others."""
    x = np.asarray(positions, dtype=np.float64)
    s = x.shape[0]
    k_eff = min(k, s - 1)
    if k_eff < 1:
        return np.empty((0, 2), dtype=np.intp)
    _, idx = cKDTree(x).query(x, k=k_eff + 1)
    idx = np.atleast_2d(idx)[:, 1:]
    src = np.repeat(np.arange(s, dtype=np.intp), k_eff)
    return np.stack([src, idx.reshape(-1).astype(np.intp)], axis=1)


def loss_terms(
    values: _F,
    grads: _F,
    endpoint_values: _F,
    targets: TargetBatch,
    pairs: np.ndarray,
    w: LossWeights,
):
    """Loss breakdown plus adjoints (dL/dvalue, dL/dgrad, dL/dendpoint_value).

    All reductions run in fixed index order; the adjoints already carry the
    lambda coefficients and normalizations, so the caller only pushes them
    through the network's reverse pass.
    """
    vals = np.asarray(values, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    ev = np.asarray(endpoint_values, dtype=np.float64)
    s = vals.shape[0]
    if s == 0:
        raise ValueError("empty batch")
    wsum = float(np.sum(targets.weight))
    if wsum > 0.0:
        wn = targets.weight / wsum
    else:
        wn = np.full(s, 1.0 / s)
    r = vals - targets.d_hat
    data = float(np.sum(wn * np.abs(r)))
    val_bar = wn * np.sign(r)

    gnorm = np.linalg.norm(g, axis=1)
    eik = float(np.mean(np.abs(gnorm - 1.0)))
    ok = gnorm > GRAD_EPS
    safe = np.maximum(gnorm, GRAD_EPS)
    unit = g / safe[:, None]
    grad_bar = np.where(ok[:, None], (w.eikonal / s) * np.sign(gnorm - 1.0)[:, None] * unit, 0.0)

    if pairs.shape[0] > 0:
        li, lj = pairs[:, 0], pairs[:, 1]
        valid = ok[li] & ok[lj]
        dots = np.sum(unit[li] * unit[lj], axis=1)
        # Unit normals are negated unit gradients; the sign cancels in the dot.
        per_pair = np.where(valid, 1.0 - dots, 0.0)
        smooth = float(np.sum(per_pair) / pairs.shape[0])
        coef = -1.0 * valid / pairs.shape[0]
        contrib_i = coef[:, None] * (unit[lj] - dots[:, None] * unit[li]) / safe[li][:, None]
        contrib_j = coef[:, None] * (unit[li] - dots[:, None] * unit[lj]) / safe[lj][:, None]
        # Each pair's two contributions summed per point, in pair order for
        # the li side and then the lj side.
        ends = np.concatenate([li, lj])
        contrib = np.concatenate([contrib_i, contrib_j])
        scatter = np.stack(
            [np.bincount(ends, weights=contrib[:, k], minlength=s) for k in range(g.shape[1])], axis=1
        )
        grad_bar = grad_bar + w.smooth * scatter
    else:
        smooth = 0.0

    end_term = float(np.mean(np.abs(ev)))
    end_bar = (w.endpoint / ev.shape[0]) * np.sign(ev)

    total = data + w.endpoint * end_term + w.eikonal * eik + w.smooth * smooth
    breakdown = LossBreakdown(data=data, endpoint=end_term, eikonal=eik, smoothness=smooth, total=total)
    if not math.isfinite(total):
        raise FloatingPointError(f"non-finite loss: {breakdown}")
    return breakdown, val_bar, grad_bar, end_bar


def batch_loss(
    net: FieldNet,
    batch: RayBatch,
    w: LossWeights,
    mode: SupervisionMode,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss and exact parameter gradient for one batch, targets held constant."""
    if mode is SupervisionMode.CURVATURE_CONSTRAINED:
        vals, grads, trace, ghg = field_mod.jet_batch(net, batch.positions)
        hessian_terms = (trace, ghg)
    else:
        vals, grads = field_mod.grad_batch(net, batch.positions)
        hessian_terms = None
    targets = compute_targets(
        mode,
        vals,
        grads,
        hessian_terms,
        batch.positions,
        batch.endpoints,
        tau=w.tau,
        gamma=w.gamma,
    )
    ev = field_mod.evaluate_batch(net, batch.endpoints)
    pairs = neighbor_pairs(batch.positions, w.knn)
    breakdown, val_bar, grad_bar, end_bar = loss_terms(vals, grads, ev, targets, pairs, w)
    pg = field_mod.backprop(net, batch.positions, val_bar, grad_bar)
    pg += field_mod.backprop(net, batch.endpoints, end_bar)
    return breakdown, pg


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like ``FieldNet.params``, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros_like(net: FieldNet) -> "AdamState":
        return AdamState(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def _adamw_update(theta, grad, m, v, t, cfg: OptimConfig):
    b1, b2 = ADAM_BETAS
    m_new = b1 * m + (1.0 - b1) * grad
    v_new = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m_new / (1.0 - b1**t)
    v_hat = v_new / (1.0 - b2**t)
    step = cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    theta_new = theta - cfg.lr * cfg.weight_decay * theta - step
    return theta_new, m_new, v_new


def adamw_step(net: FieldNet, grads: np.ndarray, cfg: OptimConfig, state: AdamState) -> tuple[FieldNet, AdamState]:
    """One decoupled-weight-decay Adam step; returns fresh net and state."""
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError("non-finite parameter gradient")
    t = state.t + 1
    params, m, v = _adamw_update(net.params, grads, state.m, state.v, t, cfg)
    return replace(net, params=params), AdamState(m=m, v=v, t=t)


def train(
    net: FieldNet,
    rays: tuple[_F, _F],
    optim: OptimConfig,
    weights: LossWeights,
    mode: SupervisionMode,
) -> tuple[FieldNet, list[LossBreakdown]]:
    """Optimize the field over canonical-frame rays.

    ``rays`` is the (origins, endpoints) pair of (R, m) arrays that
    ``geom.normalize_scene`` returns.  Epochs reshuffle rays with the seeded
    generator; each batch recomputes targets under ``mode`` and takes one
    optimizer step.  Returns the trained net and each epoch's mean loss
    breakdown, in epoch order.
    """
    origins, endpoints = (np.asarray(a, dtype=np.float64) for a in rays)
    rng = np.random.default_rng(optim.seed)
    state = AdamState.zeros_like(net)
    history: list[LossBreakdown] = []
    n_rays = origins.shape[0]
    for _ in range(optim.epochs):
        perm = rng.permutation(n_rays)
        parts = np.zeros(5)
        n_batches = 0
        for lo in range(0, n_rays, optim.batch_rays):
            idx = perm[lo : lo + optim.batch_rays]
            batch = make_batch(origins[idx], endpoints[idx], optim.samples_per_ray)
            bd, grads = batch_loss(net, batch, weights, mode)
            net, state = adamw_step(net, grads, optim, state)
            parts += astuple(bd)
            n_batches += 1
        parts /= max(n_batches, 1)
        history.append(LossBreakdown(*parts))
    return net, history
