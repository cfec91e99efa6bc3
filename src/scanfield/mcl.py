"""Global 2D Monte Carlo localization against a distance field.

Particles carry (x, y, heading).  Every step applies the odometry delta with
seeded Gaussian noise and then measures: it reweights the particles by the
scan and resamples them systematically.  The observation model scores a
particle by the field values at the scan endpoints projected through its
pose: log-likelihood sum_k -D(T_p(z_k))^2 / (2 sigma_z^2).

The field argument everywhere is a vectorized callable (N, 2) -> (N,); wrap
an expensive field in a bilinear-interpolated grid with
``SampledField2D(sample_grid(grid_fn, box, res), box)``, whose lookups clamp
to the box.  ``meshing.sample_grid`` takes a grid function of the grid's
axes: ``cli.world_grid`` for a model, ``meshing.pointwise(f)`` for a points
function ``f`` such as an analytic scene's ``sdf``.  A measurement update calls the field once,
with the world endpoints of every particle and beam as an (n*k, 2) view of
one (2, n*k) array, so each coordinate is a contiguous column.  The grid
interpolates in numpy, bitwise as ``scipy.ndimage.map_coordinates`` at order
1 with clamped edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geom import Aabb


def wrap_angle(theta):
    """Wrap to [-pi, pi)."""
    return np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi


def relative_deltas(traj: np.ndarray) -> np.ndarray:
    """Robot-frame odometry between consecutive (x, y, heading) rows; row 0 is zero."""
    prev, cur = traj[:-1], traj[1:]
    dxw, dyw = cur[:, 0] - prev[:, 0], cur[:, 1] - prev[:, 1]
    c, s = np.cos(-prev[:, 2]), np.sin(-prev[:, 2])
    deltas = np.zeros_like(traj)
    deltas[1:] = np.stack([c * dxw - s * dyw, s * dxw + c * dyw,
                           wrap_angle(cur[:, 2] - prev[:, 2])], axis=1)
    return deltas


@dataclass(frozen=True)
class MclConfig:
    """Filter settings.  ``conv_std``, ``sigma_z`` and the translation
    odometry noise are world metres; the rotation odometry noise is radians."""

    n_particles: int = 10_000
    conv_std: float = 0.30
    sigma_z: float = 0.1
    # odometry noise: sigma = base + frac * |motion|
    odom_trans_base: float = 0.01
    odom_trans_frac: float = 0.01
    odom_rot_base: float = 0.002
    odom_rot_frac: float = 0.01
    runs: int = 5

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        for name in ("conv_std", "sigma_z"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("odom_trans_base", "odom_trans_frac", "odom_rot_base", "odom_rot_frac"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ParticleSet:
    """Poses (n, 3) as x, y, heading, and normalized weights."""

    poses: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.poses, dtype=np.float64).reshape(-1, 3)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if p.shape[0] != w.shape[0] or p.shape[0] == 0:
            raise ValueError("poses and weights must align and be non-empty")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
            raise ValueError("non-finite particle state")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "poses", p)
        object.__setattr__(self, "weights", w / total)

    @property
    def size(self) -> int:
        return self.poses.shape[0]


def init_uniform(box: Aabb, cfg: MclConfig, rng) -> ParticleSet:
    """Equal-weight particles uniform over the box with heading in [-pi, pi)."""
    if box.dim != 2:
        raise ValueError("localization map must be 2D")
    n = cfg.n_particles
    xy = rng.uniform(box.lo, box.hi, size=(n, 2))
    th = rng.uniform(-np.pi, np.pi, size=n)
    poses = np.concatenate([xy, th[:, None]], axis=1)
    return ParticleSet(poses, np.full(n, 1.0 / n))


def motion_update(pset: ParticleSet, delta, cfg: MclConfig, rng) -> ParticleSet:
    """Compose each particle with the robot-frame delta plus sampled noise."""
    dx, dy, dth = (float(v) for v in delta)
    n = pset.size
    step_len = float(np.hypot(dx, dy))
    s_t = cfg.odom_trans_base + cfg.odom_trans_frac * step_len
    s_r = cfg.odom_rot_base + cfg.odom_rot_frac * abs(dth)
    local = np.empty((n, 3))
    local[:, 0] = dx + rng.normal(0.0, s_t, n) if s_t > 0 else dx
    local[:, 1] = dy + rng.normal(0.0, s_t, n) if s_t > 0 else dy
    local[:, 2] = dth + rng.normal(0.0, s_r, n) if s_r > 0 else dth
    th = pset.poses[:, 2]
    c, s = np.cos(th), np.sin(th)
    out = np.empty_like(pset.poses)
    out[:, 0] = pset.poses[:, 0] + c * local[:, 0] - s * local[:, 1]
    out[:, 1] = pset.poses[:, 1] + s * local[:, 0] + c * local[:, 1]
    out[:, 2] = wrap_angle(th + local[:, 2])
    return ParticleSet(out, pset.weights)


def log_likelihoods(pset: ParticleSet, scan_points, field, sigma_z: float) -> np.ndarray:
    """Per-particle observation log-likelihood over the scan endpoints."""
    z = np.asarray(scan_points, dtype=np.float64).reshape(-1, 2)
    n, k = pset.size, z.shape[0]
    th = pset.poses[:, 2]
    c, s = np.cos(th), np.sin(th)
    # world endpoints per particle: rotate scan by heading, then translate
    wx = pset.poses[:, 0:1] + np.outer(c, z[:, 0]) - np.outer(s, z[:, 1])
    wy = pset.poses[:, 1:2] + np.outer(s, z[:, 0]) + np.outer(c, z[:, 1])
    # (n*k, 2) points as a view of two rows: each coordinate is contiguous.
    pts = np.stack([wx.reshape(-1), wy.reshape(-1)]).T
    d = np.asarray(field(pts), dtype=np.float64).reshape(n, k)
    return -np.sum(d * d, axis=1) / (2.0 * sigma_z * sigma_z)


def systematic_resample(pset: ParticleSet, rng) -> ParticleSet:
    n = pset.size
    positions = (rng.uniform() + np.arange(n)) / n
    cdf = np.cumsum(pset.weights)
    cdf[-1] = 1.0  # guard the top bin against rounding
    idx = np.searchsorted(cdf, positions, side="left")
    return ParticleSet(pset.poses[idx], np.full(n, 1.0 / n))


def step(pset: ParticleSet, delta, scan_points, field, cfg: MclConfig, rng) -> ParticleSet:
    """One filter step: the motion update, then the measurement update."""
    pset = motion_update(pset, delta, cfg, rng)
    ll = log_likelihoods(pset, scan_points, field, cfg.sigma_z)
    ok = np.isfinite(ll)  # a NaN field value gives its particle weight 0
    w = np.zeros(pset.size)
    if ok.any():
        w[ok] = np.exp(ll[ok] - ll[ok].max()) * pset.weights[ok]
    total = w.sum()
    if total <= 0.0 or not np.isfinite(total):
        warnings.warn("all particle likelihoods vanished; reweighting uniformly")
        w = np.full(pset.size, 1.0 / pset.size)
    return systematic_resample(ParticleSet(pset.poses, w), rng)


def estimate(pset: ParticleSet) -> tuple[np.ndarray, float]:
    """Weighted mean position (2,) and scalar positional std."""
    w = pset.weights
    xy = pset.poses[:, :2]
    mean = w @ xy
    spread = xy - mean
    return mean, float(np.sqrt(np.sum(w * np.sum(spread * spread, axis=1))))


@dataclass(frozen=True)
class RunResult:
    """One localization run: per-step position estimates and the first converged step."""

    positions: np.ndarray  # (steps, 2)
    converged_at: int | None


@dataclass(frozen=True)
class MclMetrics:
    rmse: float
    mae: float
    converged_runs: int


def localize_run(field, box: Aabb, deltas, scans, cfg: MclConfig, rng) -> RunResult:
    """Drive one full run: uniform init, then one step per (delta, scan)."""
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 3)
    if deltas.shape[0] != len(scans):
        raise ValueError("need one scan per odometry delta")
    pset = init_uniform(box, cfg, rng)
    pos = []
    converged_at = None
    for i, (delta, scan_pts) in enumerate(zip(deltas, scans)):
        pset = step(pset, delta, scan_pts, field, cfg, rng)
        mean, std = estimate(pset)
        pos.append(mean)
        if converged_at is None and std < cfg.conv_std:
            converged_at = i
    return RunResult(np.asarray(pos), converged_at)


def run_metrics(truth_xy, results) -> MclMetrics | None:
    """Average post-convergence positional RMSE/MAE across converged runs.

    Errors are taken from each run's convergence step onward.  Runs that never
    converge are excluded; with no converged runs the result is absent (None).
    """
    truth = np.asarray(truth_xy, dtype=np.float64).reshape(-1, 2)
    rmses, maes = [], []
    for run in results:
        if run.converged_at is None:
            continue
        if run.positions.shape[0] != truth.shape[0]:
            raise ValueError("estimate count does not match ground truth length")
        err = np.linalg.norm(run.positions[run.converged_at :] - truth[run.converged_at :], axis=1)
        rmses.append(float(np.sqrt(np.mean(err * err))))
        maes.append(float(np.mean(err)))
    if not rmses:
        return None
    return MclMetrics(
        rmse=float(np.mean(rmses)),
        mae=float(np.mean(maes)),
        converged_runs=len(rmses),
    )


class SampledField2D:
    """Bilinear interpolation over a precomputed value grid.

    Trades exactness for speed so a 10k-particle filter can score hundreds of
    thousands of endpoint lookups per step.  Queries clamp to the box: a grid
    coordinate u = (x - lo) / spacing reads the corners floor(u) and
    floor(u) + 1 of its cell, each index clamped to the grid, so a query
    beyond an edge reads that edge.  With s = 1 - (u - floor(u)) the low
    corner weighs s and the high one 1 - s, and the four products
    (V * wx) * wy are summed in corner order (i, j), (i, j+1), (i+1, j),
    (i+1, j+1).  That is bitwise ``scipy.ndimage.map_coordinates`` at
    ``order=1, mode="nearest", prefilter=False`` wherever its integer cast
    of u holds (|u| < 2**63); a non-finite query reads NaN.  The clamp lives
    in the grid itself, a copy with one more row and column of edge values on
    every side, so one flat index and three offsets find the four corners.
    """

    def __init__(self, values: np.ndarray, box: Aabb):
        v = np.asarray(values, dtype=np.float64)
        if box.dim != 2 or v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("need a 2D box and at least a 2x2 value grid")
        self.values = v
        self.box = box
        self._spacing = (box.hi - box.lo) / (np.array(v.shape) - 1)
        self._edged = np.pad(v, 1, mode="edge").ravel()

    def __call__(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        n0, n1 = self.values.shape
        row = n1 + 2  # the edged grid's row length
        cells, weights = [], []
        # An infinite coordinate gives t = inf - inf: NaN, and no warning.
        with np.errstate(invalid="ignore"):
            for a, size in enumerate((n0, n1)):
                t = p[:, a] - self.box.lo[a]
                t /= self._spacing[a]
                cell = np.floor(t)
                t -= cell
                # The cell, clamped to -1 .. size - 1; fmin turns NaN into
                # size - 1, so the cast below meets none.
                np.fmin(cell, size - 1, out=cell)
                np.fmax(cell, -1, out=cell)
                cells.append(cell)
                # The low and high corners weigh s = 1 - t and 1 - s, as
                # scipy's order-1 spline weighs them; 1 - s need not be t.
                s = np.subtract(1.0, t, out=t)
                weights.append((s, 1.0 - s))
        (sx, tx), (sy, ty) = weights
        flat = cells[0]
        flat *= row
        flat += cells[1]
        k = flat.astype(np.intp)
        k += row + 1  # the edged grid's (i + 1, j + 1) is the grid's clamped (i, j)
        out = np.take(self._edged, k, mode="clip")
        out *= sx
        out *= sy
        term = np.empty_like(out)
        for step, wx, wy in ((1, sx, ty), (row - 1, tx, sy), (1, tx, ty)):
            k += step  # corners (i, j+1), (i+1, j), (i+1, j+1)
            np.take(self._edged, k, out=term, mode="clip")
            term *= wx
            term *= wy
            out += term
        return out
