"""Analytic signed-distance scenes with exact derivatives, plus a range scanner.

Every primitive returns its exact signed distance (negative inside) together
with its exact gradient and Laplacian tr H where the distance is smooth.  At
non-smooth loci (box edges and corners, interior creases, union seams) the jet
comes from the active feature, ties broken by lowest index.  A scene's jet is
the contract of ``field.jet_batch``: values, gradients, tr H and gᵀHg, the
last zero because a distance gradient is unit wherever it is smooth (Hg = 0).

A scene file has four primitive lines, ``sphere``, ``circle``, ``box`` and
``plane``, one primitive per line (``parse_scene_text``).

The scanner sphere-traces beams through a scene to synthesize range scans:
the input modality for field training, with exact geometry as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .geom import Aabb, Pose, Scan

_F = npt.NDArray[np.floating]

TRACE_EPS = 1e-6
TRACE_SAFETY = 0.99
TRACE_MAX_STEPS = 10_000
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _pts(points) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64)
    return p[None, :] if p.ndim == 1 else p


@dataclass(frozen=True)
class Sphere:
    """Sphere (circle in 2D): distance |x - c| - r, smooth except at the center."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def sdf(self, points: _F) -> np.ndarray:
        p = _pts(points)
        return np.linalg.norm(p - self.center, axis=1) - self.radius

    def jet(self, points: _F):
        p = _pts(points)
        m = p.shape[1]
        rel = p - self.center
        dist = np.linalg.norm(rel, axis=1)
        safe = np.maximum(dist, 1e-300)
        u = rel / safe[:, None]
        # Center singularity: pick a fixed axis direction.
        at_center = dist == 0.0
        if np.any(at_center):
            u[at_center] = 0.0
            u[at_center, 0] = 1.0
        vals = dist - self.radius
        grads = u
        lap = np.where(at_center, 0.0, (m - 1) / safe)
        return vals, grads, lap


@dataclass(frozen=True)
class Plane:
    """Half-space boundary: distance n.x - offset, positive on the normal side."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ValueError("plane normal must be nonzero")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def sdf(self, points: _F) -> np.ndarray:
        return _pts(points) @ self.normal - self.offset

    def jet(self, points: _F):
        p = _pts(points)
        n, m = p.shape
        vals = p @ self.normal - self.offset
        grads = np.broadcast_to(self.normal, (n, m)).copy()
        return vals, grads, np.zeros(n)


@dataclass(frozen=True)
class Box:
    """Axis-aligned solid box; exact distance inside and out.

    Outside, the closest feature is a face, edge, or corner depending on how
    many coordinates k exceed the half-extents; the level sets bend around it
    as a plane, cylinder or sphere, with Laplacian (k - 1) / D.  Inside, the
    distance is the largest (negative) face deficit and the field is locally
    planar.
    """

    center: np.ndarray
    half: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        h = np.asarray(self.half, dtype=np.float64)
        if c.shape != h.shape or np.any(h <= 0.0):
            raise ValueError("box half-extents must be positive and match the center")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half", h)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _q(self, points: _F) -> tuple[np.ndarray, np.ndarray]:
        rel = _pts(points) - self.center
        return np.abs(rel) - self.half, np.where(rel >= 0.0, 1.0, -1.0)

    def sdf(self, points: _F) -> np.ndarray:
        q, _ = self._q(points)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(np.max(q, axis=1), 0.0)
        return outside + inside

    def jet(self, points: _F):
        p = _pts(points)
        n, m = p.shape
        q, sign = self._q(p)
        pos = np.maximum(q, 0.0)
        out_dist = np.linalg.norm(pos, axis=1)
        is_out = out_dist > 0.0
        vals = np.where(is_out, out_dist, np.max(q, axis=1))
        grads = np.zeros((n, m), dtype=np.float64)
        lap = np.zeros(n)
        if np.any(is_out):
            safe = np.maximum(out_dist, 1e-300)
            g_out = sign * pos / safe[:, None]
            # H = (diag[q > 0] - g gᵀ) / D on the k active axes: trace (k - 1) / D.
            lap_out = (np.sum(q > 0.0, axis=1) - 1) / safe
            grads[is_out] = g_out[is_out]
            lap[is_out] = lap_out[is_out]
        ins = ~is_out
        if np.any(ins):
            face = np.argmax(q[ins], axis=1)
            rows = np.arange(np.sum(ins))
            g_in = np.zeros((rows.size, m), dtype=np.float64)
            s = sign[ins][rows, face]
            s = np.where(s == 0.0, 1.0, s)
            g_in[rows, face] = s
            grads[ins] = g_in
        return vals, grads, lap


@dataclass(frozen=True)
class AnalyticScene:
    """Union (pointwise min) of primitives sharing one dimension."""

    primitives: tuple

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ValueError("scene needs at least one primitive")
        dims = {p.dim for p in prims}
        if len(dims) != 1:
            raise ValueError(f"mixed primitive dimensions {sorted(dims)}")
        object.__setattr__(self, "primitives", prims)

    @property
    def dim(self) -> int:
        return self.primitives[0].dim

    def _all_sdf(self, points: _F) -> np.ndarray:
        return np.stack([p.sdf(points) for p in self.primitives], axis=1)

    def sdf(self, points: _F) -> np.ndarray:
        return np.min(self._all_sdf(points), axis=1)

    def active_index(self, points: _F) -> np.ndarray:
        """Index of the winning primitive; argmin takes the lowest on ties."""
        return np.argmin(self._all_sdf(points), axis=1)

    def jet(self, points: _F):
        """Values (N,), gradients (N, m), tr H (N,) and gᵀHg (N,), as
        ``field.jet_batch`` returns them for a network."""
        p = _pts(points)
        n, m = p.shape
        active = self.active_index(p)
        vals = np.empty(n, dtype=np.float64)
        grads = np.empty((n, m), dtype=np.float64)
        lap = np.empty(n, dtype=np.float64)
        for i, prim in enumerate(self.primitives):
            sel = active == i
            if np.any(sel):
                vals[sel], grads[sel], lap[sel] = prim.jet(p[sel])
        return vals, grads, lap, np.zeros(n)


@dataclass(frozen=True)
class ScannerConfig:
    """Virtual range scanner parameters: ``fov`` is the full angular spread in
    radians; ``max_range`` and the range noise ``noise_sigma`` are world metres."""

    beams: int = 64
    fov: float = 2.0 * math.pi
    max_range: float = 100.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.beams < 1:
            raise ValueError("need at least one beam")
        if self.max_range <= 0.0:
            raise ValueError("max range must be positive")
        if not 0.0 < self.fov <= 2.0 * math.pi:
            raise ValueError("fov must be in (0, 2*pi]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be nonnegative")


def beam_directions(cfg: ScannerConfig, dim: int) -> np.ndarray:
    """Unit beam directions in the sensor frame, centered on the +x axis.

    2D: evenly spaced across the fov arc (bin centers, so a full-circle fov
    has no duplicate beam).  3D: a golden-angle spiral over the spherical cap
    of half-angle fov/2 around +x, which spreads beams nearly uniformly.
    """
    k = np.arange(cfg.beams, dtype=np.float64)
    if dim == 2:
        ang = cfg.fov * ((k + 0.5) / cfg.beams - 0.5)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        cap = math.cos(cfg.fov / 2.0)
        u = 1.0 - (1.0 - cap) * (k + 0.5) / cfg.beams
        rad = np.sqrt(np.maximum(1.0 - u * u, 0.0))
        phi = GOLDEN_ANGLE * k
        return np.stack([u, rad * np.cos(phi), rad * np.sin(phi)], axis=1)
    raise ValueError(f"unsupported dimension {dim}")


def sphere_trace(scene: AnalyticScene, origins: _F, directions: _F, max_range: float):
    """March each ray by the local distance value until it hits or escapes.

    Returns (hit mask, range) arrays.  The 0.99 step safety factor is enough
    because the scene distances are exact; termination at |D| < 1e-6.
    """
    o = np.asarray(origins, dtype=np.float64)
    u = np.asarray(directions, dtype=np.float64)
    n = o.shape[0]
    t = np.zeros(n, dtype=np.float64)
    hit = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    for _ in range(TRACE_MAX_STEPS):
        if not np.any(alive):
            break
        idx = np.where(alive)[0]
        d = scene.sdf(o[idx] + t[idx, None] * u[idx])
        close = np.abs(d) < TRACE_EPS
        hit[idx[close]] = True
        alive[idx[close]] = False
        step = TRACE_SAFETY * d[~close]
        rest = idx[~close]
        t[rest] += step
        escaped = t[rest] > max_range
        alive[rest[escaped]] = False
    return hit, t


def simulate_scan(scene: AnalyticScene, pose: Pose, cfg: ScannerConfig, rng) -> Scan:
    """Synthesize one scan by tracing the scanner's beams from the pose.

    Misses (beam escapes past max range) are dropped; optional Gaussian range
    noise, drawn from ``rng``, perturbs hit distances.  The pose origin must
    be in free space.
    """
    if scene.sdf(pose.translation[None, :])[0] <= 0.0:
        raise ValueError("scanner pose is not in free space")
    dirs = beam_directions(cfg, scene.dim) @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs.shape)
    hit, t = sphere_trace(scene, origins, dirs, cfg.max_range)
    if not np.any(hit):
        raise ValueError("all beams missed the scene")
    ranges = t[hit]
    if cfg.noise_sigma > 0.0:
        ranges = ranges + cfg.noise_sigma * rng.standard_normal(ranges.shape)
    endpoints = pose.translation + ranges[:, None] * dirs[hit]
    return Scan(pose=pose, points=pose.inverse_apply(endpoints))


def _primitive_box(prim):
    """(lo, hi) corners of a bounded primitive's box; None for a plane."""
    if isinstance(prim, Sphere):
        return prim.center - prim.radius, prim.center + prim.radius
    if isinstance(prim, Box):
        return prim.center - prim.half, prim.center + prim.half
    return None


def band_sample(scene: AnalyticScene, region: Aabb, band: float, count: int, rng) -> np.ndarray:
    """``count`` points split evenly over the primitives, planes included, in
    primitive order.  Each share is uniform over the points within ``band`` of
    its primitive inside ``region`` padded by ``band``; a share that set cannot
    fill raises ValueError naming the primitive."""
    prims = scene.primitives
    kept = []
    for i, prim in enumerate(prims):
        # cut to the primitive's padded box: the same set, found in fewer
        # draws, and a primitive whose box misses the region fails at once
        lo, hi = region.lo - band, region.hi + band
        own = _primitive_box(prim)
        if own is not None:
            lo, hi = np.maximum(lo, own[0] - band), np.minimum(hi, own[1] + band)
        want = count // len(prims) + (i < count % len(prims))
        got, have = [np.empty((0, scene.dim))], 0
        for _ in range(1000 if np.all(lo < hi) else 0):
            if have >= want:
                break
            pts = rng.uniform(lo, hi, size=(max(4 * want, 4096), scene.dim))
            sel = pts[np.abs(prim.sdf(pts)) < band]
            got.append(sel)
            have += sel.shape[0]
        if have < want:
            raise ValueError(f"primitive {i + 1} ({prim}) has only {have} of {want} points "
                             f"within {band} of its surface inside the region "
                             f"{np.round(region.lo, 3).tolist()} .. {np.round(region.hi, 3).tolist()}")
        kept.append(np.concatenate(got)[:want])
    return np.concatenate(kept)


def scene_bounds(scene: AnalyticScene):
    """Loose bounding box over bounded primitives; None if none are bounded."""
    boxes = [b for b in map(_primitive_box, scene.primitives) if b is not None]
    if not boxes:
        return None
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    return Aabb(lo, hi)


def parse_scene_text(text: str) -> AnalyticScene:
    """Build a scene from one primitive per line, implicit union.

    Grammar (floats whitespace-separated, '#' comments), four primitive lines:
        sphere cx cy cz r        (3D)
        circle cx cy r           (2D)
        box cx cy cz hx hy hz    box cx cy hx hy
        plane nx ny nz d         plane nx ny d
    """
    prims = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0].lower(), parts[1:]
        try:
            vals = [float(a) for a in args]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric argument in {line!r}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"line {lineno}: non-finite argument in {line!r}")
        if kind == "sphere" and len(vals) == 4:
            prims.append(Sphere(np.array(vals[:3]), vals[3]))
        elif kind == "circle" and len(vals) == 3:
            prims.append(Sphere(np.array(vals[:2]), vals[2]))
        elif kind == "box" and len(vals) == 6:
            prims.append(Box(np.array(vals[:3]), np.array(vals[3:])))
        elif kind == "box" and len(vals) == 4:
            prims.append(Box(np.array(vals[:2]), np.array(vals[2:])))
        elif kind == "plane" and len(vals) == 4:
            prims.append(Plane(np.array(vals[:3]), vals[3]))
        elif kind == "plane" and len(vals) == 3:
            prims.append(Plane(np.array(vals[:2]), vals[2]))
        else:
            raise ValueError(f"line {lineno}: unrecognized primitive {line!r}")
    return AnalyticScene(tuple(prims))


def parse_scene_file(path) -> AnalyticScene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene_text(fh.read())
