"""Analytic signed-distance scenes with exact derivatives, plus a range scanner.

Every primitive returns its exact signed distance (negative inside) together
with its exact gradient and Laplacian tr H where the distance is smooth.  At
non-smooth loci (box edges and corners, interior creases, union seams) the jet
comes from the active feature, ties broken by lowest index.  A scene's jet is
the contract of ``field.jet_batch``: values, gradients, tr H and gᵀHg, the
last zero because a distance gradient is unit wherever it is smooth (Hg = 0).

A primitive class carries ``dim``, ``sdf``, ``jet``, ``bounds`` and ``hit``.
A scene file holds one primitive per line; ``LINE_FORMS`` is the one list of
line forms (``parse_scene_text``), so a new primitive is one class plus one
row per form.

The scanner casts a trajectory's beams in one call of the closed-form first
hits to synthesize range scans, the training input, with exact geometry as
ground truth: every endpoint is on the surface to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .geom import Aabb, Pose, Scan

_F = npt.NDArray[np.floating]

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _pts(points) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64)
    return p[None, :] if p.ndim == 1 else p


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (N, m) rows with one m-vector or with N rows,
    summed column by column, so each row is rounded alone (no BLAS across rows)."""
    return sum(a[:, k] * b[..., k] for k in range(a.shape[1]))


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
        u[at_center] = 0.0
        u[at_center, 0] = 1.0
        lap = np.where(at_center, 0.0, (m - 1) / safe)
        return dist - self.radius, u, lap

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def hit(self, origins: _F, directions: _F) -> np.ndarray:
        """Distance along each unit beam from an outside origin to the surface;
        inf for a miss.  A tangent beam hits.  The near root is c / (-b + √disc),
        the product of the roots over the far one, so nothing cancels."""
        rel, u = _pts(origins) - self.center, _pts(directions)
        b, c = _dot(rel, u), _dot(rel, rel) - self.radius**2
        disc = b * b - c
        return np.divide(c, np.sqrt(np.maximum(disc, 0.0)) - b, out=np.full(b.shape, np.inf),
                         where=(b < 0.0) & (disc >= 0.0))


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

    def bounds(self) -> None:
        """None: a half-space has no bounding box."""
        return None

    def hit(self, origins: _F, directions: _F) -> np.ndarray:
        """Distance along each unit beam from an outside origin to the plane;
        inf for a beam parallel to it or leaving it."""
        height = _dot(_pts(origins), self.normal) - self.offset
        rate = _dot(_pts(directions), self.normal)
        return np.divide(height, -rate, out=np.full(height.shape, np.inf), where=rate < 0.0)


@dataclass(frozen=True)
class Box:
    """Axis-aligned solid box; exact distance inside and out.

    Outside, the closest feature is a face, edge, or corner depending on how
    many coordinates k exceed the half-extents; the level sets bend around it
    as a plane, cylinder or sphere, with Laplacian (k - 1) / D.  Inside, the
    distance is the largest (negative) face deficit q = |x - c| - h and the
    field is locally planar: the gradient is ±1 on that axis, the lowest index
    on ties, signed by x - c and +1 where x - c = 0.
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
        q, sign = self._q(points)
        pos = np.maximum(q, 0.0)
        out_dist = np.linalg.norm(pos, axis=1)
        is_out = out_dist > 0.0
        safe = np.maximum(out_dist, 1e-300)
        on_face = np.arange(q.shape[1]) == np.argmax(q, axis=1)[:, None]
        vals = np.where(is_out, out_dist, np.max(q, axis=1))
        grads = np.where(is_out[:, None], sign * pos / safe[:, None], np.where(on_face, sign, 0.0))
        # H = (diag[q > 0] - g gᵀ) / D on the k active axes: trace (k - 1) / D.
        lap = np.where(is_out, (np.sum(q > 0.0, axis=1) - 1) / safe, 0.0)
        return vals, grads, lap

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.half, self.center + self.half

    def hit(self, origins: _F, directions: _F) -> np.ndarray:
        """Distance along each unit beam from an outside origin to the box;
        inf for a miss.  Closed slabs: touching a face, edge or corner hits.
        An axis the beam runs parallel to admits all t or none, by where the
        origin lies, so no 0 / 0 is formed."""
        rel, u = _pts(origins) - self.center, _pts(directions)
        near, far = 0.0, np.inf  # the forward t-interval inside every slab so far
        for x, v, h in zip(rel.T, u.T, self.half):
            flat = v == 0.0
            step = np.where(flat, 1.0, v)
            a, b = (-h - x) / step, (h - x) / step
            within = np.where(np.abs(x) <= h, np.inf, -np.inf)
            near = np.maximum(near, np.where(flat, -within, np.minimum(a, b)))
            far = np.minimum(far, np.where(flat, within, np.maximum(a, b)))
        return np.where(near <= far, near, np.inf)


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
        # (primitives, N): the reductions below run over rows, not over a
        # short last axis, which numpy reduces slowly.
        return np.stack([p.sdf(points) for p in self.primitives])

    def sdf(self, points: _F) -> np.ndarray:
        return np.min(self._all_sdf(points), axis=0)

    def active_index(self, points: _F) -> np.ndarray:
        """Index of the winning primitive; argmin takes the lowest on ties."""
        return np.argmin(self._all_sdf(points), axis=0)

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
            vals[sel], grads[sel], lap[sel] = prim.jet(p[sel])
        return vals, grads, lap, np.zeros(n)

    def hit(self, origins: _F, directions: _F) -> np.ndarray:
        """Distance along each unit beam to the first primitive it enters; inf
        for none.  Each ray's value depends on that ray alone."""
        return np.min([p.hit(origins, directions) for p in self.primitives], axis=0)


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
    """(hit mask, range) of each unit beam: its closed-form first hit
    ``scene.hit``, a hit when no farther than ``max_range``.  Named for the
    sphere-tracing march it replaced; the benchmark times the scanner's cast
    under this name (``scenes.sphere_trace.s``)."""
    t = scene.hit(origins, directions)
    return t <= max_range, t


def simulate_scan(scene: AnalyticScene, poses: list[Pose], cfg: ScannerConfig, rng) -> list[Scan]:
    """One scan per pose of the sequence ``poses``, from one cast of all beams.

    Each origin must be in free space (the error names the first that is not)
    and each pose must hit something; misses and hits beyond max range are
    dropped.  Gaussian range noise is drawn from ``rng`` pose by pose.  A scan's
    points are its ranges times its sensor-frame beams.  Memory grows with
    poses × beams; each range is the same as in a one-pose call.
    """
    origins = np.array([pose.translation for pose in poses]).reshape(-1, scene.dim)
    blocked = np.flatnonzero(scene.sdf(origins) <= 0.0)
    if blocked.size:
        raise ValueError(f"scanner pose {blocked[0]} is not in free space")
    beams = beam_directions(cfg, scene.dim)
    dirs = np.array([beams @ pose.rotation.T for pose in poses])
    hit, t = (a.reshape(-1, cfg.beams) for a in sphere_trace(
        scene, np.repeat(origins, cfg.beams, axis=0), dirs.reshape(-1, scene.dim), cfg.max_range))
    scans = []
    for k, pose in enumerate(poses):
        if not np.any(hit[k]):
            raise ValueError(f"all beams of scanner pose {k} missed the scene")
        ranges = t[k, hit[k]]
        if cfg.noise_sigma > 0.0:
            ranges = ranges + cfg.noise_sigma * rng.standard_normal(ranges.shape)
        scans.append(Scan(pose=pose, points=ranges[:, None] * beams[hit[k]]))
    return scans


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
        own = prim.bounds()
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
    boxes = [b for b in (p.bounds() for p in scene.primitives) if b is not None]
    if not boxes:
        return None
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    return Aabb(lo, hi)


# The one list of scene-file line forms: (keyword, argument count) to the
# primitive built from the line's floats.
LINE_FORMS = {
    ("sphere", 4): lambda v: Sphere(np.array(v[:3]), v[3]),  # sphere cx cy cz r
    ("circle", 3): lambda v: Sphere(np.array(v[:2]), v[2]),  # circle cx cy r
    ("box", 6): lambda v: Box(np.array(v[:3]), np.array(v[3:])),  # box cx cy cz hx hy hz
    ("box", 4): lambda v: Box(np.array(v[:2]), np.array(v[2:])),  # box cx cy hx hy
    ("plane", 4): lambda v: Plane(np.array(v[:3]), v[3]),  # plane nx ny nz d
    ("plane", 3): lambda v: Plane(np.array(v[:2]), v[2]),  # plane nx ny d
}


def parse_scene_text(text: str) -> AnalyticScene:
    """Build a scene from one primitive per line, implicit union.

    A line is a keyword and whitespace-separated floats ('#' starts a
    comment); ``LINE_FORMS`` is the one list of line forms.  Errors name
    their line: an
    unknown form, a bad number, a value the primitive rejects, or a dimension
    other than the first primitive's.
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
        build = LINE_FORMS.get((kind, len(vals)))
        if build is None:
            raise ValueError(f"line {lineno}: unrecognized primitive {line!r}")
        try:
            prim = build(vals)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc} in {line!r}") from exc
        if not prims:
            first = lineno
        elif prim.dim != prims[0].dim:
            raise ValueError(f"line {lineno}: {line!r} is {prim.dim}D but line {first} is "
                             f"{prims[0].dim}D")
        prims.append(prim)
    return AnalyticScene(tuple(prims))


def parse_scene_file(path) -> AnalyticScene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene_text(fh.read())
