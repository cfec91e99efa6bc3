"""Core geometric types and the scene normalization used before training.

Points are float64 arrays of shape (m,) with m in {2, 3}; batches are (N, m).
The dimension is fixed per run and everything here works for both values.
World units are meters by convention; the canonical frame produced by
``normalize_scene`` maps the rays' bounding box onto the cube [-1, 1]^m with a
single uniform scale so that distances (and the eikonal property) survive the
change of coordinates up to that scale factor.

Rays are an (origins, endpoints) pair of (R, m) arrays: row i is the segment
from a sensor position to the surface point it measured.  ``to_world`` gives
a scan's endpoints (its origin is the pose translation), ``normalize_scene``
validates a pair and maps it into the canonical frame, and ``train`` consumes
the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

_F = npt.NDArray[np.floating]

# Orthonormality / determinant tolerance for pose rotations.
ROT_TOL = 1e-9


def _as_float_array(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))
        raise ValueError(f"{name} contains non-finite entries at index {bad[0].tolist()}")
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid transform taking sensor-frame points to the world frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _as_float_array(self.rotation, "rotation")
        t = _as_float_array(self.translation, "translation")
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError(f"rotation must be square, got shape {r.shape}")
        m = r.shape[0]
        if t.shape != (m,):
            raise ValueError(f"translation shape {t.shape} does not match rotation {r.shape}")
        if np.abs(r.T @ r - np.eye(m)).max() > ROT_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1 (reflection or scale)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def apply(self, points: _F) -> np.ndarray:
        """Map sensor-frame points (..., m) into the world frame."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    @staticmethod
    def from_xytheta(x: float, y: float, theta: float, dim: int = 2) -> "Pose":
        """Planar pose at (x, y) heading ``theta``; in 3D, a heading about z at z = 0."""
        rot = np.eye(dim)
        rot[:2, :2] = rot2d(theta)
        return Pose(rot, np.array([x, y, 0.0][:dim], dtype=np.float64))


def rot2d(theta: float) -> np.ndarray:
    """Counterclockwise planar rotation matrix."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


@dataclass(frozen=True)
class Scan:
    """One range scan: sensor pose plus hit points in the sensor frame."""

    pose: Pose
    points: np.ndarray

    def __post_init__(self):
        p = _as_float_array(self.points, "points")
        if p.ndim != 2 or p.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (N, m) array, got shape {p.shape}")
        if p.shape[1] != self.pose.dim:
            raise ValueError(f"points dim {p.shape[1]} does not match pose dim {self.pose.dim}")
        object.__setattr__(self, "points", p)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box, lo strictly below hi in every coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_float_array(self.lo, "lo")
        hi = _as_float_array(self.hi, "hi")
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"lo/hi shapes {lo.shape}/{hi.shape} are incompatible")
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def half_extent(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    @staticmethod
    def cube(center, half: float) -> "Aabb":
        c = np.asarray(center, dtype=np.float64)
        return Aabb(c - half, c + half)


def to_world(scan: Scan) -> np.ndarray:
    """World-frame hit points of a scan, (N, m), one row per ray.

    Each ray runs from the sensor position ``scan.pose.translation`` to its
    row.  Raises if any point coincides with the origin; non-finite points
    are rejected when the ``Scan`` is constructed.
    """
    world = scan.pose.apply(scan.points)
    lengths = np.linalg.norm(world - scan.pose.translation, axis=1)
    if np.any(lengths <= 0.0):
        raise ValueError(f"scan point {int(np.argmax(lengths <= 0.0))} coincides with the sensor origin")
    return world


@dataclass(frozen=True)
class SceneTransform:
    """Uniform similarity between world and canonical [-1, 1]^m coordinates.

    canonical = (world - center) / scale.  ``scale`` is the world length of one
    canonical unit, so world distances are canonical distances times scale.
    """

    center: np.ndarray
    scale: float

    def __post_init__(self):
        c = _as_float_array(self.center, "center")
        if self.scale <= 0.0 or not np.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "scale", float(self.scale))

    def to_canonical(self, points: _F) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.center) / self.scale

    def to_world(self, points: _F) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) * self.scale + self.center

    @property
    def cube(self) -> Aabb:
        """World box mapped onto [-1, 1]^m; from ``normalize_scene``, the scanned region."""
        return Aabb.cube(self.center, self.scale)


def normalize_scene(
    origins: _F, endpoints: _F
) -> tuple[tuple[np.ndarray, np.ndarray], SceneTransform]:
    """Map (R, m) ray arrays from world coordinates into the canonical cube.

    Row i is the ray from ``origins[i]`` to ``endpoints[i]``; the arrays must
    share one (R, m) shape with finite entries and no zero-length ray.  The
    box is the bounding box of every origin and endpoint, padded by 1e-9 of
    its largest coordinate magnitude (at least 1e-9), so every sample
    position from origin through endpoint lies inside [-1, 1]^m.  The scale
    is the largest half-extent of the box, applied uniformly so the distance
    metric is preserved up to that single factor.  Returns the canonical
    (origins, endpoints) pair and the transform.
    """
    o = _as_float_array(origins, "origins")
    e = _as_float_array(endpoints, "endpoints")
    if o.shape != e.shape or o.ndim != 2:
        raise ValueError(f"origins/endpoints must share shape (R, m), got {o.shape}/{e.shape}")
    if o.shape[0] == 0:
        raise ValueError("empty ray arrays")
    short = np.linalg.norm(e - o, axis=1) <= 0.0
    if np.any(short):
        raise ValueError(f"ray {int(np.argmax(short))} has zero length")
    pts = np.concatenate([o, e], axis=0)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 1e-9 * np.maximum(1.0, np.abs(np.stack([lo, hi])).max())
    box = Aabb(lo - pad, hi + pad)
    tf = SceneTransform(center=box.center, scale=float(np.max(box.half_extent)))
    return (tf.to_canonical(o), tf.to_canonical(e)), tf
