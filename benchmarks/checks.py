"""Output checks and quality measurements, all through scanfield's public API.

The SDF error is measured here rather than with ``eval-sdf``: the band is
sampled around every primitive of the scene, planes included, inside the
workload's region, so the measurement does not depend on how the program
bounds a scene.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from scanfield import field, storage


def band_sample(scene, region, band: float, count: int, rng) -> np.ndarray:
    """``count`` points, split evenly over the primitives, each within ``band``
    of its primitive's surface and inside ``region`` padded by ``band``."""
    lo = np.asarray(region[0], dtype=np.float64) - band
    hi = np.asarray(region[1], dtype=np.float64) + band
    prims = scene.primitives
    quota = [count // len(prims) + (i < count % len(prims)) for i in range(len(prims))]
    kept = []
    for prim, want in zip(prims, quota):
        got = []
        have = 0
        for _ in range(1000):
            if have >= want:
                break
            pts = rng.uniform(lo, hi, size=(max(4 * want, 4096), lo.size))
            sel = pts[np.abs(prim.sdf(pts)) < band]
            got.append(sel)
            have += sel.shape[0]
        if have < want:
            raise ValueError(f"band sampler found {have} of {want} points near {prim}")
        kept.append(np.concatenate(got)[:want])
    return np.concatenate(kept)


def sdf_errors(model_path: Path, points: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Absolute world-frame SDF errors of a checkpoint at ``points``."""
    net = storage.load_model(model_path)
    tf = storage.load_transform(Path(f"{model_path}.transform"))
    pred = tf.scale * field.evaluate_batch(net, tf.to_canonical(points))
    return np.abs(pred - truth)


def loss_rows(path: Path) -> list[list[float]]:
    """Numeric rows of a ``train`` loss table (header dropped)."""
    lines = path.read_text().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines if line.strip()]


def all_finite(rows: list[list[float]]) -> bool:
    return bool(rows) and all(math.isfinite(v) for row in rows for v in row)


def mcl_row(path: Path) -> dict[str, float | None]:
    """The ``localize`` table: runs, converged, rmse, mae ('-' reads as None)."""
    header, row = path.read_text().splitlines()[:2]
    vals = [None if v == "-" else float(v) for v in row.split(",")]
    return dict(zip(header.split(","), vals))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path, pattern: str) -> str:
    """One hash over every file under ``root`` matching ``pattern``, by
    relative path and content."""
    h = hashlib.sha256()
    for p in sorted(root.rglob(pattern)):
        h.update(str(p.relative_to(root)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()
