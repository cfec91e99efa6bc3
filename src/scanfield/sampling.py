"""Along-ray sample placement for self-supervised distance training.

Each sensor ray from origin o to measured endpoint e is sampled at parameters
t along x(t) = o + t (e - o) given by

    t_l = (1 - 10^(l / (n - 1) - 1)) / 0.9,   l = 1 .. n

which is a geometric progression in distance from the endpoint: samples pile
up near the measured surface where supervision is most informative, thin out
toward the sensor, and the final parameter is slightly negative (a probe just
behind the sensor origin).  For n = 40 the schedule runs from t ~ 0.9932 down
through exactly 0 at l = 39 to t ~ -0.0677 at l = 40.

The along-ray distance from a sample to the endpoint is d = (1 - t) * |e - o|.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

_F = npt.NDArray[np.floating]

DEFAULT_SAMPLES = 40


def schedule(n: int) -> np.ndarray:
    """Interpolation parameters t_1..t_n, strictly decreasing."""
    if n < 2:
        raise ValueError(f"need at least 2 samples per ray, got {n}")
    ell = np.arange(1, n + 1, dtype=np.float64)
    return (1.0 - 10.0 ** (ell / (n - 1) - 1.0)) / 0.9


def sample_rays_batch(
    origins: _F,
    endpoints: _F,
    n: int = DEFAULT_SAMPLES,
) -> np.ndarray:
    """Vectorized sampling over (R, m) ray arrays.

    Returns the positions (R*L, m), ray-major: row i*L + l is sample l of ray
    i, the order in which ``targets.compute_targets`` pairs samples with rays.
    """
    o = np.asarray(origins, dtype=np.float64)
    e = np.asarray(endpoints, dtype=np.float64)
    if o.shape != e.shape or o.ndim != 2:
        raise ValueError(f"origin/endpoint arrays must share shape (R, m), got {o.shape}/{e.shape}")
    t = schedule(n)
    r, m = o.shape
    seg = e - o
    if np.any(np.linalg.norm(seg, axis=1) <= 0.0):
        raise ValueError("zero-length ray in batch")
    pos = o[:, None, :] + t[None, :, None] * seg[:, None, :]
    return pos.reshape(r * t.size, m)
