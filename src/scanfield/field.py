"""Sine-activated MLP distance field with exact derivatives, in plain numpy.

The network maps an encoded point to one scalar.  Hidden layers are
``sin(factor * (W a + b))`` and the output layer is affine.  Values, spatial
gradients, and Hessians are propagated in closed form alongside the forward
pass (a second-order jet), so no finite differencing or autodiff framework is
involved anywhere.  Training support is a hand-written reverse pass that
accumulates parameter gradients for losses of the form

    sum_i  vbar_i * D(x_i)  +  sum_i  gbar_i . grad D(x_i)

with ``vbar``/``gbar`` supplied by the loss layer, evaluated at fixed inputs.

Derivative layout: gradients travel as (N, m, width) slabs and Hessians as
upper-triangle (N, m(m+1)/2, width) slabs over the ``np.triu_indices(m)``
pairs, mirrored to (N, m, m) only at the output.  The network width is last,
so each layer transition is a single reshaped matmul.  The encoding's
one-nonzero-per-row Jacobian makes the first layer a handful of
per-coordinate matmuls instead of a dense (F, m) contraction.  The reverse
sweep runs one forward pass per chunk and reads the activations, their
cosines and the pre-activation gradients from that pass's record instead of
recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .encoding import EncodingConfig, default_encoding, encode_jet

_F = npt.NDArray[np.floating]

VALUE_CHUNK = 8192
JET_CHUNK = 2048

DEFAULT_HIDDEN = 128
DEFAULT_LAYERS = 4
DEFAULT_FIRST_FACTOR = 30.0


@dataclass
class FieldNet:
    """Network parameters.  ``sine_factors[i] == 0`` marks an affine layer.

    Treated as immutable after construction; the optimizer returns fresh
    parameter arrays rather than mutating in place.
    """

    encoding: EncodingConfig
    dim: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    sine_factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or len(self.weights) != len(self.sine_factors):
            raise ValueError("weights, biases, sine_factors must have equal length")
        fan_in = self.encoding.feature_count(self.dim)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[1] != fan_in:
                raise ValueError(f"layer {i} expects fan-in {fan_in}, weight shape is {w.shape}")
            if b.shape != (w.shape[0],):
                raise ValueError(f"layer {i} bias shape {b.shape} does not match weight {w.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite parameters")
            fan_in = w.shape[0]
        if fan_in != 1:
            raise ValueError(f"final layer must output one scalar, got {fan_in}")

    @property
    def layer_count(self) -> int:
        return len(self.weights)


@dataclass
class ParamGrads:
    """Per-parameter gradient arrays, mirroring FieldNet's layout."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @staticmethod
    def zeros_like(net: FieldNet) -> "ParamGrads":
        return ParamGrads(
            weights=[np.zeros_like(w) for w in net.weights],
            biases=[np.zeros_like(b) for b in net.biases],
        )

    def add(self, other: "ParamGrads") -> None:
        for a, b in zip(self.weights, other.weights):
            a += b
        for a, b in zip(self.biases, other.biases):
            a += b


def init_field(
    seed: int,
    dim: int,
    encoding: EncodingConfig | None = None,
    hidden: int = DEFAULT_HIDDEN,
    hidden_layers: int = DEFAULT_LAYERS,
    first_factor: float = DEFAULT_FIRST_FACTOR,
) -> FieldNet:
    """Seeded sine-network init.

    First layer weights are U(-1/fan_in, 1/fan_in) and carry the large
    frequency factor; deeper sine layers use U(+-sqrt(6/fan_in)/factor) with
    factor 1, which keeps pre-activations in the arcsine-friendly regime.  The
    affine output layer uses U(+-sqrt(6/fan_in)).  Biases are drawn from the
    same interval as their layer's weights.  Identical seeds give bitwise
    identical parameters.
    """
    if encoding is None:
        encoding = default_encoding()
    if hidden_layers < 1 or hidden < 1:
        raise ValueError("need at least one hidden layer and one unit")
    rng = np.random.default_rng(seed)
    sizes = [encoding.feature_count(dim)] + [hidden] * hidden_layers + [1]
    factors = [first_factor] + [1.0] * (hidden_layers - 1) + [0.0]
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if i == 0:
            bound = 1.0 / fan_in
        else:
            bound = np.sqrt(6.0 / fan_in)
            if factors[i] > 0.0:
                bound /= factors[i]
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return FieldNet(
        encoding=encoding,
        dim=dim,
        weights=weights,
        biases=biases,
        sine_factors=tuple(factors),
    )


def _coord_columns(net: FieldNet) -> list[np.ndarray]:
    # Feature columns that depend on input coordinate j, per the block layout.
    m = net.dim
    blocks = 2 * net.encoding.bands + 1
    return [np.arange(blocks) * m + j for j in range(m)]


def _forward(net: FieldNet, x: np.ndarray, order: int, record: list | None = None):
    """One chunk forward pass.  Returns (val, grad, hess) with Nones padded.

    The value track runs through identical operations at every order, so the
    scalar output is bitwise independent of whether derivatives were asked for.
    With a ``record`` list, each layer appends ``(a_in, da_in, fac_cos, dz)``:
    its input and the input's spatial derivative (for layer 0 the encoder's
    sparse ``d1``), ``fac * cos(fac * z)`` (None for the affine layer) and
    ``dz`` (None at order 0).  A sine layer's ``sin(fac * z)`` is the next
    layer's ``a_in``.
    """
    n, m = x.shape
    jet = encode_jet(x, net.encoding, order)
    cols = _coord_columns(net)
    iu, ju = np.triu_indices(m)
    diag = np.flatnonzero(iu == ju)
    a = jet.values
    da = jet.d1
    d2a = None
    for li in range(net.layer_count):
        w, b, fac = net.weights[li], net.biases[li], net.sine_factors[li]
        a_in, da_in = a, da
        z = a @ w.T + b
        dz = d2z = fac_cos = None
        if order >= 1:
            if li == 0:
                dz = np.empty((n, m, w.shape[0]), dtype=np.float64)
                for j in range(m):
                    dz[:, j, :] = jet.d1[:, cols[j]] @ w[:, cols[j]].T
            else:
                dz = (da.reshape(n * m, -1) @ w.T).reshape(n, m, w.shape[0])
        if order >= 2:
            if li == 0:
                d2z = np.zeros((n, iu.size, w.shape[0]), dtype=np.float64)
                for j in range(m):
                    d2z[:, diag[j], :] = jet.d2[:, cols[j]] @ w[:, cols[j]].T
            else:
                d2z = (d2a.reshape(n * iu.size, -1) @ w.T).reshape(n, iu.size, w.shape[0])
        if fac == 0.0:
            a, da, d2a = z, dz, d2z
        else:
            arg = fac * z
            s = np.sin(arg)
            a = s
            if order >= 1 or record is not None:
                fac_cos = fac * np.cos(arg)
            if order >= 1:
                da = fac_cos[:, None, :] * dz
            if order >= 2:
                # fac_cos * d2z + c2 * dz_j * dz_k, in place, one row j of
                # pairs (j, j..m-1) at a time; these start at diag[j].
                c2 = -(fac * fac) * s
                d2a = d2z
                d2a *= fac_cos[:, None, :]
                for j in range(m):
                    prod = dz[:, j, None, :] * dz[:, j:, :]
                    prod *= c2[:, None, :]
                    d2a[:, diag[j] : diag[j] + m - j, :] += prod
        if record is not None:
            record.append((a_in, da_in, fac_cos, dz))
    val = a[:, 0]
    grad = da[:, :, 0] if order >= 1 else None
    hess = None
    if order >= 2:
        hess = np.empty((n, m, m), dtype=np.float64)
        hess[:, iu, ju] = d2a[:, :, 0]
        hess[:, ju, iu] = d2a[:, :, 0]
    return val, grad, hess


def _chunks(n: int, chunk: int):
    for lo in range(0, n, chunk):
        yield lo, min(lo + chunk, n)


def evaluate_batch(net: FieldNet, points: _F, chunk: int = VALUE_CHUNK) -> np.ndarray:
    """Field values at (N, m) points."""
    x = np.asarray(points, dtype=np.float64)
    out = np.empty(x.shape[0], dtype=np.float64)
    for lo, hi in _chunks(x.shape[0], chunk):
        out[lo:hi] = _forward(net, x[lo:hi], order=0)[0]
    return out


def grad_batch(net: FieldNet, points: _F, chunk: int = JET_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """Values (N,) and spatial gradients (N, m), skipping the Hessian track."""
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    vals = np.empty(n, dtype=np.float64)
    grads = np.empty((n, m), dtype=np.float64)
    for lo, hi in _chunks(n, chunk):
        v, g, _ = _forward(net, x[lo:hi], order=1)
        vals[lo:hi] = v
        grads[lo:hi] = g
    return vals, grads


def jet_batch(
    net: FieldNet, points: _F, chunk: int = JET_CHUNK
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (N,), gradients (N, m), Hessians (N, m, m) at the given points."""
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    vals = np.empty(n, dtype=np.float64)
    grads = np.empty((n, m), dtype=np.float64)
    hess = np.empty((n, m, m), dtype=np.float64)
    for lo, hi in _chunks(n, chunk):
        v, g, h = _forward(net, x[lo:hi], order=2)
        vals[lo:hi] = v
        grads[lo:hi] = g
        hess[lo:hi] = h
    return vals, grads, hess


def _backward_chunk(
    net: FieldNet,
    x: np.ndarray,
    vbar: np.ndarray,
    gbar: np.ndarray | None,
    out: ParamGrads,
) -> None:
    n, m = x.shape
    with_grad = gbar is not None
    record: list = []
    _forward(net, x, 1 if with_grad else 0, record)
    cols = _coord_columns(net)
    # Adjoints of the final layer's affine output (width 1).
    zbar = vbar[:, None].copy()
    dzbar = gbar[:, :, None].copy() if with_grad else None
    for li in range(net.layer_count - 1, -1, -1):
        w = net.weights[li]
        a_in, da_in = record[li][:2]
        out.biases[li] += zbar.sum(axis=0)
        out.weights[li] += zbar.T @ a_in
        if with_grad:
            n_out = w.shape[0]
            flat_dzbar = dzbar.reshape(n * m, n_out)
            if li == 0:
                for j in range(m):
                    out.weights[li][:, cols[j]] += dzbar[:, j, :].T @ da_in[:, cols[j]]
            else:
                out.weights[li] += flat_dzbar.T @ da_in.reshape(n * m, -1)
        if li == 0:
            break
        abar = zbar @ w
        dabar = flat_dzbar @ w if with_grad else None
        # Through the previous sine: a_in = sin(f z), da_in = f cos(f z) dz.
        facp = net.sine_factors[li - 1]
        _, _, fac_cos, dzp = record[li - 1]
        zbar = fac_cos * abar
        if with_grad:
            dabar = dabar.reshape(n, m, -1)
            zbar += np.sum(dabar * dzp, axis=1) * (-(facp * facp) * a_in)
            dzbar = fac_cos[:, None, :] * dabar


def backprop(
    net: FieldNet,
    points: _F,
    value_bar: _F,
    grad_bar: _F | None = None,
    chunk: int = JET_CHUNK,
) -> ParamGrads:
    """Parameter gradients of sum(vbar * D) + sum(gbar . grad D).

    ``value_bar`` is (N,), ``grad_bar`` is (N, m) or None when no term touches
    the spatial gradient.  Inputs and adjoint coefficients are treated as
    constants.
    """
    x = np.asarray(points, dtype=np.float64)
    vbar = np.asarray(value_bar, dtype=np.float64)
    gbar = None if grad_bar is None else np.asarray(grad_bar, dtype=np.float64)
    out = ParamGrads.zeros_like(net)
    for lo, hi in _chunks(x.shape[0], chunk):
        _backward_chunk(net, x[lo:hi], vbar[lo:hi], None if gbar is None else gbar[lo:hi], out)
    return out
