"""Sine-activated MLP distance field with exact derivatives, in plain numpy.

The network maps an encoded point to one scalar.  Hidden layers are
``sin(factor * (W a + b))`` and the output layer is affine.  Values, spatial
gradients, and Hessians are propagated in closed form alongside the forward
pass (a second-order jet), so no finite differencing or autodiff framework is
involved anywhere.  Training support is a hand-written reverse pass that
accumulates parameter gradients for losses of the form

    sum_i  vbar_i * D(x_i)  +  sum_i  gbar_i . grad D(x_i)

with ``vbar``/``gbar`` supplied by the loss layer, evaluated at fixed inputs.

All parameters live in one flat vector, ``FieldNet.params``.  The parameter
gradient, the optimizer moments and the checkpoint body share its layout,
and ``FieldNet.layers``, which views such a vector per layer, is the only
code that knows it.

Derivative layout: gradients travel as (N, m, width) slabs and Hessians as
upper-triangle (N, m(m+1)/2, width) slabs over the ``np.triu_indices(m)``
pairs, mirrored to (N, m, m) only at the output.  The network width is last,
so each layer transition is a single reshaped matmul.  The encoding's
one-nonzero-per-row Jacobian makes the first layer a handful of
per-coordinate matmuls, over the encoder's coordinate-major derivatives and
weight column blocks gathered once per batch call, instead of a dense (F, m)
contraction.

Every sine and cosine, in the encoder and in the sine layers, comes from
``encoding.sincos``: one table-driven kernel for both functions, the same at
every order, so the value track stays bitwise independent of the order.

Every pass walks the points in blocks of ``BLOCK`` rows, so that one
block's derivative slabs stay in a core's L2 cache instead of streaming
through memory (the default 3D net's Hessian slab is 1.5 MB per 256-row
block); the last block also takes the remainder.  Each output row depends on
its own input row alone, so values, gradients and Hessians do not depend on
where the blocks end.  The reverse sweep runs one forward pass per block and
reads the activations, their cosines and the pre-activation gradients from
that pass's record instead of recomputing them; the record lives for one
block.  The parameter gradient is summed per block and then over blocks, so
its rounding, and only its rounding, depends on ``BLOCK``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .encoding import EncodingConfig, default_encoding, encode_jet, sincos

_F = npt.NDArray[np.floating]

# Rows per block in every pass; see the module docstring.
BLOCK = 256

DEFAULT_HIDDEN = 128
DEFAULT_LAYERS = 4
DEFAULT_FIRST_FACTOR = 30.0


@dataclass
class FieldNet:
    """Network parameters.  ``sine_factors[i] == 0`` marks an affine layer.

    ``widths[i]`` is layer i's output width, the last one 1; layer 0's fan-in
    is the encoder's feature count.  ``params`` is one flat float64 vector,
    layer-major: each layer's (width, fan-in) weight matrix in row-major
    order, then its bias.  ``layers`` views any vector in that layout (the
    parameters, a gradient) as per-layer (weight, bias) pairs, so this class
    is the only place that knows the layout.

    Treated as immutable after construction; the optimizer returns a fresh
    parameter vector rather than mutating in place.
    """

    encoding: EncodingConfig
    dim: int
    widths: tuple[int, ...]
    params: np.ndarray
    sine_factors: tuple[float, ...]

    def __post_init__(self):
        if len(self.widths) != len(self.sine_factors):
            raise ValueError("widths and sine_factors must have equal length")
        if not self.widths or self.widths[-1] != 1:
            raise ValueError(f"final layer must output one scalar, widths are {self.widths}")
        size = sum(width * (fan_in + 1) for width, fan_in in self._shapes())
        if self.params.shape != (size,):
            raise ValueError(f"widths {self.widths} take {size} parameters, got shape {self.params.shape}")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite parameters")

    def _shapes(self):
        fan_in = self.encoding.feature_count(self.dim)
        for width in self.widths:
            yield width, fan_in
            fan_in = width

    def layers(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into ``flat``, laid out like ``params``."""
        out = []
        lo = 0
        for width, fan_in in self._shapes():
            hi = lo + width * fan_in
            out.append((flat[lo:hi].reshape(width, fan_in), flat[hi : hi + width]))
            lo = hi + width
        return out

    @property
    def weights(self) -> list[np.ndarray]:
        return [w for w, _ in self.layers(self.params)]

    @property
    def biases(self) -> list[np.ndarray]:
        return [b for _, b in self.layers(self.params)]

    @property
    def layer_count(self) -> int:
        return len(self.widths)


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
    widths = (hidden,) * hidden_layers + (1,)
    factors = (first_factor,) + (1.0,) * (hidden_layers - 1) + (0.0,)
    fan_in = encoding.feature_count(dim)
    draws = []
    for i, (width, factor) in enumerate(zip(widths, factors)):
        if i == 0:
            bound = 1.0 / fan_in
        else:
            bound = np.sqrt(6.0 / fan_in)
            if factor > 0.0:
                bound /= factor
        # The weight, then the bias: one draw gives the same numbers as two.
        draws.append(rng.uniform(-bound, bound, size=width * (fan_in + 1)))
        fan_in = width
    return FieldNet(
        encoding=encoding,
        dim=dim,
        widths=widths,
        params=np.concatenate(draws),
        sine_factors=factors,
    )


def _coord_columns(net: FieldNet) -> list[np.ndarray]:
    # Feature columns that depend on input coordinate j, per the block layout.
    m = net.dim
    blocks = 2 * net.encoding.bands + 1
    return [np.arange(blocks) * m + j for j in range(m)]


def _first_layer_blocks(net: FieldNet) -> list[np.ndarray]:
    """Layer 0's weight columns for each input coordinate, (width, 2h+1) each;
    gathered once per batch call and shared by its blocks."""
    return [net.weights[0][:, cols] for cols in _coord_columns(net)]


def _forward(
    net: FieldNet, x: np.ndarray, order: int, w0: list[np.ndarray], record: list | None = None
):
    """One block's forward pass.  Returns (val, grad, hess) with Nones padded.

    ``w0`` is ``_first_layer_blocks(net)``.  The value track runs through
    identical operations at every order, so the scalar output is bitwise
    independent of whether derivatives were asked for.  With a ``record``
    list, each layer appends ``(a_in, da_in, fac_cos, dz)``: its input and the
    input's spatial derivative (for layer 0 the encoder's coordinate-major
    ``d1``), ``fac * cos(fac * z)`` (None for the affine layer) and ``dz``
    (None at order 0).  A sine layer's ``sin(fac * z)`` is the next layer's
    ``a_in``.
    """
    n, m = x.shape
    jet = encode_jet(x, net.encoding, order)
    iu, ju = np.triu_indices(m)
    diag = np.flatnonzero(iu == ju)
    a = jet.values
    da = jet.d1
    d2a = None
    for li, (w, b, fac) in enumerate(zip(net.weights, net.biases, net.sine_factors)):
        width = w.shape[0]
        a_in, da_in = a, da
        z = a @ w.T + b
        dz = d2z = fac_cos = None
        if order >= 1:
            if li == 0:
                dz = np.empty((n, m, width), dtype=np.float64)
                for j in range(m):
                    dz[:, j, :] = jet.d1[j] @ w0[j].T
            else:
                dz = (da.reshape(n * m, -1) @ w.T).reshape(n, m, width)
        if order >= 2:
            if li == 0:
                d2z = np.zeros((n, iu.size, width), dtype=np.float64)
                for j in range(m):
                    d2z[:, diag[j], :] = jet.d2[j] @ w0[j].T
            else:
                d2z = (d2a.reshape(n * iu.size, -1) @ w.T).reshape(n, iu.size, width)
        if fac == 0.0:
            a, da, d2a = z, dz, d2z
        else:
            s, cos = sincos(fac * z)
            a = s
            if order >= 1 or record is not None:
                fac_cos = cos
                fac_cos *= fac
            if order >= 1:
                da = fac_cos[:, None, :] * dz
            if order >= 2:
                # fac_cos * d2z + c2 * dz_j * dz_k, in place, one row j of
                # pairs (j, j..m-1) at a time; these start at diag[j].
                c2 = -(fac * fac) * s
                d2a = d2z
                d2a *= fac_cos[:, None, :]
                prod = np.empty((n, m, width), dtype=np.float64)
                for j in range(m):
                    p = prod[:, : m - j, :]
                    np.multiply(dz[:, j, None, :], dz[:, j:, :], out=p)
                    p *= c2[:, None, :]
                    d2a[:, diag[j] : diag[j] + m - j, :] += p
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


def _blocks(n: int):
    # The last block takes the remainder (up to 2 * BLOCK - 1 rows): BLAS
    # rounds a matmul of only a few rows differently from a longer one, so a
    # short tail block would change those rows' values.
    lo = 0
    while lo < n:
        hi = n if n - lo < 2 * BLOCK else lo + BLOCK
        yield lo, hi
        lo = hi


def _walk(net: FieldNet, points: _F, order: int) -> list[np.ndarray]:
    # Values, then gradients and Hessians up to ``order``, block by block.
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    w0 = _first_layer_blocks(net)
    outs = [np.empty(shape) for shape in [(n,), (n, m), (n, m, m)][: order + 1]]
    for lo, hi in _blocks(n):
        for out, part in zip(outs, _forward(net, x[lo:hi], order, w0)):
            out[lo:hi] = part
    return outs


def evaluate_batch(net: FieldNet, points: _F) -> np.ndarray:
    """Field values at (N, m) points."""
    return _walk(net, points, 0)[0]


def grad_batch(net: FieldNet, points: _F) -> tuple[np.ndarray, np.ndarray]:
    """Values (N,) and spatial gradients (N, m), skipping the Hessian track."""
    return tuple(_walk(net, points, 1))


def jet_batch(net: FieldNet, points: _F) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (N,), gradients (N, m), Hessians (N, m, m) at the given points."""
    return tuple(_walk(net, points, 2))


def _backward_block(
    net: FieldNet,
    x: np.ndarray,
    vbar: np.ndarray,
    gbar: np.ndarray | None,
    w0: list[np.ndarray],
    out: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    n, m = x.shape
    with_grad = gbar is not None
    record: list = []
    _forward(net, x, 1 if with_grad else 0, w0, record)
    cols = _coord_columns(net)
    # Adjoints of the final layer's affine output (width 1).
    zbar = vbar[:, None].copy()
    dzbar = gbar[:, :, None].copy() if with_grad else None
    weights = net.weights
    for li in range(net.layer_count - 1, -1, -1):
        w = weights[li]
        gw, gb = out[li]
        a_in, da_in = record[li][:2]
        gb += zbar.sum(axis=0)
        gw += zbar.T @ a_in
        if with_grad:
            n_out = w.shape[0]
            flat_dzbar = dzbar.reshape(n * m, n_out)
            if li == 0:
                for j in range(m):
                    gw[:, cols[j]] += dzbar[:, j, :].T @ da_in[j]
            else:
                gw += flat_dzbar.T @ da_in.reshape(n * m, -1)
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
            zbar += np.einsum("njk,njk->nk", dabar, dzp) * (-(facp * facp) * a_in)
            dzbar = fac_cos[:, None, :] * dabar


def backprop(
    net: FieldNet,
    points: _F,
    value_bar: _F,
    grad_bar: _F | None = None,
) -> np.ndarray:
    """Parameter gradient of sum(vbar * D) + sum(gbar . grad D), laid out like ``net.params``.

    ``value_bar`` is (N,), ``grad_bar`` is (N, m) or None when no term touches
    the spatial gradient.  Inputs and adjoint coefficients are treated as
    constants.
    """
    x = np.asarray(points, dtype=np.float64)
    vbar = np.asarray(value_bar, dtype=np.float64)
    gbar = None if grad_bar is None else np.asarray(grad_bar, dtype=np.float64)
    w0 = _first_layer_blocks(net)
    grad = np.zeros_like(net.params)
    out = net.layers(grad)
    for lo, hi in _blocks(x.shape[0]):
        _backward_block(net, x[lo:hi], vbar[lo:hi], None if gbar is None else gbar[lo:hi], w0, out)
    return grad
