"""Sine-activated MLP distance field with exact derivatives, in plain numpy.

The network maps an encoded point to one scalar.  Hidden layers are
``sin(factor * (W a + b))`` and the output layer is affine.  Values, spatial
gradients, and the two Hessian contractions the level-set curvature needs
are propagated in closed form through the layers, so no finite differencing
or autodiff framework is involved anywhere.  Training support is a
hand-written reverse pass that accumulates parameter gradients for losses of
the form

    sum_i  vbar_i * D(x_i)  +  sum_i  gbar_i . grad D(x_i)

with ``vbar``/``gbar`` supplied by the loss layer, evaluated at fixed inputs.
The second sum is one directional derivative per row, so the reverse pass
forms no spatial gradient: its forward pass carries beside the values one
tangent t = Σ_j gbar_j ∂a/∂x_j (forward mode; Griewank & Walther, 2008,
ch. 3-4), for layer 0 the encoder's derivative times gbar in feature layout,
t0[:, b*m + j] = d1[j][:, b] gbar_j.  Each layer records (a_in, t_in,
fac_cos, tz); back from zbar = vbar and tbar = 1, the weight gradient gains
zbarᵀ a_in + tbarᵀ t_in, and a sine layer passes back zbar = fac_cos·abar +
c2·tabar·tz and tbar = fac_cos·tabar (abar = zbar W, tabar = tbar W,
c2 = -fac² sin(fac z)).

All parameters live in one flat vector, ``FieldNet.params``.  The parameter
gradient, the optimizer moments and the checkpoint body share its layout,
and ``FieldNet.layers``, which views such a vector per layer, is the only
code that knows it.

Derivative layout: the forward passes carry gradients as (N, m, width) slabs,
the network width last, so each layer transition is one reshaped matmul.  The
encoding's one-nonzero-per-row Jacobian makes their first layer a handful of
per-coordinate matmuls, over the encoder's coordinate-major derivatives and
weight column blocks gathered once per batch call, instead of a dense (F, m)
contraction.

Second order: the curvature target needs tr H and gᵀHg of the output's
Hessian H, never H itself, so no (N, m, m) Hessian is formed.  The Laplacian
rides along the order-1 forward pass as one (N, width) slab (forward
Laplacian, Li et al. 2023, arXiv:2307.08214): with the encoder's diagonal
Hessian, layer 0 gives Δz = Σ_j d2[j] @ w0[j].T, and a sine layer
Δa = fac cos(fac z) Δz - fac² sin(fac z) Σ_j dz_j².  Once the output
gradient g is known, one more slab is swept over the recorded layers for the
second derivative along g (Taylor mode, Bettencourt et al. 2019): layer 0
gives Σ_j g_j² d2[j] @ w0[j].T, and a sine layer the same map with
(Σ_j g_j dz_j)² in place of Σ_j dz_j².  Two slabs per layer replace the
m(m+1)/2 of an upper-triangle Hessian.

Every sine and cosine, in the encoder and in the sine layers, comes from
``encoding.sincos``: one table-driven kernel for both functions.  Its sine is
the same whether or not the cosine is asked for (an order-0 pass without a
record skips it), so the value track stays bitwise independent of the order.

Every pass walks the points in blocks of ``BLOCK`` rows, so that one
block's derivative slabs stay in a core's L2 cache instead of streaming
through memory (the default 3D net's gradient slab is 0.75 MB per 256-row
block); the last block also takes the remainder.  Each output row depends on
its own input row alone, so no output depends on where the blocks end.  The
reverse sweep runs one forward pass per block and reads the activations,
their cosines and the pre-activation tangents from that pass's record
instead of recomputing them; the gᵀHg sweep likewise reads the cosines and
pre-activation gradients its order-2 pass kept.  Both live for one block.
The parameter gradient is summed per block and then over blocks, so its
rounding, and only its rounding, depends on ``BLOCK``.
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
        if not np.all(np.isfinite(self.sine_factors)):
            raise ValueError(f"non-finite sine factors {self.sine_factors}")

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


def _first_layer_blocks(net: FieldNet) -> list[np.ndarray]:
    """Layer 0's weight columns for each input coordinate, (width, 2h+1) each
    (feature b*m + j depends on x_j alone); gathered once per batch call and
    shared by its blocks."""
    m = net.dim
    blocks = 2 * net.encoding.bands + 1
    return [net.weights[0][:, np.arange(blocks) * m + j] for j in range(m)]


def _forward(net: FieldNet, x: np.ndarray, order: int, w0: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One block's forward pass: ``(val,)``, ``(val, grad)`` or ``(val, grad, lap, ghg)``.

    ``w0`` is ``_first_layer_blocks(net)``.  The value track runs through
    identical operations at every order, so the scalar output is bitwise
    independent of whether derivatives were asked for.  Order 2 carries the
    Laplacian slab alongside the gradient, keeps each sine layer's
    ``(fac_cos, dz, c2)`` and then sweeps them once more along the output
    gradient g for gᵀHg (``_directional``).
    """
    n, m = x.shape
    jet = encode_jet(x, net.encoding, order)
    a = jet.values
    da = jet.d1
    lap = d2z0 = None
    sweep = []
    for li, (w, b, fac) in enumerate(zip(net.weights, net.biases, net.sine_factors)):
        width = w.shape[0]
        z = a @ w.T + b
        dz = lz = fac_cos = c2 = None
        if order >= 1:
            if li == 0:
                dz = np.empty((n, m, width), dtype=np.float64)
                for j in range(m):
                    dz[:, j, :] = jet.d1[j] @ w0[j].T
            else:
                dz = (da.reshape(n * m, -1) @ w.T).reshape(n, m, width)
        if order >= 2:
            if li == 0:
                # The encoder's Hessian is diagonal: one d2z / dx_j² per coordinate.
                d2z0 = [jet.d2[j] @ w0[j].T for j in range(m)]
                lz = sum(d2z0)
            else:
                lz = lap @ w.T
        if fac == 0.0:
            a, da, lap = z, dz, lz
        else:
            a, fac_cos = sincos(fac * z, order >= 1)
            if order >= 1:
                fac_cos *= fac
                da = fac_cos[:, None, :] * dz
            if order >= 2:
                # fac_cos * Δz + c2 * Σ_j dz_j², c2 = -fac² sin(fac z)
                c2 = -(fac * fac) * a
                lap = lz
                lap *= fac_cos
                lap += np.einsum("njk,njk->nk", dz, dz) * c2
        if order >= 2:
            sweep.append((fac_cos, dz, c2))
    val = a[:, 0]
    if order == 0:
        return (val,)
    grad = da[:, :, 0]
    if order == 1:
        return val, grad
    return val, grad, lap[:, 0], _directional(net, sweep, d2z0, grad)


def _directional(net: FieldNet, sweep: list, d2z0: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """vᵀHv per row: the output's second derivative along direction v.

    One slab runs through the layers again, reading each layer's
    ``(fac_cos, dz, c2)`` from ``sweep`` (Nones for the affine layer).
    ``d2z0[j]`` is layer 0's pre-activation second derivative along x_j; the
    encoder's Hessian is diagonal, so layer 0 starts from Σ_j v_j² d2z0[j].
    A sine layer maps q to fac_cos * q + c2 * (Σ_j v_j dz_j)², as the
    Laplacian does with Σ_j dz_j².
    """
    v2 = v * v
    q = sum(v2[:, j, None] * part for j, part in enumerate(d2z0))
    for li, (w, (fac_cos, dz, c2)) in enumerate(zip(net.weights, sweep)):
        if li > 0:
            q = q @ w.T
        if fac_cos is not None:
            vdz = np.einsum("nj,njk->nk", v, dz)
            vdz *= vdz
            vdz *= c2
            q *= fac_cos
            q += vdz
    return q[:, 0]


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
    # ``_forward``'s outputs at ``order``, block by block.
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    w0 = _first_layer_blocks(net)
    outs = [np.empty(shape) for shape in [[(n,)], [(n,), (n, m)], [(n,), (n, m), (n,), (n,)]][order]]
    for lo, hi in _blocks(n):
        for out, part in zip(outs, _forward(net, x[lo:hi], order, w0)):
            out[lo:hi] = part
    return outs


def evaluate_batch(net: FieldNet, points: _F) -> np.ndarray:
    """Field values at (N, m) points."""
    return _walk(net, points, 0)[0]


def grad_batch(net: FieldNet, points: _F) -> tuple[np.ndarray, np.ndarray]:
    """Values (N,) and spatial gradients (N, m): the order-1 pass alone."""
    return tuple(_walk(net, points, 1))


def jet_batch(net: FieldNet, points: _F) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Values (N,), gradients g (N, m), and the Hessian's trace tr H (N,) and
    gᵀHg (N,) at the given points: the two contractions the mean curvature
    of the level set needs, without forming any Hessian."""
    return tuple(_walk(net, points, 2))


def _backward_block(
    net: FieldNet, x: np.ndarray, vbar: np.ndarray, gbar: np.ndarray | None, out: list
) -> None:
    # One block's recorded forward pass, then the reverse sweep into ``out``
    # (``net.layers`` of the gradient); see the module docstring.  The tangent
    # track runs only with ``gbar``.
    n = x.shape[0]
    with_grad = gbar is not None
    jet = encode_jet(x, net.encoding, 1 if with_grad else 0)
    a, t = jet.values, None
    if with_grad:
        # Feature b*m + j depends on x_j alone: its tangent is d1[j][:, b] * gbar_j.
        t = (jet.d1.transpose(1, 2, 0) * gbar[:, None, :]).reshape(n, -1)
    record = []
    for w, b, fac in zip(net.weights, net.biases, net.sine_factors):
        a_in, t_in = a, t
        z = a @ w.T + b
        tz = t @ w.T if with_grad else None
        fac_cos = None
        if fac == 0.0:
            a, t = z, tz
        else:
            a, fac_cos = sincos(fac * z)
            fac_cos *= fac
            if with_grad:
                t = fac_cos * tz
        record.append((a_in, t_in, fac_cos, tz))
    # Adjoints of the final layer's affine output (width 1) and its tangent.
    zbar = vbar[:, None]
    tbar = np.ones((n, 1)) if with_grad else None
    weights = net.weights
    for li in range(net.layer_count - 1, -1, -1):
        (gw, gb), (a_in, t_in, _, _), w = out[li], record[li], weights[li]
        gb += zbar.sum(axis=0)
        gw += zbar.T @ a_in
        if with_grad:
            gw += tbar.T @ t_in
        if li == 0:
            break
        # Through the previous sine: a_in = sin(f z), t_in = f cos(f z) tz.
        facp = net.sine_factors[li - 1]
        _, _, fac_cos, tzp = record[li - 1]
        zbar = fac_cos * (zbar @ w)
        if with_grad:
            tabar = tbar @ w
            zbar += tabar * tzp * (-(facp * facp) * a_in)
            tbar = fac_cos * tabar


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
    grad = np.zeros_like(net.params)
    out = net.layers(grad)
    for lo, hi in _blocks(x.shape[0]):
        _backward_block(net, x[lo:hi], vbar[lo:hi], None if gbar is None else gbar[lo:hi], out)
    return grad
