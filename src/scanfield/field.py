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
forms no spatial gradient: it runs ``_forward`` seeded with gbar, whose
derivative slab then carries the one tangent t = Σ_j gbar_j ∂a/∂x_j (forward
mode; Griewank & Walther, 2008, ch. 3-4), and reads that walk's per-layer
record (a_in, t_in, fac_cos, tz).  Back from zbar = vbar and tbar = 1, the
weight gradient gains zbarᵀ a_in + tbarᵀ t_in, and a sine layer passes back
zbar = fac_cos·abar + c2·tabar·tz and tbar = fac_cos·tabar (abar = zbar W,
tabar = tbar W, c2 = -fac² sin(fac z)).

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

Every pass walks the points in row blocks of ``BLOCK_WORK // hidden`` rows,
so that a block's work, rows times hidden width, is the same for every net:
256 rows of the default 128-wide net, 512 of the room2d benchmark's 64-wide
one; the last block also takes the remainder.  Each output row is a
function of its own input row alone, but its rounding is not: the width-1
output layer's matrix-vector product rounds the last block's rows by their
position, so regrouping rows can move a value by tens of ulp.  The reverse
sweep's record and the gᵀHg sweep's ``(fac_cos, dz, c2)`` list live for one
block.  The parameter gradient is summed per block and then over blocks, so
its rounding, and only its rounding, depends on the block rows.

Parallel blocks: one dispatch, ``forward_sets`` or ``backprop_sets``, runs
the blocks of several row sets, and ``forward_sets`` side tasks beside them
(a training step hands it its kNN query), on up to ``set_threads`` threads:
the caller and the others of a ``ThreadPoolExecutor`` that the first
dispatch of two tasks or more starts.  ``evaluate_batch``, ``grad_batch``,
``jet_batch`` and ``backprop`` are its one-set case; ``evaluate_grid`` runs
a grid's blocks in one dispatch of its own.  A side task is a plain
callable that starts no field pass, so no dispatch nests.  numpy releases the
interpreter lock inside BLAS calls and ufuncs, and scipy's kNN query
releases it too, so tasks overlap there.  The outputs are bitwise those of
one thread: each set is cut into blocks as it would be alone, a walk's block
writes its own rows, computed as they would be alone, and a ``backprop``
block returns its per-layer terms (the bias term Σ zbar, the weight terms
zbarᵀ a_in and tbarᵀ t_in), which are added to its set's gradient in block
order, and in that order within a block, as one thread adds them.  At 2
threads, a room2d training step ran 7-11 % faster in its two dispatches than
with its four passes and kNN query one after another
(``BENCH_step_queue.json``).  The block rule reads no thread count.  In a
sweep of one training step's passes (``BENCH_blocks_by_work.json``: widths
32-256, 2D and 3D, 2 vCPUs), 256-row blocks ran the room2d net 16 % slower
pooled than on one thread, and 512-row blocks 11 % faster: a narrow layer
spends a short block in interpreter work that holds the lock.  At 2 threads
the rule's blocks were the fastest swept, or within the spread, at every width.
One thread favours short blocks at every width, so narrow nets pay there:
+4 % a step for the room2d net, up to +21 % for other 32- to 96-wide nets.

Grids: a mesh and a localization map read the field on a tensor grid, and
every encoder feature depends on one coordinate, so ``evaluate_grid`` builds
layer 0 from per-axis tables instead of encoding each node.  T_j, the
encoding of axis j's coordinates times layer 0's weight columns for x_j, is
(n_j, hidden); the bias is folded into T_0.  A line, one index on axes 1..,
shares E = Σ_{j≥1} T_j and one ``sincos`` of f E over its n_0 nodes, and
angle addition gives layer 0's sine, sin(f T_0) cos(f E) + cos(f T_0)
sin(f E).  That is more accurate than the point path, which rounds the
argument f z₀ (up to about 100) before its sine.  Layers 1 onward run
through ``_forward`` on blocks of whole lines, all of a grid's blocks in one
dispatch; a block gathers its own E rows, so no table of all n^(m-1) lines
is formed (67 MB at ``mesh``'s default res 256).  A grid row skips the
encoder and layer 0, so it counts as half a row of ``BLOCK_WORK``: on the
room3d benchmark's res-48 grid at 2 threads, 490-row blocks took a median
0.50 s against 0.59 s for 245-row ones, and 0.86 s against 0.81 s on one
thread (8 alternating runs each); at res 64 and 96, 2 threads, 20 % and 25 %
less.  Block bounds depend on the grid and the net alone, so the bytes do
not depend on the thread count.  On the default 3D net at res 48 (117,649
nodes; 2-vCPU x86-64 VM, one BLAS thread, 3 runs each) a grid took
0.89-0.91 s on one thread and 0.50-0.55 s on two, against 1.38-1.66 s and
1.01-1.65 s for ``evaluate_batch`` over the same nodes in z-slices, and its
values stayed within 4.7e-15 of those.

Allocator: loading this module sets three of glibc's malloc parameters, once
for the process (``_tune_malloc``; a no-op where ``mallopt`` is missing), so
the ``scanfield`` script, ``python -m scanfield``, an in-process
``cli.main`` and library use all run one allocator.  Fixed mmap and trim
thresholds (32 MiB and 256 MiB) keep freed blocks in the heap for the next
block to reuse: by default glibc serves each allocation above its dynamic
mmap threshold with a fresh ``mmap`` and trims the heap top when it frees,
so every row block faults its block-sized temporaries back in page by page.
In eight alternating pairs of ``python -m scanfield train --seed 0`` on the
room3d benchmark's scene and config (2-vCPU x86-64 VM, one BLAS thread, two
field threads), a run took 61-130 thousand minor page faults and 0.33-0.57 s
of system time without the thresholds, and 18 thousand and 0.17-0.29 s with
them.  ``demos/demo_localize.py``, run as a plain ``python3`` process (same
VM, BLAS pinned through the environment), took 3.35-3.45 s and 401-498
thousand minor faults at glibc's defaults, and 2.77-2.89 s and 29-30
thousand with the thresholds (3 runs each).  One malloc
arena (``M_ARENA_MAX``): glibc otherwise gives each new thread, the pool's
included, an arena of its own, whose freed blocks no other thread reuses;
without the cap the room3d benchmark's peak RSS read 114.6-115.0 MB, with it
103.8-106.0 MB.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np
import numpy.typing as npt

from .encoding import EncodingConfig, encode_jet, sincos

_F = npt.NDArray[np.floating]

DEFAULT_HIDDEN = 128
DEFAULT_LAYERS = 4
DEFAULT_FIRST_FACTOR = 30.0

# Rows times hidden width per block in every pass; see the module docstring.
BLOCK_WORK = 256 * 128

# glibc's mallopt (parameter, value) pairs, in the order set: M_MMAP_THRESHOLD
# at 32 MiB, the largest glibc accepts on 64-bit hosts, M_TRIM_THRESHOLD at
# 256 MiB and M_ARENA_MAX at 1; see "Allocator" in the module docstring.
_MALLOPT = ((-3, 32 << 20), (-1, 256 << 20), (-8, 1))


def _tune_malloc() -> None:
    # Set ``_MALLOPT`` in order; a no-op where ``mallopt`` is missing.
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    for param, value in _MALLOPT:
        fn(param, value)


_tune_malloc()


def _layer_shapes(encoding: EncodingConfig, dim: int, hidden: int, hidden_layers: int):
    # Each layer's (width, fan-in), first to last, for ``FieldNet`` and ``init_field``.
    if min(dim, hidden, hidden_layers) < 1:
        raise ValueError(f"need a dimension, a hidden layer and a unit, got dim {dim}, "
                         f"{hidden_layers} layers of {hidden}")
    fan_in = encoding.feature_count(dim)
    for width in (hidden,) * hidden_layers + (1,):
        yield width, fan_in
        fan_in = width


@dataclass
class FieldNet:
    """A sine network over ``encoding``'s features of ``dim`` coordinates.

    ``hidden_layers`` sine layers of ``hidden`` units, the first with the
    factor ``first_factor`` and the rest with 1, feed one affine output unit.
    ``params`` is one flat float64 vector, layer-major: each layer's (width,
    fan-in) weight matrix in row-major order, then its bias.  ``layers``
    views any vector in that layout (the parameters, a gradient) as
    per-layer (weight, bias, factor) triples, a factor of 0 marking the
    affine layer, so this class is the only place that knows the layout.

    Treated as immutable after construction; the optimizer returns a fresh
    parameter vector rather than mutating in place.
    """

    encoding: EncodingConfig
    dim: int
    hidden: int
    hidden_layers: int
    first_factor: float
    params: np.ndarray

    def __post_init__(self):
        size = sum(width * (fan_in + 1) for width, fan_in in
                   _layer_shapes(self.encoding, self.dim, self.hidden, self.hidden_layers))
        if not np.isfinite(self.first_factor):
            raise ValueError(f"non-finite first-layer factor {self.first_factor}")
        if self.first_factor <= 0.0:  # a factor of 0 marks the affine output layer
            raise ValueError(f"first-layer factor must be positive, got {self.first_factor}")
        if self.params.shape != (size,):
            raise ValueError(f"{self.hidden_layers} layers of {self.hidden} take {size} parameters, "
                             f"got shape {self.params.shape}")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite parameters")

    def layers(self, flat: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """Per-layer (weight, bias, factor), first to last: (width, fan-in)
        and (width,) views into ``flat`` (``params`` by default), laid out
        like ``params``, and the layer's sine factor, 0 for the affine output."""
        flat = self.params if flat is None else flat
        factors = (self.first_factor,) + (1.0,) * (self.hidden_layers - 1) + (0.0,)
        out = []
        lo = 0
        for (width, fan_in), fac in zip(
                _layer_shapes(self.encoding, self.dim, self.hidden, self.hidden_layers), factors):
            hi = lo + width * fan_in
            out.append((flat[lo:hi].reshape(width, fan_in), flat[hi : hi + width], fac))
            lo = hi + width
        return out


def init_field(
    seed: int,
    dim: int,
    encoding: EncodingConfig = EncodingConfig(),
    hidden: int = DEFAULT_HIDDEN,
    hidden_layers: int = DEFAULT_LAYERS,
    first_factor: float = DEFAULT_FIRST_FACTOR,
) -> FieldNet:
    """Seeded sine-network init.

    First layer weights are U(-1/fan_in, 1/fan_in) and carry the large
    frequency factor; every later layer, the deeper sine layers (factor 1)
    and the affine output alike, uses U(+-sqrt(6/fan_in)), which keeps
    pre-activations in the arcsine-friendly regime.  Biases are drawn from
    the same interval as their layer's weights.  Identical seeds give bitwise
    identical parameters; ``FieldNet`` checks the shapes.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for i, (width, fan_in) in enumerate(_layer_shapes(encoding, dim, hidden, hidden_layers)):
        bound = 1.0 / fan_in if i == 0 else np.sqrt(6.0 / fan_in)
        # The weight, then the bias: one draw gives the same numbers as two.
        draws.append(rng.uniform(-bound, bound, size=width * (fan_in + 1)))
    return FieldNet(encoding, dim, hidden, hidden_layers, first_factor, np.concatenate(draws))


def _first_layer_blocks(net: FieldNet) -> list[np.ndarray]:
    """Layer 0's weight columns for each input coordinate, (width, 2h+1) each
    (feature b*m + j depends on x_j alone); gathered once per batch call and
    shared by its blocks."""
    m = net.dim
    blocks = 2 * net.encoding.bands + 1
    w = net.layers()[0][0]
    return [w[:, np.arange(blocks) * m + j] for j in range(m)]


def _forward(net: FieldNet, x: np.ndarray | None, order: int, w0: list[np.ndarray] | None,
             gbar: np.ndarray | None = None, record: list | None = None,
             a1: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """One block's forward pass: ``(val,)``, ``(val, grad)`` or ``(val, grad, lap, ghg)``.

    ``w0`` is ``_first_layer_blocks(net)``, read by the gradient alone.  The
    value track runs through identical operations at every order, so the
    scalar output is bitwise independent of whether derivatives were asked
    for.  Order 2 carries the Laplacian slab alongside the gradient, keeps
    each sine layer's ``(fac_cos, dz, c2)`` and then sweeps them once more
    along the output gradient g for gᵀHg (``_directional``).

    A tangent seed ``gbar`` (order 1) makes the derivative slab the one
    direction Σ_j gbar_j ∂/∂x_j, an (N, 1, width) slab started in feature
    layout, t0[:, b*m + j] = d1[j][:, b] gbar_j, and mapped by the gradient's
    own lines.  ``record`` receives each layer's ``(a_in, da_in, fac_cos,
    dz)`` for ``backprop``; it asks for the cosine at order 0 too.

    ``a1``, layer 0's output (N, hidden), stands in for ``x``'s encoding and
    layer 0, at order 0 and with no record: ``evaluate_grid`` builds it from
    per-axis tables.
    """
    first = 0
    if a1 is None:
        n, m = x.shape
        jet = encode_jet(x, net.encoding, order)
        a, da, k = jet.values, jet.d1, m
        if gbar is not None:
            # Feature b*m + j depends on x_j alone: its tangent is d1[j][:, b] * gbar_j.
            da, k = (jet.d1.transpose(1, 2, 0) * gbar[:, None, :]).reshape(n, 1, -1), 1
    else:
        a, first = a1, 1
    lap = d2z0 = None
    sweep = []
    for li, (w, b, fac) in enumerate(net.layers()[first:], first):
        width = w.shape[0]
        if record is not None:
            # The input now, the rest below: an unrecorded pass frees it sooner.
            record.append((a, da))
        z = a @ w.T + b
        dz = lz = fac_cos = c2 = None
        if order >= 1:
            if li == 0 and gbar is None:
                dz = np.empty((n, m, width), dtype=np.float64)
                for j in range(m):
                    dz[:, j, :] = jet.d1[j] @ w0[j].T
            else:
                dz = (da.reshape(n * k, -1) @ w.T).reshape(n, k, width)
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
            a, fac_cos = sincos(fac * z, order >= 1 or record is not None)
            if fac_cos is not None:
                fac_cos *= fac
            if order >= 1:
                da = fac_cos[:, None, :] * dz
            if order >= 2:
                # fac_cos * Δz + c2 * Σ_j dz_j², c2 = -fac² sin(fac z)
                c2 = -(fac * fac) * a
                lap = lz
                lap *= fac_cos
                lap += np.einsum("njk,njk->nk", dz, dz) * c2
        if order >= 2:
            sweep.append((fac_cos, dz, c2))
        if record is not None:
            record[-1] += (fac_cos, dz)
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
    for li, ((w, _, _), (fac_cos, dz, c2)) in enumerate(zip(net.layers(), sweep)):
        if li > 0:
            q = q @ w.T
        if fac_cos is not None:
            vdz = np.einsum("nj,njk->nk", v, dz)
            vdz *= vdz
            vdz *= c2
            q *= fac_cos
            q += vdz
    return q[:, 0]


class _Lazy(Sequence):
    # ``item(k)`` for k in range(count), made when indexed, so that a pass of
    # many blocks holds no object per block: a list of a res-256 grid's 66,049
    # block tasks took 19.6 MB.

    def __init__(self, count: int, item):
        self._count, self._item = count, item

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int):
        if not 0 <= k < self._count:
            raise IndexError(k)
        return self._item(k)


def _blocks(net: FieldNet, n: int, per: int = 1) -> _Lazy:
    # The (lo, hi) rows of a pass's blocks: BLOCK_WORK // hidden rows, cut in
    # whole items of ``per`` rows (a grid's lines), at least one item a block.
    # The last also takes the remainder: BLAS rounds a matmul of only a few
    # rows differently from a longer one, so a short tail block would change
    # those rows' values.
    step = max(1, BLOCK_WORK // net.hidden // per)
    count = n // step if n >= 2 * step else min(n, 1)
    return _Lazy(count, lambda k: (k * step, n if k == count - 1 else (k + 1) * step))


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that may run a pass's blocks, the caller's included (``set_threads``),
# and the pool of the others, started by the first pass that uses it.
_threads = available_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def set_threads(n: int | None = None) -> None:
    """Let at most ``n`` threads, the caller's included, run a pass's blocks;
    ``None`` means one per CPU this process may run on.  The one check and
    default of the thread count: the CLI passes ``--threads`` here as given."""
    global _threads, _pool
    n = available_cpus() if n is None else n
    if n < 1:
        raise ValueError(f"need at least one thread, got {n}")
    with _pool_lock:
        if _pool is not None and n != _threads:
            _pool.shutdown()
            _pool = None
        _threads = n


def _pool_for(n_tasks: int, threads: int) -> ThreadPoolExecutor | None:
    # The pool that runs the tasks of this dispatch beside the caller, or None
    # for the sequential loop; see "Parallel blocks" in the module docstring.
    global _pool
    if threads < 2 or n_tasks < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="scanfield-field")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the pool's threads, and the lock may have
    # been held by one; the child's first pooled pass starts a pool of its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run(tasks: Sequence) -> None:
    # ``work()`` of each ``(work, add)`` task, then ``add`` of its result, in
    # task order.  Pooled, every thread, this one included, takes the next
    # task, and whichever finishes the oldest outstanding task adds it and any
    # finished ones after it.  No task is taken while ``threads`` + 1 are
    # taken and not added: the oldest of them is still running, so at most
    # ``threads`` results wait.  The first error stops the others taking
    # tasks and is raised here once every thread has stopped.
    threads = _threads
    pool = _pool_for(len(tasks), threads)
    if pool is None:
        for work, add in tasks:
            add(work())
        return
    cond = threading.Condition()
    done = {}
    taken = added = 0
    failed = False

    def lane():
        nonlocal taken, added, failed
        try:
            while True:
                with cond:
                    cond.wait_for(lambda: failed or taken == len(tasks) or taken - added <= threads)
                    if failed or taken == len(tasks):
                        return
                    k = taken
                    taken += 1
                result = tasks[k][0]()
                with cond:
                    done[k] = result
                    while added in done:
                        tasks[added][1](done.pop(added))
                        added += 1
                    cond.notify_all()
        except BaseException:
            with cond:
                failed = True
                cond.notify_all()
            raise

    # Each worker runs in a copy of this thread's context, so that numpy's
    # error state (np.errstate) holds in the workers too.  One lane per task
    # at most: the pool starts a thread on each submit while none is idle.
    futures = [pool.submit(contextvars.copy_context().run, lane)
               for _ in range(1, min(threads, len(tasks)))]
    try:
        lane()
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _block_tasks(net: FieldNet, n: int, work, add=lambda result: None, per: int = 1) -> _Lazy:
    # ``(work(lo, hi), add)`` tasks over ``_blocks(net, n, per)``, made when taken.
    blocks = _blocks(net, n, per)
    return _Lazy(len(blocks), lambda k: (partial(work, *blocks[k]), add))


def _run_sets(parts: list, side=()) -> list:
    # One ``_run`` over the side tasks, first so that they overlap the
    # blocks, then each part's block tasks in part order; a part is a set's
    # ``(result, tasks)``.  Returns the sets' results, then the side tasks'.
    side_out = []
    _run([(fn, side_out.append) for fn in side] + [task for _, tasks in parts for task in tasks])
    return [result for result, _ in parts] + side_out


def _walk(net: FieldNet, points: _F, order: int, w0: list[np.ndarray]) -> tuple:
    # ``_forward``'s outputs at ``order`` and the tasks that fill them: each
    # block writes its own rows.
    x = np.asarray(points, dtype=np.float64)
    n, m = x.shape
    outs = tuple(np.empty(shape) for shape in [[(n,)], [(n,), (n, m)], [(n,), (n, m), (n,), (n,)]][order])

    def work(lo, hi):
        for out, part in zip(outs, _forward(net, x[lo:hi], order, w0)):
            out[lo:hi] = part

    return outs, _block_tasks(net, n, work)


def forward_sets(net: FieldNet, sets: list[tuple[_F, int]], side=()) -> list:
    """One pass over several row sets, and side tasks beside it.

    ``sets`` holds ``(points, order)`` pairs.  Each set's entry of the result
    is ``(values,)`` at order 0, ``(values, gradients)`` at order 1 and
    ``(values, gradients, tr H, gᵀHg)`` at order 2, bitwise what
    ``evaluate_batch``, ``grad_batch`` and ``jet_batch`` return for it
    alone.  ``side`` holds callables that take no argument; their results
    follow the sets' in the list.  A side task must start no field pass.
    """
    w0 = _first_layer_blocks(net)
    return _run_sets([_walk(net, points, order, w0) for points, order in sets], side)


def evaluate_batch(net: FieldNet, points: _F) -> np.ndarray:
    """Field values at (N, m) points."""
    return forward_sets(net, [(points, 0)])[0][0]


def grad_batch(net: FieldNet, points: _F) -> tuple[np.ndarray, np.ndarray]:
    """Values (N,) and spatial gradients (N, m): the order-1 pass alone."""
    return forward_sets(net, [(points, 1)])[0]


def jet_batch(net: FieldNet, points: _F) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Values (N,), gradients g (N, m), and the Hessian's trace tr H (N,) and
    gᵀHg (N,) at the given points: the two contractions the mean curvature
    of the level set needs, without forming any Hessian."""
    return forward_sets(net, [(points, 2)])[0]


def evaluate_grid(net: FieldNet, axes) -> np.ndarray:
    """Field values on the tensor grid of ``net.dim`` 1D coordinate arrays,
    index order x, y[, z]: ``out[i, j, k] = D(axes[0][i], axes[1][j], axes[2][k])``,
    within rounding of ``evaluate_batch`` at those nodes.  Layer 0 comes
    from per-axis tables; see "Grids" in the module docstring.
    """
    axes = [np.asarray(a, dtype=np.float64) for a in axes]
    if len(axes) != net.dim or any(a.ndim != 1 for a in axes):
        raise ValueError(f"a {net.dim}D field's grid takes {net.dim} 1D axes, "
                         f"got shapes {[a.shape for a in axes]}")
    out = np.empty([a.size for a in axes])
    if out.size == 0:
        return out
    w, b, fac = net.layers()[0]
    tables = [encode_jet(a[:, None], net.encoding, 0).values @ wj.T
              for a, wj in zip(axes, _first_layer_blocks(net))]
    tables[0] += b
    s0, c0 = sincos(fac * tables[0])
    n0 = axes[0].size
    lines = out.reshape(n0, -1)  # a view: column l is line l, the last axis fastest

    def work(lo, hi):
        # This block's E rows, gathered from the tables; never all lines' at once.
        e = np.zeros((hi - lo, w.shape[0]))
        idx = np.arange(lo, hi)
        for t in tables[:0:-1]:
            e += t[idx % len(t)]
            idx //= len(t)
        se, ce = sincos(fac * e)
        a1 = s0[:, None, :] * ce
        a1 += c0[:, None, :] * se
        lines[:, lo:hi] = _forward(net, None, 0, None, a1=a1.reshape(-1, w.shape[0]))[0].reshape(n0, -1)

    # A grid row skips the encoder and layer 0, so it counts as half a row of
    # block work; see "Grids" in the module docstring.
    _run(_block_tasks(net, lines.shape[1], work, per=(n0 + 1) // 2))
    return out


def _backward_block(net: FieldNet, x: np.ndarray, vbar: np.ndarray, gbar: np.ndarray | None) -> list:
    # One block's recorded forward pass, then the reverse sweep.  Returns, for
    # each layer from the last to the first, its bias term and weight terms in
    # the order ``backprop`` adds them; see the module docstring.  The tangent
    # track runs only with ``gbar``.
    with_grad = gbar is not None
    record = []
    _forward(net, x, int(with_grad), None, gbar, record)
    # Adjoints of the final layer's affine output (width 1) and its tangent.
    zbar = vbar[:, None]
    tbar = np.ones((x.shape[0], 1)) if with_grad else None
    layers = net.layers()
    terms = []
    for li in range(len(layers) - 1, -1, -1):
        (a_in, t_in, _, _), (w, _, _) = record[li], layers[li]
        terms.append((zbar.sum(axis=0), zbar.T @ a_in) + ((tbar.T @ t_in[:, 0],) if with_grad else ()))
        if li == 0:
            break
        # Through the previous sine: a_in = sin(f z), t_in = f cos(f z) tz.
        facp = layers[li - 1][2]
        _, _, fac_cos, tzp = record[li - 1]
        zbar = fac_cos * (zbar @ w)
        if with_grad:
            tabar = tbar @ w
            zbar += tabar * tzp[:, 0] * (-(facp * facp) * a_in)
            tbar = fac_cos * tabar
    return terms


def _backprop(net: FieldNet, points: _F, value_bar: _F, grad_bar: _F | None) -> tuple:
    # One set's parameter gradient and the tasks that sum it.
    x = np.asarray(points, dtype=np.float64)
    vbar = np.asarray(value_bar, dtype=np.float64)
    gbar = None if grad_bar is None else np.asarray(grad_bar, dtype=np.float64)
    grad = np.zeros_like(net.params)
    out = net.layers(grad)[::-1]

    def work(lo, hi):
        return _backward_block(net, x[lo:hi], vbar[lo:hi], None if gbar is None else gbar[lo:hi])

    def add(terms):
        # In block order, and in the sweep's order within a block, whichever
        # thread ran the block: the same sums as one thread's.
        for (gw, gb, _), (bias_term, *weight_terms) in zip(out, terms):
            gb += bias_term
            for term in weight_terms:
                gw += term

    return grad, _block_tasks(net, x.shape[0], work, add)


def backprop_sets(net: FieldNet, sets: list[tuple[_F, _F, _F | None]]) -> list:
    """One reverse pass over several row sets: for each ``(points, value_bar,
    grad_bar)`` triple, its own parameter gradient, bitwise what ``backprop``
    returns for it alone."""
    return _run_sets([_backprop(net, *s) for s in sets])


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
    return backprop_sets(net, [(points, value_bar, grad_bar)])[0]
