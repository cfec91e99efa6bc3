import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from scanfield.cli import canonical_rays
from scanfield.config import RunConfig, parse_config
from scanfield.encoding import EncodingConfig
from scanfield import field, training
from scanfield.field import backprop, evaluate_batch, grad_batch, init_field, jet_batch
from scanfield.geom import Pose
from scanfield.sampling import schedule
from scanfield.scenes import AnalyticScene, ScannerConfig, Sphere, simulate_scan
from scanfield.targets import SupervisionMode, TargetBatch, compute_targets
from scanfield.training import (
    GRAD_EPS,
    AdamState,
    LossWeights,
    OptimConfig,
    RayBatch,
    _adamw_update,
    adamw_step,
    batch_loss,
    loss_terms,
    make_batch,
    neighbor_pairs,
    train,
)


def small_net(seed=0, dim=2):
    return init_field(seed=seed, dim=dim, hidden=8, hidden_layers=2, encoding=EncodingConfig(3))


def toy_rays(n=16, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, size=n)
    endpoints = np.stack([np.cos(ang), np.sin(ang)], axis=1)[:, :dim]
    origins = np.zeros((n, dim))
    return origins * 0.0, endpoints * 0.9  # keep everything inside the canonical cube


def test_neighbor_pairs_shape_and_content():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    pairs = neighbor_pairs(pts, 2)
    assert pairs.shape == (8, 2)  # directed: 4 sources x 2 neighbors
    # point 0's two nearest are 1 and 2
    mine = set(pairs[pairs[:, 0] == 0][:, 1])
    assert mine == {1, 2}
    # k larger than available neighbors degrades gracefully
    assert neighbor_pairs(pts[:1], 4).shape == (0, 2)
    assert neighbor_pairs(pts[:3], 99).shape == (6, 2)


def exact_loss(scene, batch, w, mode):
    """Loss breakdown with the scene's exact jet standing in for a trained net."""
    vals, grads, lap, ghg = scene.jet(batch.positions)
    targets = compute_targets(
        mode, vals, grads, (lap, ghg), batch.positions, batch.endpoints, tau=w.tau, gamma=w.gamma
    )
    pairs = neighbor_pairs(batch.positions, w.knn)
    bd, _, _, _ = loss_terms(vals, grads, scene.sdf(batch.endpoints), targets, pairs, w)
    return bd


def test_loss_vanishes_on_exact_planar_field():
    # Vertical rays against the plane y=0: identical normals everywhere, so
    # every term (including neighbor smoothness) is exactly at its optimum.
    from scanfield.scenes import Plane

    scene = AnalyticScene((Plane(np.array([0.0, 1.0]), 0.0),))
    xs = np.linspace(-1.0, 1.0, 12)
    origins = np.stack([xs, np.full(12, 2.0)], axis=1)
    endpoints = np.stack([xs, np.zeros(12)], axis=1)
    batch = make_batch(origins, endpoints, samples_per_ray=6)
    w = LossWeights(tau=np.inf)
    bd = exact_loss(scene, batch, w, SupervisionMode.CURVATURE_CONSTRAINED)
    assert bd.data < 1e-9
    assert bd.endpoint < 1e-9
    assert bd.eikonal < 1e-9
    assert bd.smoothness < 1e-9


def test_loss_data_term_vanishes_on_exact_circle():
    # On a circle the curvature-matched targets are exact, so the data term
    # vanishes; the smoothness term does NOT (it penalizes the genuinely bent
    # normals of a curved field) and stays strictly positive.
    rng = np.random.default_rng(3)
    n = 24
    ang = rng.uniform(0, 2 * np.pi, size=n)
    endpoints = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    origins = endpoints * 2.5  # outside, shooting inward
    batch = make_batch(origins, endpoints, samples_per_ray=8)
    w = LossWeights(tau=np.inf)
    scene = AnalyticScene((Sphere(np.zeros(2), 1.0),))
    bd = exact_loss(scene, batch, w, SupervisionMode.CURVATURE_CONSTRAINED)
    assert bd.data < 1e-9
    assert bd.endpoint < 1e-9
    assert bd.eikonal < 1e-9
    assert 0.0 < bd.smoothness < 0.05


@pytest.mark.parametrize("dim", [2, 3])
def test_smoothness_scatter_matches_add_at(dim):
    # Points repeat across and within pairs, so each sum has many terms; they
    # must be added in pair order, li side first, as np.add.at adds them.
    rng = np.random.default_rng(9)
    s = 50
    vals = rng.normal(size=s)
    grads = rng.normal(size=(s, dim))
    grads[7] = 0.0  # below GRAD_EPS: its pairs contribute nothing
    pairs = rng.integers(0, s, size=(600, 2))
    targets = TargetBatch(d_hat=rng.normal(size=s), weight=np.ones(s),
                          degenerate=np.zeros(s, dtype=bool))
    w = LossWeights()
    ev = rng.normal(size=4)
    _, _, grad_bar, _ = loss_terms(vals, grads, ev, targets, pairs, w)
    _, _, eik_bar, _ = loss_terms(vals, grads, ev, targets, np.empty((0, 2), dtype=np.intp), w)

    gnorm = np.linalg.norm(grads, axis=1)
    ok = gnorm > GRAD_EPS
    safe = np.maximum(gnorm, GRAD_EPS)
    unit = grads / safe[:, None]
    li, lj = pairs[:, 0], pairs[:, 1]
    dots = np.sum(unit[li] * unit[lj], axis=1)
    coef = -1.0 * (ok[li] & ok[lj]) / pairs.shape[0]
    scatter = np.zeros_like(grads)
    np.add.at(scatter, li, coef[:, None] * (unit[lj] - dots[:, None] * unit[li]) / safe[li][:, None])
    np.add.at(scatter, lj, coef[:, None] * (unit[li] - dots[:, None] * unit[lj]) / safe[lj][:, None])
    assert np.array_equal(grad_bar, eik_bar + w.smooth * scatter)
    assert np.count_nonzero(np.bincount(pairs.ravel(), minlength=s) > 2) > s // 2


def test_loss_gradients_match_finite_differences():
    net = small_net(seed=4)
    origins, endpoints = toy_rays(6, seed=5)
    batch = make_batch(origins, endpoints, samples_per_ray=5)
    w = LossWeights(knn=3)
    mode = SupervisionMode.CURVATURE_CONSTRAINED

    # batch_loss recomputes targets from whatever net it is handed, which
    # would contaminate a perturbed-parameter objective.  Freeze the targets
    # from the unperturbed net and differentiate only the loss pieces.
    vals0, grads0, trace0, ghg0 = jet_batch(net, batch.positions)
    tg = compute_targets(
        mode, vals0, grads0, (trace0, ghg0), batch.positions, batch.endpoints, tau=w.tau, gamma=w.gamma
    )
    pairs = neighbor_pairs(batch.positions, w.knn)

    def frozen_loss(n):
        v, g = grad_batch(n, batch.positions)
        ev = evaluate_batch(n, batch.endpoints)
        bd, _, _, _ = loss_terms(v, g, ev, tg, pairs, w)
        return bd.total

    bd, pg = batch_loss(net, batch, w, mode)
    assert bd.total == frozen_loss(net)

    rng = np.random.default_rng(11)
    h = 1e-6
    checked = 0
    # Each layer's weight entries, as indices into the flat vector.
    index = [w for w, _, _ in net.layers(np.arange(net.params.size))]
    for li in range(len(index)):
        for _ in range(4):
            r = rng.integers(index[li].shape[0])
            c = rng.integers(index[li].shape[1])
            k = index[li][r, c]
            wp = net.params.copy()
            wm = net.params.copy()
            wp[k] += h
            wm[k] -= h
            fp = frozen_loss(replace(net, params=wp))
            fm = frozen_loss(replace(net, params=wm))
            fd = (fp - fm) / (2 * h)
            an = pg[k]
            # |.| kinks make FD noisy when a residual sits near zero; the
            # seeded batch keeps clear of them at these indices
            assert abs(an - fd) < 1e-3 * max(0.01, abs(fd)), (li, r, c, an, fd)
            checked += 1
    assert checked == 12


def _step_batch(dim, rays, samples, seed):
    # Rays from random origins to random endpoints inside the canonical cube.
    rng = np.random.default_rng(seed)
    return make_batch(rng.uniform(-0.9, 0.9, size=(rays, dim)), rng.uniform(-0.9, 0.9, size=(rays, dim)),
                      samples_per_ray=samples)


STEP_CASES = {
    # The room2d benchmark's net and batch: five 512-row sample blocks and
    # one endpoint block.
    "2d": (lambda: init_field(seed=44, dim=2, encoding=EncodingConfig(8), hidden=64, hidden_layers=3),
           lambda: _step_batch(2, 256, 10, 45)),
    # Row counts off the BLAS kernels' stride: cutting the two sets as one
    # would move the endpoint values by an ulp.
    "2d-odd": (lambda: init_field(seed=44, dim=2, encoding=EncodingConfig(8), hidden=64, hidden_layers=3),
               lambda: _step_batch(2, 203, 7, 48)),
    # 512 rays through a 128-wide net: eight 256-row sample blocks and two
    # endpoint blocks.
    "3d": (lambda: init_field(seed=46, dim=3, encoding=EncodingConfig(4), hidden=128, hidden_layers=2),
           lambda: _step_batch(3, 512, 4, 47)),
}


def _sequential_step(net, batch, w, mode):
    # batch_loss's passes one after another, each in its own dispatch.
    if mode is SupervisionMode.CURVATURE_CONSTRAINED:
        vals, grads, trace, ghg = jet_batch(net, batch.positions)
        hessian_terms = (trace, ghg)
    else:
        vals, grads = grad_batch(net, batch.positions)
        hessian_terms = None
    ev = evaluate_batch(net, batch.endpoints)
    pairs = neighbor_pairs(batch.positions, w.knn)
    targets = compute_targets(mode, vals, grads, hessian_terms, batch.positions, batch.endpoints,
                              tau=w.tau, gamma=w.gamma)
    bd, val_bar, grad_bar, end_bar = loss_terms(vals, grads, ev, targets, pairs, w)
    pg = backprop(net, batch.positions, val_bar, grad_bar)
    pe = backprop(net, batch.endpoints, end_bar)
    pg += pe
    return bd, pg


@pytest.mark.parametrize("case", sorted(STEP_CASES))
@pytest.mark.parametrize("mode", list(SupervisionMode), ids=lambda m: m.value)
def test_step_equals_its_passes_in_sequence_at_any_thread_count(case, mode, threads, meeting, monkeypatch):
    # The step's two dispatches run the sample, endpoint and kNN work side by
    # side; every set's blocks still round as they would alone.
    make_net, make = STEP_CASES[case]
    net, batch, w = make_net(), make(), LossWeights()
    threads(1)
    ref_bd, ref_pg = _sequential_step(net, batch, w, mode)
    meet = None
    forward = field._forward

    def meeting_forward(*args, **kwargs):
        if meet is not None:
            meet()
        return forward(*args, **kwargs)

    monkeypatch.setattr(field, "_forward", meeting_forward)
    for workers in (1, 2, 3):
        threads(workers)
        meet = meeting() if workers > 1 else None
        bd, pg = batch_loss(net, batch, w, mode)
        assert bd == ref_bd
        assert np.array_equal(pg, ref_pg)
        if meet is not None:
            assert 1 < len(meet.threads) <= workers


def test_knn_error_reaches_the_caller_after_every_lane_stops(threads, monkeypatch):
    # The kNN query fails while a block is running on another lane; the
    # error is raised once that block has finished.
    net = STEP_CASES["2d"][0]()
    batch = STEP_CASES["2d"][1]()
    started = threading.Event()
    lock = threading.Lock()
    running = [0]
    forward = field._forward

    def slow_forward(*args, **kwargs):
        with lock:
            running[0] += 1
        started.set()
        time.sleep(0.2)
        try:
            return forward(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    err = RuntimeError("kNN query failed")

    def failing_pairs(positions, k):
        assert started.wait(60)
        raise err

    threads(2)
    # A step first, so that the pool's thread is idle: the caller then mostly
    # takes the first task, the kNN query, and its own lane fails.
    batch_loss(net, batch, LossWeights(), SupervisionMode.RAY_DISTANCE)
    monkeypatch.setattr(field, "_forward", slow_forward)
    monkeypatch.setattr(training, "neighbor_pairs", failing_pairs)
    for _ in range(3):
        started.clear()
        with pytest.raises(RuntimeError) as caught:
            batch_loss(net, batch, LossWeights(), SupervisionMode.RAY_DISTANCE)
        assert caught.value is err
        assert running[0] == 0


def test_adamw_drives_quadratic_to_zero():
    cfg = OptimConfig(lr=1e-2, weight_decay=0.0)
    theta = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    for t in range(1, 5001):
        grad = 2.0 * theta  # d/dtheta theta^2
        theta, m, v = _adamw_update(theta, grad, m, v, t, cfg)
    assert abs(theta[0]) < 1e-3


def test_adamw_decoupled_decay_shrinks_parameters():
    cfg = OptimConfig(lr=1e-2, weight_decay=0.5)
    theta = np.array([1.0])
    theta2, _, _ = _adamw_update(theta, np.zeros(1), np.zeros(1), np.zeros(1), 1, cfg)
    # zero gradient: only the decay term acts, theta *= (1 - lr * wd)
    assert theta2[0] == pytest.approx(1.0 - 1e-2 * 0.5)


def test_adamw_first_step_is_lr_sized():
    cfg = OptimConfig(lr=1e-3, weight_decay=0.0)
    theta = np.array([0.0])
    theta2, _, _ = _adamw_update(theta, np.array([7.0]), np.zeros(1), np.zeros(1), 1, cfg)
    # bias correction makes the first step's magnitude ~= lr regardless of scale
    assert abs(abs(theta2[0]) - cfg.lr) < 1e-6


def test_adamw_rejects_nonfinite_gradients():
    net = small_net()
    grads = np.zeros_like(net.params)
    grads[0] = np.nan
    with pytest.raises(FloatingPointError):
        adamw_step(net, grads, OptimConfig(), AdamState.zeros_like(net))


@pytest.mark.parametrize("dim", [2, 3])
def test_adamw_step_matches_per_layer_updates(dim):
    # AdamW is elementwise, so one update over the flat vector must equal,
    # bitwise, the update of each weight matrix and bias on its own.
    net = init_field(seed=dim, dim=dim, hidden=12, hidden_layers=3, encoding=EncodingConfig(4))
    cfg = OptimConfig(lr=1e-2, weight_decay=0.1)
    rng = np.random.default_rng(5)
    ref = [[w.copy(), b.copy()] for w, b, _ in net.layers()]
    moments = [[np.zeros_like(a) for a in layer] for layer in ref]
    second = [[np.zeros_like(a) for a in layer] for layer in ref]
    state = AdamState.zeros_like(net)
    for t in range(1, 4):
        grads = [[rng.normal(size=a.shape) for a in layer] for layer in ref]
        flat = np.concatenate([g.ravel() for layer in grads for g in layer])
        net, state = adamw_step(net, flat, cfg, state)
        for li, layer in enumerate(ref):
            for j in range(2):
                layer[j], moments[li][j], second[li][j] = _adamw_update(
                    layer[j], grads[li][j], moments[li][j], second[li][j], t, cfg)
    assert state.t == 3
    for li, (w, b) in enumerate(ref):
        assert np.array_equal(net.layers()[li][0], w)
        assert np.array_equal(net.layers()[li][1], b)
    index = net.layers(np.arange(net.params.size))
    for li, layer in enumerate(index):
        for j, k in enumerate(layer[:2]):
            assert np.array_equal(state.m[k], moments[li][j])
            assert np.array_equal(state.v[k], second[li][j])


def test_train_history_and_determinism():
    origins, endpoints = toy_rays(12, seed=9)
    optim = OptimConfig(epochs=3, batch_rays=6, samples_per_ray=5, seed=2)
    w = LossWeights()
    net1, hist1 = train(small_net(1), (origins, endpoints), optim, w, SupervisionMode.RAY_DISTANCE)
    net2, hist2 = train(small_net(1), (origins, endpoints), optim, w, SupervisionMode.RAY_DISTANCE)
    assert len(hist1) == 3
    assert [h.total for h in hist1] == [h.total for h in hist2]
    for (wa, _, _), (wb, _, _) in zip(net1.layers(), net2.layers()):
        assert np.array_equal(wa, wb)


def test_train_reduces_loss():
    scene = AnalyticScene((Sphere(np.array([0.0, 0.0]), 1.0),))
    cfg = ScannerConfig(beams=24, fov=2 * np.pi, max_range=10.0)
    poses = [Pose.from_xytheta(2.0 * np.cos(ang), 2.0 * np.sin(ang), 0.0)
             for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    canon, _ = canonical_rays(simulate_scan(scene, poses, cfg, np.random.default_rng(0)))
    optim = OptimConfig(epochs=2, batch_rays=64, samples_per_ray=8, seed=0)
    w = LossWeights()
    net = init_field(seed=3, dim=2, hidden=16, hidden_layers=2, encoding=EncodingConfig(6))
    trained, hist = train(net, canon, optim, w, SupervisionMode.CLOSEST_NORMAL)
    assert hist[-1].data < hist[0].data


def test_curvature_targets_engage_in_training():
    # The L1 data gradient only sees residual signs, so compare loss values
    # (which see the targets themselves) rather than parameters: untruncated
    # targets differ wherever the net's level sets have finite curvature.
    origins, endpoints = toy_rays(8, seed=13)
    w_inf = LossWeights(tau=np.inf)
    optim0 = OptimConfig(epochs=1, batch_rays=8, samples_per_ray=5, seed=1)
    _, hist_curv = train(small_net(2), (origins, endpoints), optim0, w_inf, SupervisionMode.CURVATURE_CONSTRAINED)
    _, hist_dcn = train(small_net(2), (origins, endpoints), optim0, w_inf, SupervisionMode.CLOSEST_NORMAL)
    assert hist_curv[0].data != hist_dcn[0].data


def test_make_batch_samples_are_ray_major():
    # compute_targets pairs sample rows i*L .. i*L + L - 1 with endpoint i.
    _, endpoints = toy_rays(3, seed=1)
    origins = -0.5 * endpoints[::-1]
    batch = make_batch(origins, endpoints, samples_per_ray=4)
    assert [f.name for f in fields(RayBatch)] == ["endpoints", "positions"]
    np.testing.assert_array_equal(batch.endpoints, endpoints)
    assert batch.positions.shape == (12, 2)
    t = schedule(4)
    for i, ray in enumerate(batch.positions.reshape(3, 4, 2)):
        np.testing.assert_allclose(ray, origins[i] + t[:, None] * (endpoints[i] - origins[i]), atol=1e-15)


def parse_overrides(**overrides):
    return parse_config("", overrides)


@pytest.mark.parametrize("make, kwargs", [
    (OptimConfig, {"lr": 0.0}),
    (OptimConfig, {"epochs": 0}),
    (OptimConfig, {"samples_per_ray": 1}),
    (OptimConfig, {"weight_decay": -1.0}),
    (LossWeights, {"tau": 0.0}),
    (LossWeights, {"eikonal": -1.0}),
    (LossWeights, {"knn": -1}),
    (ScannerConfig, {"noise_sigma": -0.1}),
    (RunConfig, {"hidden_width": 3.5}),
    (RunConfig, {"epochs": True}),
    (RunConfig, {"learn_rate": True}),
    (RunConfig, {"learn_rate": "1e-3"}),
    (parse_overrides, {"epochs": 2.5, "mcl_particles": 10.5}),
    (parse_overrides, {"mcl_particles": 10.5}),
], ids=lambda v: next(iter(v)) if isinstance(v, dict) else v.__name__)
def test_config_validation(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)
