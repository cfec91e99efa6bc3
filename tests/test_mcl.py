import math
import warnings

import numpy as np
import pytest

from scanfield import meshing
from scanfield.geom import Aabb, Pose
from scanfield.mcl import (
    MclConfig,
    MclMetrics,
    ParticleSet,
    RunResult,
    SampledField2D,
    estimate,
    init_uniform,
    localize_run,
    log_likelihoods,
    motion_update,
    run_metrics,
    step,
    systematic_resample,
    wrap_angle,
)
from scanfield.scenes import ScannerConfig, parse_scene_text, simulate_scan

ROOM = """
plane 1 0 -4
plane -1 0 -4
plane 0 1 -4
plane 0 -1 -4
plane 1 1 -5.2
box 1.5 1.5 0.6 0.6
circle -1.5 -1 0.8
"""


def room_scene():
    return parse_scene_text(ROOM)


def room_field():
    scene = room_scene()
    return lambda pts: scene.sdf(pts)


def test_wrap_angle():
    assert wrap_angle(np.pi) == -np.pi  # half-open interval
    assert wrap_angle(-np.pi) == -np.pi
    assert abs(wrap_angle(3.0 * np.pi / 2.0) - (-np.pi / 2.0)) < 1e-12
    np.testing.assert_allclose(wrap_angle(np.array([0.0, 2.0 * np.pi])), [0.0, 0.0], atol=1e-12)


def test_init_uniform_single_particle():
    box = Aabb.cube(np.zeros(2), 4.0)
    pset = init_uniform(box, MclConfig(n_particles=1), np.random.default_rng(0))
    assert pset.size == 1
    assert pset.weights[0] == 1.0


def test_init_uniform_seeded_and_unbiased():
    box = Aabb(np.array([-2.0, 1.0]), np.array([6.0, 3.0]))
    cfg = MclConfig(n_particles=100_000)
    a = init_uniform(box, cfg, np.random.default_rng(3))
    b = init_uniform(box, cfg, np.random.default_rng(3))
    assert np.array_equal(a.poses, b.poses)
    # law of large numbers: the sample mean sits within 1% of the box center
    mean = a.poses[:, :2].mean(axis=0)
    extent = box.hi - box.lo
    assert np.all(np.abs(mean - box.center) < 0.01 * extent)
    assert np.all(a.poses[:, 2] >= -np.pi) and np.all(a.poses[:, 2] < np.pi)


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((2, 3)), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((2, 3)), np.array([1.0, -1.0]))
    ps = ParticleSet(np.zeros((2, 3)), np.array([3.0, 1.0]))
    np.testing.assert_allclose(ps.weights, [0.75, 0.25])


def test_motion_update_noise_free():
    cfg = MclConfig(
        odom_trans_base=0.0, odom_trans_frac=0.0, odom_rot_base=0.0, odom_rot_frac=0.0
    )
    # particle facing +y moves forward 1 in its own frame -> moves +y in world
    pset = ParticleSet(np.array([[0.0, 0.0, np.pi / 2.0]]), np.array([1.0]))
    out = motion_update(pset, (1.0, 0.0, 0.1), cfg, np.random.default_rng(0))
    np.testing.assert_allclose(out.poses[0], [0.0, 1.0, np.pi / 2.0 + 0.1], atol=1e-12)


def test_likelihood_prefers_true_pose():
    field = room_field()
    scene = room_scene()
    true_pose = Pose.from_xytheta(0.5, -0.5, 0.3)
    scan = simulate_scan(scene, true_pose, ScannerConfig(beams=32, max_range=20.0),
                         np.random.default_rng(0))
    at_truth = ParticleSet(np.array([[0.5, -0.5, 0.3]]), np.array([1.0]))
    displaced = ParticleSet(np.array([[1.7, 0.8, 0.9]]), np.array([1.0]))
    ll_true = log_likelihoods(at_truth, scan.points, field, sigma_z=0.1)
    ll_off = log_likelihoods(displaced, scan.points, field, sigma_z=0.1)
    assert ll_true[0] > ll_off[0]
    assert ll_true[0] > -1e-6  # endpoints land on surfaces: D ~ 0


def test_likelihood_sigma_scales_scores():
    field = room_field()
    scene = room_scene()
    pose = Pose.from_xytheta(0.0, 0.0, 0.0)
    scan = simulate_scan(scene, pose, ScannerConfig(beams=16, max_range=20.0),
                         np.random.default_rng(0))
    off = ParticleSet(np.array([[0.4, 0.2, 0.1]]), np.array([1.0]))
    ll_tight = log_likelihoods(off, scan.points, field, sigma_z=0.05)
    ll_loose = log_likelihoods(off, scan.points, field, sigma_z=0.5)
    # same squared error, divided by a 100x larger variance
    assert abs(ll_tight[0] / ll_loose[0] - 100.0) < 1e-6


def test_systematic_resample_tracks_weights():
    rng = np.random.default_rng(2)
    poses = np.zeros((4, 3))
    poses[:, 0] = np.arange(4)
    pset = ParticleSet(poses, np.array([0.7, 0.1, 0.1, 0.1]))
    out = systematic_resample(pset, rng)
    assert out.size == 4
    np.testing.assert_allclose(out.weights, 0.25)
    # the dominant particle is copied close to its expected share
    assert np.sum(out.poses[:, 0] == 0.0) >= 2


def test_every_step_measures_even_a_small_move():
    # A 0.01 m step still reweights by the scan and resamples: the particle
    # that the scan fits best (at the scanner's pose, moved with it) is copied,
    # and the worst-fitting particles are dropped.
    field = room_field()
    scene = room_scene()
    scan = simulate_scan(scene, Pose.from_xytheta(0.01, 0.0, 0.0),
                         ScannerConfig(beams=16, max_range=20.0), np.random.default_rng(0))
    cfg = MclConfig(
        n_particles=64,
        odom_trans_base=0.0, odom_trans_frac=0.0, odom_rot_base=0.0, odom_rot_frac=0.0,
    )
    box = Aabb.cube(np.zeros(2), 4.0)
    pset = init_uniform(box, cfg, np.random.default_rng(1))
    pset = ParticleSet(np.vstack([[0.0, 0.0, 0.0], pset.poses[1:]]), pset.weights)
    out = step(pset, (0.01, 0.0, 0.0), scan.points, field, cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(out.weights, np.full(64, 1.0 / 64))  # resampled
    moved = motion_update(pset, (0.01, 0.0, 0.0), cfg, np.random.default_rng(5)).poses
    assert not np.array_equal(np.sort(out.poses, axis=0), np.sort(moved, axis=0))
    assert np.sum(np.all(out.poses == moved[0], axis=1)) > 1


_LINE_POSES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])


def _measure_line(field, weights):
    # One measurement update of three particles on the x axis; the scan
    # is one point at each particle's origin, so the field is read at x = 0, 1, 2.
    cfg = MclConfig(n_particles=3, odom_trans_base=0.0, odom_trans_frac=0.0,
                    odom_rot_base=0.0, odom_rot_frac=0.0)
    pset = ParticleSet(_LINE_POSES, weights)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = step(pset, (0.0, 0.0, 0.0), np.zeros((1, 2)), field, cfg, np.random.default_rng(0))
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "field, weights",
    [
        (lambda p: np.full(p.shape[0], np.inf), (1.0, 1.0, 1.0)),  # every log-likelihood -inf
        (lambda p: np.full(p.shape[0], np.nan), (1.0, 1.0, 1.0)),  # no finite log-likelihood
        # the best particle (x = 0) has zero weight and its rivals' exp(ll - top) underflows
        (lambda p: 10.0 * p[:, 0], (0.0, 1.0, 1.0)),
    ],
    ids=["all-minus-inf", "all-nan", "zero-weight-best"],
)
def test_step_collapse_reweights_uniformly(field, weights):
    out, messages = _measure_line(field, weights)
    assert messages == ["all particle likelihoods vanished; reweighting uniformly"]
    # uniform weights resample every particle exactly once
    np.testing.assert_array_equal(out.poses, _LINE_POSES)
    np.testing.assert_array_equal(out.weights, np.full(3, 1.0 / 3))


def test_step_gives_non_finite_particles_zero_weight():
    # The field is NaN at x = 1 only.  That particle gets weight 0 and the
    # others keep their likelihoods: x = 0 (D = 0) outweighs x = 2 (D = 2,
    # log-likelihood -200) so far that every resampled copy is x = 0.
    out, messages = _measure_line(lambda p: np.where(p[:, 0] == 1.0, np.nan, p[:, 0]), (1.0, 1.0, 1.0))
    assert messages == []
    np.testing.assert_array_equal(out.poses, np.tile(_LINE_POSES[0], (3, 1)))
    np.testing.assert_array_equal(out.weights, np.full(3, 1.0 / 3))


def test_estimate_two_point_spread():
    pset = ParticleSet(
        np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.array([0.5, 0.5])
    )
    mean, std = estimate(pset)
    np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
    assert std == pytest.approx(1.0)


def test_run_metrics_anchor_values():
    truth = np.zeros((2, 2))
    run = RunResult(
        positions=np.array([[0.0, 0.0], [2.0, 0.0]]),
        converged_at=0,
    )
    m = run_metrics(truth, [run])
    assert m.mae == pytest.approx(1.0)
    assert m.rmse == pytest.approx(math.sqrt(2.0))
    assert m.converged_runs == 1
    assert m.rmse >= m.mae


def test_run_metrics_skips_unconverged():
    truth = np.zeros((2, 2))
    bad = RunResult(np.ones((2, 2)), converged_at=None)
    assert run_metrics(truth, [bad]) is None
    good = RunResult(np.zeros((2, 2)), converged_at=1)
    m = run_metrics(truth, [bad, good])
    assert m.converged_runs == 1
    assert m.rmse == 0.0


def test_run_metrics_errors_start_at_convergence():
    truth = np.zeros((3, 2))
    run = RunResult(
        positions=np.array([[9.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        converged_at=1,
    )
    m = run_metrics(truth, [run])
    assert m.mae == pytest.approx(1.0)  # the wild pre-convergence step is excluded


def test_sampled_field_matches_bilinear_values():
    box = Aabb.cube(np.zeros(2), 1.0)
    # a bilinear function is reproduced exactly by bilinear interpolation
    f = lambda p: 2.0 + 3.0 * p[:, 0] - 1.5 * p[:, 1] + 0.5 * p[:, 0] * p[:, 1]
    values = meshing.sample_grid(f, box, 8)
    sf = SampledField2D(values, box)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(200, 2))
    np.testing.assert_allclose(sf(pts), f(pts), atol=1e-12)
    # every grid node, the hi edges and corner included, reads its node value
    axis = np.linspace(-1.0, 1.0, values.shape[0])
    nodes = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_array_equal(sf(nodes), values.reshape(-1))
    # clamping: far queries read the boundary value, below lo the corner node
    edge = sf(np.array([[5.0, 0.0]]))
    np.testing.assert_allclose(edge, f(np.array([[1.0, 0.0]])), atol=1e-12)
    np.testing.assert_array_equal(sf(np.array([[-3.0, -7.0]])), [values[0, 0]])


def test_localization_converges_on_room(tmp_path):
    # End-to-end filter property: against the exact room SDF, most seeded runs
    # converge and track the truth to within a few observation sigmas.
    scene = room_scene()
    field = room_field()
    box = Aabb.cube(np.zeros(2), 4.2)
    scan_cfg = ScannerConfig(beams=32, max_range=20.0, noise_sigma=0.05)
    steps = 24
    radius = 3.2
    angs = np.linspace(0.0, 1.2 * np.pi, steps)
    truth = np.stack([radius * np.cos(angs), radius * np.sin(angs)], axis=1)
    headings = np.array([wrap_angle(a + np.pi) for a in angs])
    poses = [Pose.from_xytheta(t[0], t[1], h) for t, h in zip(truth, headings)]
    scan_rng = np.random.default_rng(1)
    scans = [simulate_scan(scene, p, scan_cfg, scan_rng).points for p in poses]
    deltas = [np.zeros(3)]
    for i in range(1, steps):
        rel = poses[i - 1].inverse_apply(poses[i].translation[None, :])[0]
        deltas.append([rel[0], rel[1], wrap_angle(headings[i] - headings[i - 1])])
    cfg = MclConfig(n_particles=4000, sigma_z=0.1)
    results = []
    for r in range(5):
        rng = np.random.default_rng([0, r])
        results.append(localize_run(field, box, np.asarray(deltas), scans, cfg, rng))
    m = run_metrics(truth, results)
    assert m is not None
    assert m.converged_runs >= 4
    # noise floor: scan noise 0.05, so a tracking filter should sit well
    # inside 3x that plus the odometry diffusion
    assert m.rmse < 3.0 * 0.05 + 0.1
    assert m.rmse >= m.mae


def test_localize_run_validates_lengths():
    field = room_field()
    box = Aabb.cube(np.zeros(2), 4.0)
    with pytest.raises(ValueError):
        localize_run(field, box, np.zeros((2, 3)), [np.zeros((3, 2))], MclConfig(n_particles=8), np.random.default_rng(0))
