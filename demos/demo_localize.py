"""Monte Carlo localization against a field trained from 2D scans.

Synthesizes a lap around a square room with two obstacles, trains a small
field on the scans, then localizes the same scan sequence from a global
uniform prior.  Prints the per-step estimate error once the filter converges.

    python3 demos/demo_localize.py
"""
import time

import numpy as np

from scanfield import mcl
from scanfield.cli import trajectory_poses
from scanfield.config import RunConfig
from scanfield.encoding import default_encoding
from scanfield.field import evaluate_batch, init_field
from scanfield.geom import Aabb, Pose, normalize_scene, to_world
from scanfield.scenes import parse_scene_text, simulate_scan
from scanfield.training import train

ROOM = """
plane 1 0 -3
plane -1 0 -3
plane 0 1 -3
plane 0 -1 -3
box 1.2 1.2 0.5 0.5
circle -1.2 -0.8 0.6
"""


def main():
    cfg = RunConfig(encoding_bands=10, hidden_width=64, hidden_layers=3,
                    samples_per_ray=16, beams=48)
    scene = parse_scene_text(ROOM)
    traj = trajectory_poses("orbit:radius=2.2,steps=20")
    scanner = cfg.scanner()

    rng = np.random.default_rng(cfg.seed)
    scans = [simulate_scan(scene, Pose.from_xytheta(x, y, th), scanner, rng)
             for x, y, th in traj]
    endpoints = np.concatenate([to_world(s) for s in scans])
    origins = np.concatenate([np.broadcast_to(s.pose.translation, s.points.shape) for s in scans])
    canon, tf = normalize_scene(origins, endpoints)

    net = init_field(cfg.seed, 2, default_encoding(cfg.encoding_bands),
                     hidden=cfg.hidden_width, hidden_layers=cfg.hidden_layers,
                     first_factor=cfg.first_layer_factor)
    t0 = time.time()
    net, _ = train(net, canon, cfg.optim(), cfg.loss_weights(), cfg.supervision_mode())
    print(f"trained 2D field in {time.time() - t0:.1f}s")

    def world_field(p):
        return tf.scale * evaluate_batch(net, tf.to_canonical(p))

    box = Aabb(tf.center - tf.scale, tf.center + tf.scale)
    grid = mcl.SampledField2D.from_field(world_field, box, cfg.field_grid_res)

    deltas = mcl.relative_deltas(traj)
    scans_xy = [s.points for s in scans]
    t0 = time.time()
    result = mcl.localize_run(grid, box, deltas, scans_xy, cfg.mcl(),
                              np.random.default_rng(7))
    print(f"localized {len(traj)} steps in {time.time() - t0:.1f}s "
          f"(converged at step {result.converged_at})")
    err = np.linalg.norm(result.positions - traj[:, :2], axis=1)
    for k in range(0, len(traj), 4):
        mark = " <- converged" if result.converged_at == k else ""
        print(f"  step {k:2d}: error {err[k]:.3f}{mark}")
    tail = result.converged_at if result.converged_at is not None else 0
    print(f"post-convergence RMSE: {np.sqrt(np.mean(err[tail:] ** 2)):.3f}")


if __name__ == "__main__":
    main()
