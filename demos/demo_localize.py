"""Monte Carlo localization against a field trained from 2D scans.

Synthesizes a lap around a square room with two obstacles, trains a small
field on the scans, then localizes the same scan sequence from a global
uniform prior.  Prints the per-step estimate error once the filter converges.

    python3 demos/demo_localize.py
"""
import time

import numpy as np

from scanfield import mcl, meshing
from scanfield.cli import canonical_rays, init_net, trajectory_poses, world_grid
from scanfield.config import RunConfig
from scanfield.geom import Pose
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
    scans = simulate_scan(scene, [Pose.from_xytheta(x, y, th) for x, y, th in traj], scanner, rng)
    canon, tf = canonical_rays(scans)

    t0 = time.time()
    net, _ = train(init_net(cfg, 2), canon, cfg.optim(), cfg.loss_weights(), cfg.supervision_mode())
    print(f"trained 2D field in {time.time() - t0:.1f}s")

    box = tf.cube
    grid = mcl.SampledField2D(meshing.sample_grid(world_grid(net, tf), box, cfg.field_grid_res), box)

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
