"""Train a small 3D field from simulated scans and extract its surface.

A pocket-sized version of the full pipeline: golden-spiral scanner poses
around a unit sphere, curvature-constrained supervision, marching cubes at
the end.  Takes about a minute on one core.

    python3 demos/demo_train_mesh.py [out.ply]
"""
import sys
import time

import numpy as np

from scanfield import meshing, storage
from scanfield.cli import canonical_rays, init_net, world_grid
from scanfield.config import RunConfig
from scanfield.geom import Aabb, Pose
from scanfield.scenes import AnalyticScene, Sphere, simulate_scan
from scanfield.training import train


def aimed_poses(n, radius):
    """Scanner positions on a golden spiral, each looking at the origin."""
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + 5.0 ** 0.5) * k
    dirs = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=1,
    )
    poses = []
    for d in dirs:
        x = -d
        helper = np.array([0.0, 0.0, 1.0]) if abs(x[2]) < 0.99 else np.array([0.0, 1.0, 0.0])
        y = np.cross(helper, x)
        y /= np.linalg.norm(y)
        poses.append(Pose(np.stack([x, y, np.cross(x, y)], axis=1), radius * d))
    return poses


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "demo_sphere.ply"
    cfg = RunConfig(encoding_bands=12, hidden_width=64, hidden_layers=3,
                    samples_per_ray=20, beams=32, fov=1.45)
    scene = AnalyticScene([Sphere(np.zeros(3), 1.0)])
    scanner = cfg.scanner()

    rng = np.random.default_rng(cfg.seed)
    scans = simulate_scan(scene, aimed_poses(20, 1.5), scanner, rng)
    canon, tf = canonical_rays(scans)
    print(f"{len(canon[1])} rays from 20 poses")

    t0 = time.time()
    net, history = train(init_net(cfg, 3), canon, cfg.optim(), cfg.loss_weights(),
                         cfg.supervision_mode())
    for epoch, terms in enumerate(history):
        print(f"  epoch {epoch}: data {terms.data:.4f}  eikonal {terms.eikonal:.4f}")
    print(f"trained in {time.time() - t0:.1f}s")

    mesh = meshing.marching_cubes(world_grid(net, tf), Aabb.cube(np.zeros(3), 1.1), 48)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    print(f"mesh: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, "
          f"radius {radii.mean():.3f} +/- {radii.std():.3f}")
    storage.export_mesh_ply(out_path, mesh)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
