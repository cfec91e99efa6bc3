"""Anatomy of the supervision targets along a single beam.

Places log-spaced samples on one ray against a unit-sphere oracle and prints
the three distance targets side by side.  With exact jets the curvature-
constrained estimate recovers the true signed distance everywhere on the ray,
while the normal-projection estimate degrades as the endpoint normal tilts
away from the line of sight.

    python3 demos/demo_target_anatomy.py
"""
import numpy as np

from scanfield.sampling import sample_rays_batch
from scanfield.scenes import AnalyticScene, Sphere, sphere_trace
from scanfield.targets import SupervisionMode, compute_targets
from scanfield.training import LossWeights


def run_mode(scene, positions, endpoints, mode):
    # The curvature target reads two contractions of the Hessian: tr H and gᵀHg.
    vals, grads, lap, ghg = scene.jet(positions)
    return compute_targets(mode, vals, grads, (lap, ghg), positions, endpoints,
                           tau=LossWeights.tau, gamma=LossWeights.gamma)


def main():
    scene = AnalyticScene([Sphere(np.zeros(3), 1.0)])
    # An oblique beam: aim at a surface point 40 degrees off the line of
    # sight, so the endpoint normal and the beam direction disagree by ~67.
    origin = np.array([2.0, 0.0, 0.0])
    aim = np.array([np.cos(0.7), np.sin(0.7), 0.0])
    d = (aim - origin) / np.linalg.norm(aim - origin)
    hit, t = sphere_trace(scene, origin[None], d[None], 10.0)
    assert hit[0]
    endpoint = origin + t[0] * d

    positions, dists, _ = sample_rays_batch(origin[None], endpoint[None], n=12)
    endpoints = np.broadcast_to(endpoint, positions.shape)
    truth = scene.sdf(positions)

    ray_b = run_mode(scene, positions, endpoints, SupervisionMode.RAY_DISTANCE)
    dcn_b = run_mode(scene, positions, endpoints, SupervisionMode.CLOSEST_NORMAL)
    cc_b = run_mode(scene, positions, endpoints, SupervisionMode.CURVATURE_CONSTRAINED)

    print("dist-to-endpoint   truth     ray      normal-proj  curvature")
    for i in range(len(positions)):
        print(f"{dists[i]:14.4f} {truth[i]:+9.4f} {ray_b.d_hat[i]:+9.4f} "
              f"{dcn_b.d_hat[i]:+12.4f} {cc_b.d_hat[i]:+10.4f}")
    print("\n(the curvature column matches the truth column up to the 0.2 cap;")
    print(" the ray column overstates distance for oblique hits)")

    err_ray = np.abs(ray_b.d_hat - np.clip(truth, 0.0, 0.2)).max()
    err_cc = np.abs(cc_b.d_hat - np.clip(truth, 0.0, 0.2)).max()
    print(f"\nmax |target - clipped truth|: ray {err_ray:.4f}, curvature {err_cc:.2e}")


if __name__ == "__main__":
    main()
