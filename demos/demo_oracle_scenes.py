"""Tour of the analytic scene oracles: build scenes, trace beams, check jets.

Run from the repository root:

    python3 demos/demo_oracle_scenes.py
"""
import numpy as np

from scanfield.geom import Pose
from scanfield.scenes import (
    AnalyticScene, Box, Plane, ScannerConfig, Sphere, parse_scene_text, simulate_scan,
)


def main():
    # A sphere sitting on a plane floor, queried directly.
    scene = AnalyticScene([Sphere(np.array([0.0, 0.0, 1.0]), 1.0),
                           Plane(np.array([0.0, 0.0, 1.0]), 0.0)])
    queries = np.array([
        [0.0, 0.0, 3.0],   # above the sphere
        [2.0, 0.0, 0.5],   # beside it, floor wins
        [0.0, 0.0, 1.0],   # sphere center (distance -1)
    ])
    print("point                      sdf     |grad|")
    values, grads, _, _ = scene.jet(queries)
    for q, v, g in zip(queries, values, grads):
        print(f"{np.array2string(q, precision=1):26s} {v:+.4f}  "
              f"{np.linalg.norm(g):.6f}")

    # The gradient is unit-norm wherever the oracle is smooth; the Laplacian
    # tr H carries the surface curvature (1/r for a sphere at distance 0).
    _, _, lap, _ = scene.jet(np.array([[0.0, 0.0, 2.5]]))
    curv = lap[0] / 2.0  # mean curvature of the level set
    print(f"\nmean curvature 0.5 above the sphere: {curv:.4f} "
          f"(analytic 1/1.5 = {1/1.5:.4f})")

    # Scenes also parse from a small text grammar.
    room = parse_scene_text(
        "plane 1 0 -3\nplane -1 0 -3\nplane 0 1 -3\nplane 0 -1 -3\n"
        "circle 0.8 -0.4 0.7\n"
    )
    pose = Pose.from_xytheta(-1.5, 1.0, -0.4)
    scan = simulate_scan(room, pose, ScannerConfig(beams=12, fov=2 * np.pi),
                         np.random.default_rng(0))
    ranges = np.linalg.norm(scan.points, axis=1)
    print(f"\n2D room scan from {pose.translation}: {len(ranges)} returns")
    print("ranges:", np.array2string(ranges, precision=3))


if __name__ == "__main__":
    main()
