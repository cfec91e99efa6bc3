"""The two benchmark workloads: scenes, run configurations and command lists.

Each workload is a fixed analytic scene, a fixed run configuration and a
fixed sequence of CLI commands.  The workload seed picks the starting angle
of the scan orbit and is passed to every command as ``--seed`` (network
initialisation, batch order, particle draws), unless the workload fixes its
model seed; nothing else varies.

``full`` is the size the benchmark measures.  ``tiny`` runs the same commands
at toy size and exists for the benchmark's own smoke test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# A closed room (floor, ceiling, four walls) with a sphere in the middle of
# the orbit and a box standing on the floor in one corner.
ROOM3D_SCENE = """\
plane 1 0 0 -4
plane -1 0 0 -4
plane 0 1 0 -4
plane 0 -1 0 -4
plane 0 0 1 -2
plane 0 0 -1 -2.5
sphere 0 0 0 1
box 2.6 -2.6 -1.5 0.7 0.7 0.5
"""

# The ROOM scene of tests/test_cli.py: four walls, one cut corner, a box and
# a circle.
ROOM2D_SCENE = """\
plane 1 0 -4
plane -1 0 -4
plane 0 1 -4
plane 0 -1 -4
plane 1 1 -5.2
box 1.5 1.5 0.6 0.6
circle -1.5 -1 0.8
"""

# Default RunConfig except for the keys below: one epoch over 2,048 rays is
# four default steps of 512 rays x 40 samples.
ROOM3D_CONFIG = """\
beams = 128
epochs = 1
"""

# The "mid" configuration of the quality probe, shrunk to fit one run.
ROOM2D_CONFIG = """\
encoding_bands = 8
hidden_width = 64
hidden_layers = 3
samples_per_ray = 10
epochs = 15
batch_rays = 256
learn_rate = 1e-3
beams = 64
field_grid_res = 128
mcl_particles = 2000
mcl_runs = 3
"""

TINY3D_CONFIG = """\
encoding_bands = 4
hidden_width = 16
hidden_layers = 2
samples_per_ray = 6
epochs = 1
batch_rays = 32
beams = 16
"""

TINY2D_CONFIG = """\
encoding_bands = 4
hidden_width = 16
hidden_layers = 2
samples_per_ray = 6
epochs = 2
batch_rays = 32
learn_rate = 1e-3
beams = 16
field_grid_res = 24
mcl_particles = 200
mcl_runs = 1
"""

MODES = ("ray", "dcn", "curvature")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Workload:
    """One workload at one size.

    ``query`` is the command that reads the trained models: ``mesh`` or
    ``localize``.  ``model_seed``, when set, replaces the workload seed in
    the ``train`` and query commands.  ``region`` bounds the scene's free
    space and its walls; the SDF error is measured on a band of half-width
    ``band`` around every primitive inside it.
    """

    name: str
    scene: str
    config: str
    radius: float
    poses: int
    modes: tuple[str, ...]
    query: str
    mesh_res: int
    region: tuple[tuple[float, ...], tuple[float, ...]]
    band: float
    band_samples: int
    model_seed: int | None = None

    def traj(self, seed: int) -> str:
        """Orbit spec; the seed turns the orbit's starting angle."""
        start = 2.0 * math.pi * ((seed * GOLDEN) % 1.0)
        return f"orbit:radius={self.radius!r},steps={self.poses},start={start!r}"


# After four steps the room3d field is still close to its initialisation, so
# the network seed decides its spurious sheets, and with them the mesh work
# (213k-283k faces over ten seeds) and the SDF error.  A fixed model seed
# keeps both comparable across workload seeds; the scans still vary.
WORKLOADS = {
    ("room3d", "full"): Workload(
        name="room3d", scene=ROOM3D_SCENE, config=ROOM3D_CONFIG,
        radius=2.5, poses=16,
        modes=("curvature",), query="mesh", mesh_res=48,
        region=((-4.0, -4.0, -2.0), (4.0, 4.0, 2.5)), band=0.3, band_samples=20000,
        model_seed=0,
    ),
    ("room2d", "full"): Workload(
        name="room2d", scene=ROOM2D_SCENE, config=ROOM2D_CONFIG,
        radius=3.2, poses=20,
        modes=MODES, query="localize", mesh_res=0,
        region=((-4.0, -4.0), (4.0, 4.0)), band=0.3, band_samples=20000,
    ),
    ("room3d", "tiny"): Workload(
        name="room3d", scene=ROOM3D_SCENE, config=TINY3D_CONFIG,
        radius=2.5, poses=4,
        modes=("curvature",), query="mesh", mesh_res=8,
        region=((-4.0, -4.0, -2.0), (4.0, 4.0, 2.5)), band=0.3, band_samples=500,
        model_seed=0,
    ),
    ("room2d", "tiny"): Workload(
        name="room2d", scene=ROOM2D_SCENE, config=TINY2D_CONFIG,
        radius=3.2, poses=6,
        modes=MODES, query="localize", mesh_res=0,
        region=((-4.0, -4.0), (4.0, 4.0)), band=0.3, band_samples=500,
    ),
}

NAMES = sorted({name for name, _ in WORKLOADS})
SIZES = sorted({size for _, size in WORKLOADS})


def commands(wl: Workload, seed: int, cfg: str, data: str, out: str) -> list[tuple[str, str, list[str]]]:
    """(kind, mode, argv) for every timed command, in run order."""
    model_seed = seed if wl.model_seed is None else wl.model_seed
    common = ["--config", cfg, "--seed", str(model_seed)]
    cmds = []
    for mode in wl.modes:
        model = f"{out}/{mode}.bin"
        cmds.append(("train", mode, ["train", "--scans", data, "--mode", mode,
                                     "--out", model, *common]))
        if wl.query == "mesh":
            cmds.append(("mesh", mode, ["mesh", "--model", model, "--res", str(wl.mesh_res),
                                        "--out", f"{out}/{mode}.ply", *common]))
        else:
            cmds.append(("localize", mode, ["localize", "--model", model, "--data", data,
                                            "--out", f"{out}/{mode}.mcl.csv", *common]))
    return cmds
