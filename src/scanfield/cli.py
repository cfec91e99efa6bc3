"""Command-line pipeline: synth, train, mesh, eval-sdf, localize, compare.

Every command is deterministic for a fixed --seed with --threads 1; outputs
are CSV tables (stdout and/or --out), binary PLY meshes, datasets and
models.  A dataset is a directory of ``poses.txt`` plus ``scan_*.bin`` files;
a model is a checkpoint plus its ``<checkpoint>.transform`` sidecar.
``storage`` reads and writes datasets, models and meshes.
Every scored field is one map over one region: world-frame values and
gradients over the scanned cube that ``normalize_scene`` fit around the scans.
``eval-sdf`` and ``compare`` score a band around every primitive inside it;
``localize`` spreads its particles over it, for a model and a ``--scene`` alike.
Exit codes: 0 success, 2 validation/usage error, 1 other failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import field as field_mod
from . import mcl as mcl_mod
from . import meshing, scenes, storage
from .__main__ import THREAD_VARS
from .config import RunConfig, parse_config
from .geom import Aabb, Pose, Scan, SceneTransform, normalize_scene, to_world
from .targets import SupervisionMode
from .training import train

# Half-width of the near-surface band that eval-sdf and compare score, in
# world metres: points this close to a primitive, planes included, inside the
# scanned cube padded by the band.
EVAL_BAND = 0.2

MODE_LABELS = {
    SupervisionMode.RAY_DISTANCE: "RayDistance",
    SupervisionMode.CLOSEST_NORMAL: "ClosestNormal",
    SupervisionMode.CURVATURE_CONSTRAINED: "CurvatureConstrained",
}


def _limit_threads(n: int) -> None:
    # BLAS and OpenMP pools start when numpy is imported, which this module
    # has done; ``python -m scanfield`` caps them through the environment
    # before that (see __main__).  Here, only threadpoolctl can still act.
    try:
        import threadpoolctl
    except ImportError:
        if any(os.environ.get(var) != str(n) for var in THREAD_VARS):
            print(f"warning: --threads {n} not applied: numpy was imported before the thread "
                  "variables were set and threadpoolctl is not installed; "
                  "run through 'python -m scanfield' instead", file=sys.stderr)
        return
    threadpoolctl.threadpool_limits(n)


def _load_run_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        overrides["mode"] = args.mode
    text = Path(args.config).read_text() if args.config is not None else ""
    return parse_config(text, overrides)


def _write_csv(path, header: str, rows: list[str]) -> None:
    text = "\n".join([header] + rows) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# trajectory generation


def _parse_traj_spec(spec: str):
    name, _, rest = spec.partition(":")
    kv = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            if not sep:
                raise ValueError(f"trajectory spec piece {part!r} is not key=val")
            kv[key.strip()] = float(val)
    return name.strip(), kv


def _require(kv: dict, name: str) -> float:
    try:
        return kv.pop(name)
    except KeyError:
        raise ValueError(f"trajectory spec is missing {name!r}") from None


def trajectory_poses(spec: str) -> np.ndarray:
    """Planar (x, y, heading) rows from a compact generator spec.

    orbit:radius=R,steps=N[,cx=0,cy=0,start=0]  counter-clockwise circle,
        sensor facing the center.
    line:x0=..,y0=..,x1=..,y1=..,steps=N        constant heading along the
        segment, endpoints inclusive.
    """
    name, kv = _parse_traj_spec(spec)
    if name == "orbit":
        radius = _require(kv, "radius")
        steps = int(_require(kv, "steps"))
        cx, cy = kv.pop("cx", 0.0), kv.pop("cy", 0.0)
        start = kv.pop("start", 0.0)
        if kv:
            raise ValueError(f"unknown orbit keys {sorted(kv)}")
        if radius <= 0 or steps < 1:
            raise ValueError("orbit needs radius > 0 and steps >= 1")
        ang = start + 2.0 * np.pi * np.arange(steps) / steps
        out = np.empty((steps, 3))
        out[:, 0] = cx + radius * np.cos(ang)
        out[:, 1] = cy + radius * np.sin(ang)
        out[:, 2] = mcl_mod.wrap_angle(ang + np.pi)
        return out
    if name == "line":
        x0, y0, x1, y1 = (_require(kv, k) for k in ("x0", "y0", "x1", "y1"))
        steps = int(_require(kv, "steps"))
        if kv:
            raise ValueError(f"unknown line keys {sorted(kv)}")
        if steps < 2:
            raise ValueError("line needs steps >= 2")
        t = np.linspace(0.0, 1.0, steps)
        heading = float(np.arctan2(y1 - y0, x1 - x0))
        out = np.empty((steps, 3))
        out[:, 0] = x0 + t * (x1 - x0)
        out[:, 1] = y0 + t * (y1 - y0)
        out[:, 2] = heading
        return out
    raise ValueError(f"unknown trajectory generator {name!r}")


def _planar_pose(x: float, y: float, theta: float, dim: int) -> Pose:
    if dim == 2:
        return Pose.from_xytheta(x, y, theta)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, np.array([x, y, 0.0]))


# ---------------------------------------------------------------------------
# synth


def _synthesize_dataset(scene, traj: np.ndarray, cfg: RunConfig) -> list[Scan]:
    """One scan per (x, y, heading) row; scan noise draws from one seeded generator."""
    scanner = cfg.scanner()
    rng = np.random.default_rng(cfg.seed)
    scans = []
    for x, y, th in traj:
        pose = _planar_pose(x, y, th, scene.dim)
        scans.append(scenes.simulate_scan(scene, pose, scanner, rng))
    return scans


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    scene = scenes.parse_scene_file(args.scene)
    traj = trajectory_poses(args.traj)
    storage.save_scans(args.out, _synthesize_dataset(scene, traj, cfg))
    print(f"wrote {len(traj)} scans to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train


def _canonical_rays(scans: list[Scan]):
    """Every scan's rays as canonical (origins, endpoints) arrays, plus the transform."""
    ends = [to_world(s) for s in scans]
    origins = np.concatenate(
        [np.broadcast_to(s.pose.translation, e.shape) for s, e in zip(scans, ends)]
    )
    return normalize_scene(origins, np.concatenate(ends))


def _init_net(cfg: RunConfig, dim: int) -> field_mod.FieldNet:
    from .encoding import default_encoding

    enc = default_encoding(cfg.encoding_bands, cfg.encoding_base_freq)
    return field_mod.init_field(
        cfg.seed, dim, enc,
        hidden=cfg.hidden_width, hidden_layers=cfg.hidden_layers,
        first_factor=cfg.first_layer_factor,
    )


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    scans = storage.load_scans(args.scans)
    canon, tf = _canonical_rays(scans)
    net, history = train(_init_net(cfg, scans[0].pose.dim), canon, cfg.optim(),
                         cfg.loss_weights(), cfg.supervision_mode())
    storage.save_field(args.out, net, tf)
    rows = [
        ",".join([str(i)] + [repr(float(v))
                             for v in (h.data, h.endpoint, h.eikonal, h.smoothness, h.total)])
        for i, h in enumerate(history)
    ]
    _write_csv(f"{args.out}.loss.csv",
               "epoch,data,endpoint,eikonal,smoothness,total", rows)
    return 0


# ---------------------------------------------------------------------------
# scoring: one map and one region per scored field


def _world_map(net, tf: SceneTransform):
    """World-frame ``values`` and ``gradients`` of a model, and its scanned cube."""

    def values(points):
        return tf.scale * field_mod.evaluate_batch(net, tf.to_canonical(points))

    def gradients(points):
        _, g = field_mod.grad_batch(net, tf.to_canonical(points))
        return g  # world gradient: scale cancels against the chain rule

    return values, gradients, tf.cube


def _band_points(scene, box: Aabb, band: float, count: int, seed: int) -> np.ndarray:
    if count < 1:
        raise ValueError(f"--samples must be >= 1, got {count}")
    if not (np.isfinite(band) and band > 0.0):
        raise ValueError(f"--band must be positive and finite, got {band}")
    return scenes.band_sample(scene, box, band, count, np.random.default_rng(seed))


def _sdf_errors(values, scene, pts: np.ndarray) -> tuple[float, float]:
    """Mean absolute and root-mean-square error of ``values`` against the scene's SDF."""
    err = np.asarray(values(pts), dtype=np.float64) - scene.sdf(pts)
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


def _mcl_score(values, box: Aabb, traj: np.ndarray, scans: list[Scan], cfg: RunConfig):
    """Seeded MCL runs on a ``field_grid_res`` grid of ``values`` over ``box``,
    and their metrics against the planar poses ``traj`` of ``scans``."""
    grid = mcl_mod.SampledField2D.from_field(values, box, cfg.field_grid_res)
    mcl_cfg = cfg.mcl()
    deltas = mcl_mod.relative_deltas(traj)
    scans_xy = [s.points for s in scans]
    results = [mcl_mod.localize_run(grid, box, deltas, scans_xy, mcl_cfg,
                                    np.random.default_rng([cfg.seed, r]))
               for r in range(mcl_cfg.runs)]
    return results, mcl_mod.run_metrics(traj[:, :2], results)


def _mcl_columns(metrics) -> str:
    """``rmse,mae`` of converged runs, ``-,-`` when no run converged."""
    return "-,-" if metrics is None else f"{metrics.rmse!r},{metrics.mae!r}"


# ---------------------------------------------------------------------------
# mesh


def cmd_mesh(args) -> int:
    cfg = _load_run_config(args)
    net, tf = storage.load_field(args.model)
    if net.dim != 3:
        raise ValueError("mesh extraction needs a 3D model")
    res = args.res if args.res is not None else cfg.mesh_res
    canon_field = lambda pts: field_mod.evaluate_batch(net, pts)
    mesh = meshing.marching_cubes(canon_field, Aabb.cube(np.zeros(3), 1.0), res)
    mesh = meshing.TriangleMesh(tf.to_world(mesh.vertices), mesh.triangles)
    storage.export_mesh_ply(args.out, mesh)
    print(f"wrote {mesh.vertices.shape[0]} vertices, {mesh.triangles.shape[0]} faces to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval-sdf


def cmd_eval_sdf(args) -> int:
    cfg = _load_run_config(args)
    scene = scenes.parse_scene_file(args.scene)
    net, tf = storage.load_field(args.model)
    if net.dim != scene.dim:
        raise ValueError(f"model is {net.dim}D but scene is {scene.dim}D")
    values, gradients, box = _world_map(net, tf)
    pts = _band_points(scene, box, args.band, args.samples, cfg.seed)
    mae, rmse = _sdf_errors(values, scene, pts)
    eik = float(np.mean(np.abs(np.linalg.norm(gradients(pts), axis=1) - 1.0)))
    _write_csv(args.out, "metric,value",
               [f"mae,{mae!r}", f"rmse,{rmse!r}", f"eikonal_mean,{eik!r}"])
    return 0


# ---------------------------------------------------------------------------
# localize


def _planar_trajectory(scans: list[Scan]) -> np.ndarray:
    """(x, y, heading) rows of planar scan poses."""
    return np.array([(*s.pose.translation, np.arctan2(s.pose.rotation[1, 0], s.pose.rotation[0, 0]))
                     for s in scans])


def cmd_localize(args) -> int:
    cfg = _load_run_config(args)
    if (args.model is None) == (args.scene is None):
        raise ValueError("pass exactly one of --model or --scene")
    scans = storage.load_scans(args.data)
    if scans[0].pose.dim != 2:
        raise ValueError("localization needs a planar (2D) dataset")
    if args.model is not None:
        net, tf = storage.load_field(args.model)
        if net.dim != 2:
            raise ValueError("localization needs a 2D model")
        values, _, box = _world_map(net, tf)
    else:
        scene = scenes.parse_scene_file(args.scene)
        if scene.dim != 2:
            raise ValueError("localization needs a 2D scene")
        values, box = scene.sdf, _canonical_rays(scans)[1].cube
    results, metrics = _mcl_score(values, box, _planar_trajectory(scans), scans, cfg)
    conv = sum(1 for r in results if r.converged_at is not None)
    _write_csv(args.out, "runs,converged,rmse,mae",
               [f"{len(results)},{conv},{_mcl_columns(metrics)}"])
    return 0


# ---------------------------------------------------------------------------
# compare


def _auto_orbit(scene, steps: int) -> str:
    """Pick a free-space circular trajectory around the scene's content."""
    bounds = scenes.scene_bounds(scene)
    if bounds is None:
        raise ValueError("scene has no bounded primitive (only planes), so there is no "
                         "content to orbit; pass --traj")
    c = bounds.center
    reach = float(np.max(bounds.half_extent))
    for frac in (1.8, 1.5, 1.25, 1.0, 0.8, 0.6, 0.45, 0.3):
        radius = frac * reach
        ang = 2.0 * np.pi * np.arange(64) / 64
        ring = np.stack([c[0] + radius * np.cos(ang), c[1] + radius * np.sin(ang)], axis=1)
        if scene.dim == 3:
            ring = np.concatenate([ring, np.zeros((64, 1))], axis=1)
        if np.min(scene.sdf(ring)) > 0.05 * reach:
            return f"orbit:radius={radius},steps={steps},cx={c[0]},cy={c[1]}"
    raise ValueError("no free-space orbit found; pass --traj explicitly")


def cmd_compare(args) -> int:
    cfg = _load_run_config(args)
    scene = scenes.parse_scene_file(args.scene)
    traj = trajectory_poses(args.traj if args.traj is not None else _auto_orbit(scene, args.poses))
    scans = _synthesize_dataset(scene, traj, cfg)
    canon, tf = _canonical_rays(scans)
    pts = _band_points(scene, tf.cube, EVAL_BAND, args.samples, cfg.seed)

    rows = []
    for mode in SupervisionMode:
        net, _ = train(_init_net(cfg, scene.dim), canon, cfg.optim(), cfg.loss_weights(), mode)
        values, _, box = _world_map(net, tf)
        mae, rmse = _sdf_errors(values, scene, pts)
        mcl = "-,-"
        if scene.dim == 2:
            mcl = _mcl_columns(_mcl_score(values, box, traj, scans, cfg)[1])
        rows.append(f"{MODE_LABELS[mode]},{mae!r},{rmse!r},{mcl}")
    _write_csv(args.out, "mode,sdf_mae,sdf_rmse,mcl_rmse,mcl_mae", rows)
    return 0


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="scanfield",
        description="Self-supervised distance fields from range scans",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, mode_flag=False):
        p.add_argument("--config", default=None,
                       help="key=value run configuration file (keys: scanfield.config.KEYS)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="cap worker threads")
        if mode_flag:
            p.add_argument("--mode", choices=[m.value for m in SupervisionMode], default=None,
                           help="supervision target construction")

    p = sub.add_parser("synth", help="simulate a scan dataset from an analytic scene")
    common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--traj", required=True, help="orbit:radius=..,steps=.. or line:...")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a field to a scan dataset")
    common(p, mode_flag=True)
    p.add_argument("--scans", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mesh", help="extract the zero isosurface of a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--res", type=int, default=None,
                   help="cells per axis (default: the config's mesh_res)")
    p.add_argument("--out", required=True, help="output PLY path")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("eval-sdf", help="score a model against the scene it was scanned from")
    common(p)
    p.add_argument("--model", required=True,
                   help="checkpoint path; scored inside the cube its scans span")
    p.add_argument("--scene", required=True)
    p.add_argument("--band", type=float, default=EVAL_BAND,
                   help="half-width of the scored near-surface band, world metres "
                        f"(default {EVAL_BAND})")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--out", default=None, help="CSV path (also printed)")
    p.set_defaults(func=cmd_eval_sdf)

    p = sub.add_parser("localize", help="run Monte Carlo localization on a dataset")
    common(p)
    p.add_argument("--model", default=None, help="2D checkpoint path")
    p.add_argument("--scene", default=None, help="oracle scene stand-in for the map")
    p.add_argument("--data", required=True,
                   help="planar dataset directory: poses.txt plus scan_*.bin, as synth writes")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("compare", help="train and score all three supervision modes")
    common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--traj", default=None, help="trajectory spec (default: auto orbit)")
    p.add_argument("--poses", type=int, default=100, help="poses for the auto orbit")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        _limit_threads(args.threads)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
