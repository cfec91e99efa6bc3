"""Command-line pipeline: synth, train, mesh, eval-sdf, localize, compare.

Every command is deterministic for a fixed --seed, and writes the same bytes
at any --threads, the count of threads that run field passes and, beside a
training step's passes, its kNN query; ``field.set_threads`` checks and
defaults it.  Outputs are CSV tables (stdout
and/or --out), binary PLY meshes, datasets and models.  A dataset is a
directory of ``poses.txt`` plus ``scan_*.bin`` files; a model is a checkpoint
plus its ``<checkpoint>.transform`` sidecar.
``storage`` reads and writes datasets, models and meshes.
Every scored field is one map over one region: world-frame values and
gradients over the scanned cube that ``normalize_scene`` fit around the scans.
``eval-sdf`` and ``compare`` score a band around every primitive inside it;
``localize`` spreads its particles over it, for a model and a ``--scene`` alike.
``mesh`` and the MCL map read a model on a grid (``world_grid``,
``field.evaluate_grid``).
Exit codes: 0 success, 2 validation/usage error, 1 other failures, among
them an ``--out`` file whose directory is missing, found before any work.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import os
import sys
from functools import partial
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


def _load_run_config(args) -> RunConfig:
    overrides = {key: getattr(args, key) for key in ("seed", "mode")
                 if getattr(args, key, None) is not None}
    text = Path(args.config).read_text() if args.config is not None else ""
    return parse_config(text, overrides)


def _check_out_dir(path) -> None:
    """Fail before any work when the directory of an output file is missing."""
    if path is not None and path != "-" and not Path(path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no directory for --out", str(path))


def _write_csv(path, header: str, rows: list[str]) -> None:
    text = "\n".join([header] + rows) + "\n"
    if path is not None and path != "-":
        Path(path).write_text(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# trajectory generation


def orbit(radius: float, steps: int, cx: float = 0.0, cy: float = 0.0,
          start: float = 0.0) -> np.ndarray:
    """Counter-clockwise circle from angle ``start``, sensor facing the center."""
    if radius <= 0 or steps < 1:
        raise ValueError("orbit needs radius > 0 and steps >= 1")
    ang = start + 2.0 * np.pi * np.arange(steps) / steps
    return np.stack([cx + radius * np.cos(ang), cy + radius * np.sin(ang),
                     mcl_mod.wrap_angle(ang + np.pi)], axis=1)


def line(x0: float, y0: float, x1: float, y1: float, steps: int) -> np.ndarray:
    """Constant heading along the segment, endpoints inclusive."""
    if steps < 2:
        raise ValueError("line needs steps >= 2")
    t = np.linspace(0.0, 1.0, steps)
    return np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0),
                     np.full(steps, np.arctan2(y1 - y0, x1 - x0))], axis=1)


TRAJECTORIES = {"orbit": orbit, "line": line}


def trajectory_poses(spec: str) -> np.ndarray:
    """Planar (x, y, heading) rows from a compact generator spec
    ``name:key=val,...``, e.g. ``orbit:radius=2,steps=8`` or
    ``line:x0=0,y0=0,x1=3,y1=4,steps=5``.

    A generator's spec keys are its parameters (``TRAJECTORIES``); values are
    finite floats, ``steps`` a whole number.
    """
    name, _, rest = spec.partition(":")
    name, kv = name.strip(), {}
    for part in rest.split(",") if rest else ():
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"trajectory spec piece {part!r} is not key=val")
        key = key.strip()
        if key in kv:
            raise ValueError(f"trajectory key {key!r} is given twice")
        kv[key] = float(val)
        if not np.isfinite(kv[key]):
            raise ValueError(f"trajectory key {key!r} must be finite, got {val!r}")
        if key == "steps":
            if kv[key] != int(kv[key]):
                raise ValueError(f"trajectory key 'steps' must be a whole number, got {val!r}")
            kv[key] = int(kv[key])
    gen = TRAJECTORIES.get(name)
    if gen is None:
        raise ValueError(f"unknown trajectory generator {name!r}")
    params = inspect.signature(gen).parameters
    unknown = sorted(set(kv) - set(params))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in kv]
    if missing:
        raise ValueError(f"{name} spec is missing {missing[0]!r}")
    return gen(**kv)


# ---------------------------------------------------------------------------
# synth


def _synthesize_dataset(scene, traj: np.ndarray, cfg: RunConfig) -> list[Scan]:
    """One scan per (x, y, heading) row; scan noise draws from one seeded generator."""
    poses = [Pose.from_xytheta(x, y, th, scene.dim) for x, y, th in traj]
    return scenes.simulate_scan(scene, poses, cfg.scanner(), np.random.default_rng(cfg.seed))


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    scene = scenes.parse_scene_file(args.scene)
    traj = trajectory_poses(args.traj)
    storage.save_scans(args.out, _synthesize_dataset(scene, traj, cfg))
    print(f"wrote {len(traj)} scans to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train


def canonical_rays(scans: list[Scan]):
    """Every scan's rays as canonical (origins, endpoints) arrays, plus the transform."""
    ends = [to_world(s) for s in scans]
    origins = np.concatenate(
        [np.broadcast_to(s.pose.translation, e.shape) for s, e in zip(scans, ends)]
    )
    return normalize_scene(origins, np.concatenate(ends))


def init_net(cfg: RunConfig, dim: int) -> field_mod.FieldNet:
    """The seeded network of ``cfg``'s shape over ``dim`` coordinates."""
    return field_mod.init_field(
        cfg.seed, dim, cfg.encoding(),
        hidden=cfg.hidden_width, hidden_layers=cfg.hidden_layers,
        first_factor=cfg.first_layer_factor,
    )


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    scans = storage.load_scans(args.scans)
    canon, tf = canonical_rays(scans)
    net, history = train(init_net(cfg, scans[0].pose.dim), canon, cfg.optim(),
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


def world_map(net, tf: SceneTransform):
    """World-frame ``values`` and ``gradients`` of a model, and its scanned cube."""

    def values(points):
        return tf.scale * field_mod.evaluate_batch(net, tf.to_canonical(points))

    def gradients(points):
        _, g = field_mod.grad_batch(net, tf.to_canonical(points))
        return g  # world gradient: scale cancels against the chain rule

    return values, gradients, tf.cube


def world_grid(net, tf: SceneTransform):
    """The grid function of a model's world-frame values, for
    ``meshing.sample_grid``: per axis the same canonical coordinates as
    ``world_map``'s ``tf.to_canonical``, bit for bit."""

    def grid(axes):
        return tf.scale * field_mod.evaluate_grid(
            net, [(a - c) / tf.scale for a, c in zip(axes, tf.center)])

    return grid


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


def _mcl_score(grid_fn, box: Aabb, traj: np.ndarray, scans: list[Scan], cfg: RunConfig):
    """Seeded MCL runs on a ``field_grid_res`` grid of the grid function
    ``grid_fn`` over ``box``, and their metrics against the planar poses
    ``traj`` of ``scans``."""
    grid = mcl_mod.SampledField2D(meshing.sample_grid(grid_fn, box, cfg.field_grid_res), box)
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
    _load_run_config(args)  # a bad --config fails here, as in every command
    net, tf = storage.load_field(args.model)
    if net.dim != 3:
        raise ValueError("mesh extraction needs a 3D model")
    mesh = meshing.marching_cubes(partial(field_mod.evaluate_grid, net),
                                  Aabb.cube(np.zeros(3), 1.0), args.res)
    # To world in place: the operations of ``tf.to_world``, without a copy.
    v = mesh.vertices
    v *= tf.scale
    v += tf.center
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
    values, gradients, box = world_map(net, tf)
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
        grid_fn, box = world_grid(net, tf), tf.cube
    else:
        scene = scenes.parse_scene_file(args.scene)
        if scene.dim != 2:
            raise ValueError("localization needs a 2D scene")
        grid_fn, box = meshing.pointwise(scene.sdf), canonical_rays(scans)[1].cube
    results, metrics = _mcl_score(grid_fn, box, _planar_trajectory(scans), scans, cfg)
    conv = 0 if metrics is None else metrics.converged_runs
    _write_csv(args.out, "runs,converged,rmse,mae",
               [f"{len(results)},{conv},{_mcl_columns(metrics)}"])
    return 0


# ---------------------------------------------------------------------------
# compare


def _auto_orbit(scene, steps: int) -> np.ndarray:
    """(x, y, heading) rows of a free-space orbit around the scene's content."""
    bounds = scenes.scene_bounds(scene)
    if bounds is None:
        raise ValueError("scene has no bounded primitive (only planes), so there is no "
                         "content to orbit; pass --traj")
    c = bounds.center
    reach = float(np.max(bounds.half_extent))
    for frac in (1.8, 1.5, 1.25, 1.0, 0.8, 0.6, 0.45, 0.3):
        radius = frac * reach
        ring = np.zeros((64, scene.dim))  # at z = 0 in 3D, as the poses are
        ring[:, :2] = orbit(radius, 64, c[0], c[1])[:, :2]
        if np.min(scene.sdf(ring)) > 0.05 * reach:
            return orbit(radius, steps, c[0], c[1])
    raise ValueError("no free-space orbit found; pass --traj explicitly")


def cmd_compare(args) -> int:
    cfg = _load_run_config(args)
    scene = scenes.parse_scene_file(args.scene)
    traj = trajectory_poses(args.traj) if args.traj is not None else _auto_orbit(scene, args.poses)
    scans = _synthesize_dataset(scene, traj, cfg)
    canon, tf = canonical_rays(scans)
    pts = _band_points(scene, tf.cube, EVAL_BAND, args.samples, cfg.seed)

    rows = []
    for mode in SupervisionMode:
        net, _ = train(init_net(cfg, scene.dim), canon, cfg.optim(), cfg.loss_weights(), mode)
        values, _, box = world_map(net, tf)
        mae, rmse = _sdf_errors(values, scene, pts)
        mcl = "-,-"
        if scene.dim == 2:
            mcl = _mcl_columns(_mcl_score(world_grid(net, tf), box, traj, scans, cfg)[1])
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
        p.add_argument("--threads", type=int, default=None,
                       help="threads that run field passes, and a training step's kNN "
                            "query beside them, this one included; "
                            "scanfield.field.set_threads checks it and defaults it to one "
                            "per available CPU; outputs do not depend on it")
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
    p.add_argument("--res", type=int, default=256, help="cells per axis")
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
    try:
        field_mod.set_threads(args.threads)
        # BLAS sized its pools when numpy was imported; only the launcher pins them (__main__).
        if args.threads is not None and any(os.environ.get(var) != "1" for var in THREAD_VARS):
            print(f"warning: --threads {args.threads} sets the field's threads, but BLAS was not "
                  "pinned to one thread: numpy was imported before the thread variables were "
                  "set; run through 'python -m scanfield' instead", file=sys.stderr)
        if args.command != "synth":  # synth's --out is a directory that it makes
            _check_out_dir(args.out)
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
