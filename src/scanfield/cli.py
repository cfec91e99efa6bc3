"""Command-line pipeline: synth, train, mesh, eval-sdf, localize, compare.

Every command is deterministic for a fixed --seed with --threads 1; outputs
are CSV tables (stdout and/or --out), PLY meshes, and binary checkpoints.
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
from .config import RunConfig, load_config
from .geom import Aabb, Pose, Scan, SceneTransform, normalize_scene, to_world
from .targets import SupervisionMode
from .training import train

# Half-width of the near-surface band that eval-sdf and compare score, in
# world metres.
EVAL_BAND = 0.2

MODE_LABELS = {
    SupervisionMode.RAY_DISTANCE: "RayDistance",
    SupervisionMode.CLOSEST_NORMAL: "ClosestNormal",
    SupervisionMode.CURVATURE_CONSTRAINED: "CurvatureConstrained",
}


def _limit_threads(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(n)
    except ImportError:
        pass


def _load_run_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        overrides["mode"] = args.mode
    if args.config is not None:
        return load_config(args.config, overrides)
    return RunConfig(**overrides) if overrides else RunConfig()


def _write_csv(path, header: str, rows: list[str]) -> None:
    text = "\n".join([header] + rows) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        sys.stdout.write(text)


def _fmt(x) -> str:
    if x is None:
        return "-"
    return repr(float(x))


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


def _embed_pose_row(pose: Pose) -> np.ndarray:
    """3x4 row-major pose line; 2D poses are embedded in the z=0 plane."""
    mat = np.eye(3, 4)
    d = pose.dim
    mat[:d, :d] = pose.rotation
    mat[:d, 3] = pose.translation
    return mat.reshape(-1)


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pose_rows = []
    for k, scan in enumerate(_synthesize_dataset(scene, traj, cfg)):
        pts = scan.points
        if pts.shape[1] == 2:
            pts = np.concatenate([pts, np.zeros((pts.shape[0], 1))], axis=1)
        (out / f"scan_{k:06d}.bin").write_bytes(pts.astype("<f4").tobytes())
        pose_rows.append(" ".join(repr(float(v)) for v in _embed_pose_row(scan.pose)))
    (out / "poses.txt").write_text("\n".join(pose_rows) + "\n")
    traj_lines = [
        f"{float(k)!r} {float(x)!r} {float(y)!r} {float(th)!r}"
        for k, (x, y, th) in enumerate(traj)
    ]
    (out / "trajectory.txt").write_text("\n".join(traj_lines) + "\n")
    print(f"wrote {len(traj)} scans to {out}")
    return 0


# ---------------------------------------------------------------------------
# train


def _scans_to_planar(scan3d: Scan) -> Scan:
    rot = scan3d.pose.rotation
    pose2 = Pose(rot[:2, :2], scan3d.pose.translation[:2])
    return Scan(pose2, scan3d.points[:, :2])


def _dataset_scans(scans: list[Scan], dim: str) -> tuple[list[Scan], int]:
    if dim == "auto":
        planar = all(
            abs(s.pose.translation[2]) < 1e-12 and np.all(np.abs(s.points[:, 2]) < 1e-12)
            and abs(s.pose.rotation[2, 2] - 1.0) < 1e-12
            for s in scans
        )
        dim = "2" if planar else "3"
    if dim == "2":
        scans = [_scans_to_planar(s) for s in scans]
    return scans, int(dim)


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
    scans, dim = _dataset_scans(storage.load_scans(args.scans), args.dim)
    canon, tf = _canonical_rays(scans)
    net, history = train(_init_net(cfg, dim), canon, cfg.optim(), cfg.loss_weights(),
                         cfg.supervision_mode())
    out = Path(args.out)
    storage.save_model(out, net)
    storage.save_transform(out.with_suffix(out.suffix + ".transform"), tf)
    rows = [
        ",".join([str(i)] + [repr(float(v))
                             for v in (h.data, h.endpoint, h.eikonal, h.smoothness, h.total)])
        for i, h in enumerate(history)
    ]
    _write_csv(out.with_suffix(out.suffix + ".loss.csv"),
               "epoch,data,endpoint,eikonal,smoothness,total", rows)
    return 0


# ---------------------------------------------------------------------------
# field wrappers


def _load_field(model_path):
    net = storage.load_model(model_path)
    tf_path = Path(model_path).with_suffix(Path(model_path).suffix + ".transform")
    if tf_path.exists():
        tf = storage.load_transform(tf_path)
    else:
        tf = SceneTransform(np.zeros(net.dim), 1.0)
    return net, tf


def _world_field(net, tf):
    def field(points):
        return tf.scale * field_mod.evaluate_batch(net, tf.to_canonical(points))

    return field


def _world_box(tf: SceneTransform) -> Aabb:
    return Aabb(tf.center - tf.scale, tf.center + tf.scale)


# ---------------------------------------------------------------------------
# mesh


def cmd_mesh(args) -> int:
    cfg = _load_run_config(args)
    net, tf = _load_field(args.model)
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


def _content_box(scene, pad: float = 0.0) -> Aabb:
    box = scenes.scene_bounds(scene, pad)
    if box is None:
        raise ValueError("scene has no bounded primitive (only planes), so there is "
                         "no region to sample or orbit; add a sphere, box or polygon")
    return box


def _band_samples(scene, band: float, count: int, seed: int) -> np.ndarray:
    """Up to ``count`` points with |sdf| < band around the scene's bounded content."""
    rng = np.random.default_rng(seed)
    box = _content_box(scene, pad=2.0 * band)
    kept = []
    total = 0
    for _ in range(200):
        pts = rng.uniform(box.lo, box.hi, size=(count, scene.dim))
        d = scene.sdf(pts)
        sel = pts[np.abs(d) < band]
        if sel.shape[0]:
            kept.append(sel)
            total += sel.shape[0]
        if total >= count:
            break
    if not kept:
        raise ValueError("no samples found inside the evaluation band")
    return np.concatenate(kept, axis=0)[:count]


def _score_vs_oracle(field, grad_fn, scene, pts: np.ndarray):
    truth = scene.sdf(pts)
    pred = np.asarray(field(pts), dtype=np.float64)
    err = pred - truth
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    gnorm = np.linalg.norm(grad_fn(pts), axis=1)
    eik = float(np.mean(np.abs(gnorm - 1.0)))
    return mae, rmse, eik


def _model_eval_fns(net, tf):
    field = _world_field(net, tf)

    def grads(pts):
        _, g = field_mod.grad_batch(net, tf.to_canonical(pts))
        return g  # world gradient: scale cancels against the chain rule

    return field, grads


def _oracle_eval_fns(scene):
    def grads(pts):
        _, g, _ = scene.jet(pts)
        return g

    return scene.sdf, grads


def cmd_eval_sdf(args) -> int:
    cfg = _load_run_config(args)
    scene = scenes.parse_scene_file(args.scene)
    band = args.band if args.band is not None else EVAL_BAND
    if args.model == "oracle":
        field, grads = _oracle_eval_fns(scene)
    else:
        net, tf = _load_field(args.model)
        if net.dim != scene.dim:
            raise ValueError(f"model is {net.dim}D but scene is {scene.dim}D")
        field, grads = _model_eval_fns(net, tf)
    pts = _band_samples(scene, band, args.samples, cfg.seed)
    mae, rmse, eik = _score_vs_oracle(field, grads, scene, pts)
    _write_csv(args.out, "metric,value",
               [f"mae,{mae!r}", f"rmse,{rmse!r}", f"eikonal_mean,{eik!r}"])
    return 0


# ---------------------------------------------------------------------------
# localize


def _read_trajectory(path) -> np.ndarray:
    rows = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        s = line.strip()
        if not s:
            continue
        parts = s.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{ln}: expected 't x y theta'")
        rows.append([float(v) for v in parts[1:]])
    if not rows:
        raise ValueError(f"{path}: empty trajectory")
    return np.asarray(rows)


def _map_box(traj: np.ndarray, scans_xy) -> Aabb:
    """Cover the trajectory and every world-frame endpoint, lightly padded."""
    pts = [traj[:, :2]]
    for (x, y, th), z in zip(traj, scans_xy):
        c, s = np.cos(th), np.sin(th)
        pts.append(np.stack([x + c * z[:, 0] - s * z[:, 1],
                             y + s * z[:, 0] + c * z[:, 1]], axis=1))
    allp = np.concatenate(pts, axis=0)
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    pad = 0.05 * float(np.max(hi - lo)) + 1e-9
    return Aabb(lo - pad, hi + pad)


def _localization_field(args, cfg: RunConfig, data_box: Aabb):
    """2D observation field over the map box, from --model or --scene."""
    if args.model is not None:
        net, tf = _load_field(args.model)
        if net.dim != 2:
            raise ValueError("localization needs a 2D model")
        box = _world_box(tf)
        base = _world_field(net, tf)
    else:
        scene = scenes.parse_scene_file(args.scene)
        if scene.dim != 2:
            raise ValueError("localization needs a 2D scene")
        box = data_box
        base = scene.sdf
    grid = mcl_mod.SampledField2D.from_field(base, box, cfg.field_grid_res)
    return grid, box


def _run_localization(field, box, traj, scans_xy, cfg: RunConfig):
    mcl_cfg = cfg.mcl()
    deltas = mcl_mod.relative_deltas(traj)
    results = []
    for r in range(mcl_cfg.runs):
        rng = np.random.default_rng([cfg.seed, r])
        results.append(mcl_mod.localize_run(field, box, deltas, scans_xy, mcl_cfg, rng))
    return results, mcl_mod.run_metrics(traj[:, :2], results)


def cmd_localize(args) -> int:
    cfg = _load_run_config(args)
    if (args.model is None) == (args.scene is None):
        raise ValueError("pass exactly one of --model or --scene")
    traj = _read_trajectory(Path(args.data) / "trajectory.txt")
    scans = storage.load_scans(args.data)
    if len(scans) != traj.shape[0]:
        raise ValueError(f"{len(scans)} scans but {traj.shape[0]} trajectory rows")
    scans_xy = [s.points[:, :2] for s in scans]
    field, box = _localization_field(args, cfg, _map_box(traj, scans_xy))
    results, metrics = _run_localization(field, box, traj, scans_xy, cfg)
    conv = sum(1 for r in results if r.converged_at is not None)
    if metrics is None:
        row = f"{len(results)},{conv},-,-"
    else:
        row = f"{len(results)},{conv},{metrics.rmse!r},{metrics.mae!r}"
    _write_csv(args.out, "runs,converged,rmse,mae", [row])
    return 0


# ---------------------------------------------------------------------------
# compare


def _auto_orbit(scene, steps: int) -> str:
    """Pick a free-space circular trajectory around the scene's content."""
    bounds = _content_box(scene)
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
    traj_spec = args.traj if args.traj is not None else _auto_orbit(scene, args.poses)
    traj = trajectory_poses(traj_spec)
    pts = _band_samples(scene, EVAL_BAND, args.samples, cfg.seed)
    scans = _synthesize_dataset(scene, traj, cfg)
    canon, tf = _canonical_rays(scans)
    scans_xy = [s.points for s in scans] if scene.dim == 2 else None

    rows = []
    for mode in (SupervisionMode.RAY_DISTANCE, SupervisionMode.CLOSEST_NORMAL,
                 SupervisionMode.CURVATURE_CONSTRAINED):
        net = _init_net(cfg, scene.dim)
        net, _ = train(net, canon, cfg.optim(), cfg.loss_weights(), mode)
        field, grads = _model_eval_fns(net, tf)
        mae, rmse, _ = _score_vs_oracle(field, grads, scene, pts)
        mcl_rmse = mcl_mae = None
        if scene.dim == 2:
            grid = mcl_mod.SampledField2D.from_field(field, _world_box(tf), cfg.field_grid_res)
            _, metrics = _run_localization(grid, _world_box(tf), traj, scans_xy, cfg)
            if metrics is not None:
                mcl_rmse, mcl_mae = metrics.rmse, metrics.mae
        rows.append(
            f"{MODE_LABELS[mode]},{_fmt(mae)},{_fmt(rmse)},{_fmt(mcl_rmse)},{_fmt(mcl_mae)}"
        )
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
        p.add_argument("--config", default=None, help="key=value run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="cap worker threads")
        if mode_flag:
            p.add_argument("--mode", choices=["ray", "dcn", "curvature"], default=None,
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
    p.add_argument("--dim", choices=["auto", "2", "3"], default="auto")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mesh", help="extract the zero isosurface of a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--res", type=int, default=None, help="cells per axis")
    p.add_argument("--out", required=True, help="output PLY path")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("eval-sdf", help="compare a model (or 'oracle') against a scene")
    common(p)
    p.add_argument("--model", required=True, help="checkpoint path, or 'oracle'")
    p.add_argument("--scene", required=True)
    p.add_argument("--band", type=float, default=None,
                   help="half-width of the scored near-surface band, world metres "
                        f"(default {EVAL_BAND})")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--out", default=None, help="CSV path (also printed)")
    p.set_defaults(func=cmd_eval_sdf)

    p = sub.add_parser("localize", help="run Monte Carlo localization on a dataset")
    common(p)
    p.add_argument("--model", default=None, help="2D checkpoint path")
    p.add_argument("--scene", default=None, help="oracle scene stand-in for the map")
    p.add_argument("--data", required=True, help="dataset directory with trajectory.txt")
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
