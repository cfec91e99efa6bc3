"""One benchmark run: set-up, timed CLI commands, output checks, metrics.

Everything runs in this process through ``scanfield.cli.main``.  ``run.py``
pins BLAS and OpenMP to one thread before this module imports numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
import workloads
from scanfield import cli, config, field, mcl, meshing, scenes, storage, training

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
BAND_SEED = 2412
# Quality figures every workload produces, reported as end-to-end metrics,
# and the room2d-only ones, reported in the traced run (0 where absent).
QUALITY_E2E = [("sdf_mae.curvature", "m")]
QUALITY_LAYER = [("sdf_mae.ray", "m"), ("sdf_mae.dcn", "m"), ("mcl_rmse.ray", "m"),
                 ("mcl_rmse.dcn", "m"), ("mcl_rmse.curvature", "m"), ("mcl_converged_frac", "ratio")]
COLLAPSE_TEXT = "likelihoods vanished"
MAX_BLAS_CPU_OVER_WALL = 1.5


# ---------------------------------------------------------------------------
# environment


def blas_cpu_over_wall() -> float:
    """Process CPU time over wall time across a timed matmul; about 1 when
    BLAS runs one thread, about the thread count otherwise."""
    a = np.random.default_rng(0).standard_normal((1000, 1000))
    a @ a
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for _ in range(4):
        a @ a
    return (time.process_time() - cpu0) / (time.perf_counter() - wall0)


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", {}),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# running commands


class Runner:
    """Commands of one run: counts attempts and failures, keeps their logs."""

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.nonfinite = 0
        self.log: list[dict] = []

    def cli(self, kind: str, argv: list[str]) -> dict:
        """Run one command; returns its record (ok, seconds, collapses)."""
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        self.attempted += 1
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with self.tracer.span(f"cli.{kind}") if self.tracer else nullcontext():
                    code = cli.main(argv)
            except Exception as e:  # a crash is a failed command, not a crashed benchmark
                exc = e
            seconds = time.perf_counter() - t0
            cpu_seconds = time.process_time() - c0
        rec = {
            "kind": kind,
            "argv": argv,
            "ok": code == 0,
            "seconds": seconds,
            "cpu_seconds": cpu_seconds,
            "collapses": sum(COLLAPSE_TEXT in str(w.message) for w in caught),
        }
        if exc is not None:
            rec["error"] = "".join(traceback.format_exception(exc))
            self.nonfinite += isinstance(exc, FloatingPointError)
        elif code != 0:
            rec["error"] = f"exit code {code}: {err.getvalue().strip()}"
        self.log.append(rec)
        if not rec["ok"]:
            self.failed += 1
        return rec

    def reject(self, rec: dict, why: str) -> None:
        """Mark a command that exited 0 as failed because of its output."""
        if rec["ok"]:
            rec["ok"] = False
            self.failed += 1
        rec.setdefault("error", why)


def synth(runner: Runner, wl, seed: int, work: Path, repeats: int,
          prefix: str) -> tuple[Path, list[float], list[str]]:
    """Scene parse + scan synthesis, ``repeats`` times; returns the first
    dataset, the times and a digest of each dataset written."""
    times, digests = [], []
    for k in range(repeats):
        data = work / f"{prefix}{k}"
        rec = runner.cli("synth", ["synth", "--scene", str(work / "scene.txt"), "--traj", wl.traj(seed),
                                 "--out", str(data), "--config", str(work / "run.cfg"),
                                 "--seed", str(seed)])
        if not rec["ok"]:
            raise RuntimeError(f"synth failed: {rec.get('error')}")
        times.append(rec["seconds"])
        digests.append(checks.tree_digest(data, "*"))
    return work / f"{prefix}0", times, digests


def timed_pass(runner: Runner, wl, seed: int, work: Path, data: Path, out: Path) -> list[dict]:
    out.mkdir(parents=True)
    recs = []
    for kind, mode, argv in workloads.commands(wl, seed, str(work / "run.cfg"), str(data), str(out)):
        rec = runner.cli(kind, argv)
        rec["mode"] = mode
        recs.append(rec)
    return recs


def check_pass(runner: Runner, recs: list[dict], out: Path) -> dict[str, str]:
    """Validate each command's output files; returns their hashes."""
    hashes = {}
    for rec in recs:
        if not rec["ok"]:
            continue
        mode = rec["mode"]
        if rec["kind"] == "train":
            rec["loss"] = checks.loss_rows(out / f"{mode}.bin.loss.csv")
            if not checks.all_finite(rec["loss"]):
                runner.nonfinite += 1
                runner.reject(rec, "non-finite loss in loss.csv")
                continue
            artifact = out / f"{mode}.bin"
        elif rec["kind"] == "mesh":
            artifact = out / f"{mode}.ply"
            try:
                rec["faces"] = int(storage.read_mesh_ply(artifact).triangles.shape[0])
            except (ValueError, OSError) as exc:
                runner.reject(rec, f"PLY rejected: {exc}")
                continue
        else:
            artifact = out / f"{mode}.mcl.csv"
            rec["mcl"] = checks.mcl_row(artifact)
        hashes[artifact.name] = checks.sha256(artifact)
    return hashes


def phase_seconds(recs: list[dict], kind: str) -> float:
    return sum(r["seconds"] for r in recs if r["kind"] == kind)


# ---------------------------------------------------------------------------
# tracing


def _rows(i: int, key: str):
    return lambda a, k, r: {key: np.shape(a[i])[0]}


def _targets(a, k, r):
    tau = k.get("tau", training.LossWeights().tau)
    return {
        "targets.samples": r.d_hat.shape[0],
        "targets.degenerate": int(np.sum(r.degenerate)),
        "targets.clamped": int(np.sum(r.d_hat == tau)),
    }


def install(tracer: spans.Tracer) -> None:
    """Wrap the program's public functions where their callers look them up."""
    w = tracer.wrap
    w(cli, "train", "training.train")
    w(cli, "to_world", "geom.to_world", count=lambda a, k, r: {"geom.rays": len(r)})
    w(cli, "normalize_scene", "geom.normalize_scene")
    for name in ("parse_scene_file", "simulate_scan", "sphere_trace"):
        w(scenes, name, f"scenes.{name}")
    for name in ("load_scans", "save_model", "load_model", "save_transform", "load_transform"):
        w(storage, name, f"storage.{name}")
    w(storage, "export_mesh_ply", "storage.export_mesh_ply",
      count=lambda a, k, r: {"storage.ply_bytes": os.path.getsize(a[0])})
    w(field, "init_field", "field.init_field")
    for name in ("evaluate_batch", "grad_batch", "jet_batch", "backprop"):
        w(field, name, f"field.{name}", count=_rows(1, f"field.{name}.points"))
    w(field, "encode_jet", "encoding.encode_jet", count=_rows(0, "encoding.encode_jet.points"))
    for name in ("make_batch", "batch_loss", "neighbor_pairs", "loss_terms", "adamw_step"):
        w(training, name, f"training.{name}")
    w(training, "compute_targets", "targets.compute_targets", count=_targets)

    def field_probe(fn):
        def probe(points):
            with tracer.span("meshing.field"):
                tracer.counts["meshing.field_points"] += np.shape(points)[0]
                return fn(points)
        return probe

    w(meshing, "marching_cubes", "meshing.marching_cubes",
      before=lambda a, k: ((field_probe(a[0]),) + tuple(a[1:]), k),
      count=lambda a, k, r: {"meshing.faces": r.triangles.shape[0]})
    w(meshing, "sample_grid", "meshing.sample_grid",
      count=lambda a, k, r: {"meshing.sample_grid.points": np.size(r)})
    for name in ("localize_run", "step", "motion_update", "log_likelihoods", "systematic_resample"):
        w(mcl, name, f"mcl.{name}")
    w(mcl.SampledField2D, "__call__", "mcl.lookup", count=_rows(1, "mcl.lookups"))


# Per-layer metrics: (name, unit, how it is derived).  "self" is a span
# name's self time, "incl" its inclusive time, "count" a counter.
PER_LAYER = [
    ("encoding.encode_jet.s", "s", ("self", "encoding.encode_jet")),
    ("encoding.encode_jet.points", "count", ("count", "encoding.encode_jet.points")),
    ("field.jet_batch.s", "s", ("self", "field.jet_batch")),
    ("field.jet_batch.points", "count", ("count", "field.jet_batch.points")),
    ("field.grad_batch.s", "s", ("self", "field.grad_batch")),
    ("field.grad_batch.points", "count", ("count", "field.grad_batch.points")),
    ("field.backprop.s", "s", ("self", "field.backprop")),
    ("field.backprop.points", "count", ("count", "field.backprop.points")),
    ("field.evaluate_batch.s", "s", ("self", "field.evaluate_batch")),
    ("field.evaluate_batch.points", "count", ("count", "field.evaluate_batch.points")),
    ("training.steps", "count", ("calls", "training.adamw_step")),
    ("training.train.s", "s", ("self", "training.train")),
    ("training.batch_loss.s", "s", ("self", "training.batch_loss")),
    ("training.make_batch.s", "s", ("self", "training.make_batch")),
    ("training.neighbor_pairs.s", "s", ("self", "training.neighbor_pairs")),
    ("training.loss_terms.s", "s", ("self", "training.loss_terms")),
    ("training.adamw_step.s", "s", ("self", "training.adamw_step")),
    ("training.nonfinite", "count", ("count", "training.nonfinite")),
    ("targets.compute_targets.s", "s", ("self", "targets.compute_targets")),
    ("targets.degenerate_frac", "ratio", ("ratio", "targets.degenerate", "targets.samples")),
    ("targets.clamped_frac", "ratio", ("ratio", "targets.clamped", "targets.samples")),
    ("geom.to_world.s", "s", ("self", "geom.to_world")),
    ("geom.normalize_scene.s", "s", ("self", "geom.normalize_scene")),
    ("geom.rays", "count", ("count", "geom.rays")),
    ("storage.load_scans.s", "s", ("self", "storage.load_scans")),
    ("storage.save_model.s", "s", ("self", "storage.save_model")),
    ("storage.load_model.s", "s", ("self", "storage.load_model")),
    ("storage.export_mesh_ply.s", "s", ("self", "storage.export_mesh_ply")),
    ("storage.ply_bytes", "bytes", ("count", "storage.ply_bytes")),
    ("scenes.simulate_scan.s", "s", ("self", "scenes.simulate_scan")),
    ("scenes.sphere_trace.s", "s", ("self", "scenes.sphere_trace")),
    ("meshing.marching_cubes.s", "s", ("incl", "meshing.marching_cubes")),
    ("meshing.sample_grid.s", "s", ("self", "meshing.sample_grid")),
    ("meshing.sample_grid.points", "count", ("count", "meshing.sample_grid.points")),
    ("meshing.field_points", "count", ("count", "meshing.field_points")),
    ("meshing.walk_s", "s", ("self", "meshing.marching_cubes")),
    ("meshing.faces", "count", ("count", "meshing.faces")),
    ("mcl.localize_run.s", "s", ("self", "mcl.localize_run")),
    ("mcl.step.s", "s", ("self", "mcl.step")),
    ("mcl.motion_update.s", "s", ("self", "mcl.motion_update")),
    ("mcl.log_likelihoods.s", "s", ("self", "mcl.log_likelihoods")),
    ("mcl.measurement_updates", "count", ("calls", "mcl.log_likelihoods")),
    ("mcl.lookups", "count", ("count", "mcl.lookups")),
    ("mcl.lookup_s", "s", ("self", "mcl.lookup")),
    ("mcl.systematic_resample.s", "s", ("self", "mcl.systematic_resample")),
    ("mcl.collapses", "count", ("count", "mcl.collapses")),
    ("mcl.converged_runs", "count", ("count", "mcl.converged_runs")),
]
LAYERS = ("cli", "scenes", "storage", "geom", "training", "targets", "field", "encoding",
          "meshing", "mcl")


def per_layer(tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    summ = tracer.summary()
    counts = tracer.counts

    def value(how):
        kind, key = how[0], how[1]
        row = summ.get(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        if kind == "self":
            return row["self_s"]
        if kind == "incl":
            return row["incl_s"]
        if kind == "calls":
            return row["calls"]
        if kind == "count":
            return counts.get(key, 0)
        den = counts.get(how[2], 0)
        return counts.get(key, 0) / den if den else 0.0

    out = {name: (value(how), unit) for name, unit, how in PER_LAYER}
    layers = spans.layer_self(summ)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    return out


def coverage(tracer: spans.Tracer) -> dict[str, float]:
    """Per command kind: share of its time spent in spans below the CLI."""
    summ = tracer.summary()
    return {
        name.split(".", 1)[1]: 1.0 - row["self_s"] / row["incl_s"]
        for name, row in summ.items()
        if name.startswith("cli.") and name != "cli.synth"
    }


# ---------------------------------------------------------------------------
# one run


def parse_args(argv):
    p = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="repeat the timed commands until this much time has passed (at least once)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'tiny' is for the benchmark's own smoke test")
    return p.parse_args(argv)


def registry_check(key: str, hashes: dict[str, str]) -> bool:
    """Compare artifact hashes with earlier runs under the same key
    (workload definition, seed, program source); record them if first."""
    path = OUT / "hashes.json"
    reg = json.loads(path.read_text()) if path.exists() else {}
    seen = reg.get(key)
    if seen is None:
        reg[key] = hashes
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reg, indent=1, sort_keys=True))
        tmp.replace(path)
        return True
    return seen == hashes


def run(args) -> dict:
    wl = workloads.WORKLOADS[(args.workload, args.size)]
    cfg = config.parse_config(wl.config)
    scene = scenes.parse_scene_text(wl.scene)
    work = OUT / "work" / f"{wl.name}-{args.size}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, wl, cfg, scene, work)
    finally:
        shutil.rmtree(work)


def measure(args, wl, cfg, scene, work: Path) -> dict:
    (work / "scene.txt").write_text(wl.scene)
    (work / "run.cfg").write_text(wl.config)
    problems: list[str] = []
    env = environment()
    env["blas_cpu_over_wall"] = blas_cpu_over_wall()
    if env["blas_cpu_over_wall"] > MAX_BLAS_CPU_OVER_WALL:
        problems.append(f"BLAS is not pinned: cpu/wall {env['blas_cpu_over_wall']:.2f}")

    runner = Runner()
    data, setup_times, digests = synth(runner, wl, args.seed, work, SETUP_REPEATS, "data")
    rays = sum(p.stat().st_size for p in data.glob("*.bin")) // 12
    points = len(wl.modes) * cfg.epochs * rays * cfg.samples_per_ray

    # Untraced passes until --seconds have passed; a traced run makes one.
    passes = []
    t_start = time.perf_counter()
    while not passes or (not args.trace and time.perf_counter() - t_start < args.seconds):
        out = work / f"pass{len(passes)}"
        recs = timed_pass(runner, wl, args.seed, work, data, out)
        passes.append((out, recs, check_pass(runner, recs, out)))
    # Set up again after the passes, so that the set-up median samples the
    # host's speed at both ends of the run rather than in one second.
    _, late_times, late_digests = synth(runner, wl, args.seed, work, SETUP_REPEATS, "late")
    setup_times += late_times
    if len(set(digests + late_digests)) != 1:
        problems.append("repeated synth runs wrote different datasets")
    train_s = statistics.median([phase_seconds(r, "train") for _, r, _ in passes])
    query_s = statistics.median([phase_seconds(r, wl.query) for _, r, _ in passes])
    walls = [phase_seconds(r, "train") + phase_seconds(r, wl.query) for _, r, _ in passes]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "train_pts_per_s": (points / train_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }

    tracer = traced = None
    if args.trace:
        tracer = spans.Tracer()
        traced = Runner(tracer)
        install(tracer)
        try:
            tdata, _, _ = synth(traced, wl, args.seed, work, 1, "traced_data")
            out = work / "traced_pass"
            trecs = timed_pass(traced, wl, args.seed, work, tdata, out)
        finally:
            tracer.restore()
        passes.append((out, trecs, check_pass(traced, trecs, out)))

    # Determinism: every pass, and earlier runs of this seed and source, agree.
    attempted = runner.attempted + (traced.attempted if traced else 0)
    failed = runner.failed + (traced.failed if traced else 0)
    first = passes[0][2]
    if any(h != first for _, _, h in passes):
        problems.append("passes of one run wrote different checkpoints, meshes or tables")
    key = "/".join([wl.name, args.size, f"seed{args.seed}",
                    "src-" + checks.tree_digest(ROOT / "src", "*.py")[:16],
                    "workload-" + hashlib.sha256(repr(wl).encode()).hexdigest()[:16]])
    if failed == 0 and not registry_check(key, first):
        problems.append("artifacts differ from an earlier run of the same seed and source")

    # Quality of the first pass's models on a fixed band sample, split into
    # the free side, which rays observe, and the inside of walls and solids.
    out0, recs0, _ = passes[0]
    band = checks.band_sample(scene, wl.region, wl.band, wl.band_samples,
                              np.random.default_rng(BAND_SEED))
    truth = scene.sdf(band)
    free = truth >= 0.0
    quality = {}
    for rec in recs0:
        mode = rec["mode"]
        if rec["ok"] and rec["kind"] == "train":
            err = checks.sdf_errors(out0 / f"{mode}.bin", band, truth)
            quality[f"sdf_mae.{mode}"] = float(np.mean(err[free]))
            quality[f"sdf_mae_inside.{mode}"] = float(np.mean(err[~free]))
        if rec["ok"] and rec["kind"] == "localize":
            quality[f"mcl_rmse.{mode}"] = rec["mcl"]["rmse"]
            quality["mcl_converged_frac"] = quality.get("mcl_converged_frac", 0.0) + (
                rec["mcl"]["converged"] / rec["mcl"]["runs"] / len(wl.modes))
    if not all(math.isfinite(v) for v in quality.values() if v is not None):
        problems.append("non-finite SDF error")
    for name, unit in QUALITY_E2E:
        if name in quality:
            end_to_end[name] = (quality[name], unit)

    result = {
        "workload": wl.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "env": env, "problems": problems, "rays": rays, "train_points": points,
        "setup_times": setup_times, "passes": len(walls), "hashes": first,
        "train_s": train_s, "query_s": query_s,
        "quality": quality, "end_to_end": end_to_end,
        "commands": runner.log + (traced.log if traced else []),
    }
    metrics = end_to_end
    if tracer is not None:
        tracer.counts["mcl.collapses"] = sum(r["collapses"] for r in trecs)
        tracer.counts["mcl.converged_runs"] = sum(
            r["mcl"]["converged"] for r in trecs if r["kind"] == "localize" and r["ok"])
        tracer.counts["training.nonfinite"] = traced.nonfinite
        cov = coverage(tracer)
        metrics = per_layer(tracer)
        metrics["cli.query_s"] = (query_s, "s")
        metrics["trace.coverage"] = (min(cov.values()), "ratio")
        metrics["trace.overhead_s"] = (
            phase_seconds(trecs, "train") + phase_seconds(trecs, wl.query) - end_to_end["wall_s"][0], "s")
        for name, unit in QUALITY_LAYER:
            metrics[f"quality.{name}"] = (quality.get(name) or 0.0, unit)
        result.update(per_layer=metrics, coverage=cov)
        (OUT / f"spans-{wl.name}-{args.size}-seed{args.seed}.json").write_text(
            json.dumps(tracer.records()))
    result["summary"] = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    return result


def main(argv) -> int:
    args = parse_args(argv)
    result = run(args)
    env = result["env"]
    print(f"# {result['workload']} seed {result['seed']} on {env['host']} ({env['nproc']} cpus), "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas cpu/wall {env['blas_cpu_over_wall']:.2f}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    for name, sha in sorted(result["hashes"].items()):
        print(f"# sha256 {name} {sha}")
    for name, v in sorted(result["quality"].items()):
        print(f"# quality {name} {v}")
    print(json.dumps(result["summary"]))
    return 0
