"""The benchmark's own tests: span arithmetic, wrapping, and a tiny smoke run.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from spans import Tracer, layer_self

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9].
    tr = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    with tr.span("x.a"):
        with tr.span("y.b"):
            with tr.span("y.c"):
                pass
        with tr.span("z.d"):
            pass
    summ = tr.summary()
    assert summ["x.a"] == {"calls": 1, "incl_s": 10.0, "self_s": 3.0}
    assert summ["y.b"] == {"calls": 1, "incl_s": 3.0, "self_s": 2.0}
    assert summ["y.c"]["self_s"] == 1.0
    assert summ["z.d"]["self_s"] == 4.0
    assert layer_self(summ) == {"x": 3.0, "y": 3.0, "z": 4.0}
    assert [r["parent"] for r in tr.records()] == [-1, 0, 1, 0]


def test_wrapper_goes_where_the_caller_looks_the_function_up():
    lib = types.ModuleType("lib")
    lib.f = lambda x: x + 1
    caller = types.ModuleType("caller")
    caller.f = lib.f  # as after "from lib import f"
    exec("def g(x):\n    return f(x)\n", caller.__dict__)

    tr = Tracer(clock=fake_clock(*range(100)))
    tr.wrap(lib, "f", "lib.f")
    assert caller.g(1) == 2
    assert tr.spans == []  # the caller never reads lib.f

    tr.wrap(caller, "f", "lib.f", count=lambda a, k, r: {"lib.rows": a[0]})
    assert caller.g(5) == 6
    assert [s[0] for s in tr.spans] == ["lib.f"]
    assert tr.counts["lib.rows"] == 5
    assert not tr.wrap(caller, "missing", "lib.missing")

    tr.restore()
    assert caller.f is lib.f
    assert lib.f(0) == 1 and not hasattr(lib.f, "__wrapped__")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["room3d", "room2d"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "room3d", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
