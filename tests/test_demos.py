"""Every demo script imports cleanly, so a renamed or deleted name it uses
fails here rather than in a demo nobody runs.  Only module level executes:
each demo keeps its work behind a ``__main__`` guard.  The two demos that
finish in well under a second also run to completion."""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# Fast demos and a word their output must contain.
FAST_DEMOS = {"demo_oracle_scenes": "returns", "demo_target_anatomy": "curvature"}


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("name", sorted(FAST_DEMOS))
def test_fast_demo_runs(name, capsys):
    _load(DEMO_DIR / f"{name}.py").main()
    assert FAST_DEMOS[name] in capsys.readouterr().out
