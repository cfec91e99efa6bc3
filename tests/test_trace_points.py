"""The benchmark's traced run finds every function it wraps.

``spans.Tracer.wrap`` skips an attribute that is gone and records nothing
for it, so deleting or re-importing a traced name in ``src/`` would zero a
per-layer metric without any other failure.  This test catches that."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import harness  # noqa: E402
import spans  # noqa: E402
from scanfield import training  # noqa: E402


class RecordingTracer(spans.Tracer):
    def __init__(self):
        super().__init__()
        self.installed: list[tuple[str, bool]] = []

    def wrap(self, owner, attr, name, **kwargs):
        ok = super().wrap(owner, attr, name, **kwargs)
        self.installed.append((name, ok))
        return ok


def test_every_trace_point_is_installed():
    original = training.batch_loss
    tracer = RecordingTracer()
    try:
        harness.install(tracer)
    finally:
        tracer.restore()
    assert tracer.installed
    assert [name for name, ok in tracer.installed if not ok] == []
    assert training.batch_loss is original
