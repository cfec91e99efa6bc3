"""In-memory span tracer for the benchmark's traced run.

A span is (name, start, end, parent).  Spans come from wrappers installed on
the attribute a caller looks a function up through: a module that did
``from .training import train`` calls its own ``train`` global, so the
wrapper goes on that module, not on ``training``.  Nothing under ``src/`` is
edited; ``restore`` puts every original back.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, owner, attr: str, name: str, count=None, before=None) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` returns {counter: increment} and runs
        inside the span.  ``before(args, kwargs)`` may return replacement
        arguments.  Returns False, and wraps nothing, if the attribute is gone.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if count is not None:
                    for key, inc in count(args, kwargs, result).items():
                        self.counts[key] += inc
                return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), kids in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += (end - start) - kids
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def layer_self(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer, the layer being the span name's first part."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return dict(out)
