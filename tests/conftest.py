import threading

import pytest

from scanfield import field


@pytest.fixture
def threads():
    """``field.set_threads``, with the thread count put back afterwards."""
    before = field._threads
    yield field.set_threads
    field.set_threads(before)


class Meeting:
    """Call on each block: the first call on each of the first two threads
    waits for the other, so a pooled pass passes only if two threads each
    run a block.  Later calls, and other threads, go straight through.
    ``threads`` holds every thread that called."""

    def __init__(self, timeout: float = 60.0):
        self.barrier = threading.Barrier(2, timeout=timeout)
        self.lock = threading.Lock()
        self.threads: set[int] = set()

    def __call__(self) -> None:
        me = threading.get_ident()
        with self.lock:
            first = me not in self.threads and len(self.threads) < 2
            self.threads.add(me)
        if first:
            self.barrier.wait()


@pytest.fixture
def meeting():
    """A factory of ``Meeting``s."""
    return Meeting
