"""Command-line launcher: ``python -m scanfield`` and the ``scanfield`` script.

The field runs a pass's row blocks on a pool of up to ``--threads`` threads
(``field.set_threads``), so BLAS and OpenMP must not add threads of their
own inside each block.  They size their pools once, when numpy is first
imported, so this module pins them to one thread through the environment
before ``scanfield.cli`` (which imports numpy) is imported, and then hands the
argument list to ``cli.main``, which validates it as usual.

Before that it fixes glibc's malloc thresholds.  By default glibc serves
each allocation above its dynamic mmap threshold with a fresh ``mmap`` and
trims the heap top when it frees, so every row block of a field pass faults
its block-sized temporaries back in page by page.  Fixed thresholds keep
freed blocks in the heap for the next block to reuse: on the room3d benchmark
data (2-vCPU x86-64 VM, one BLAS thread) a ``train`` run drops from 0.45-1.13
million minor page faults to 17 thousand, and from 0.6-1.7 s of system time
to under 0.1 s.

This module imports nothing beyond the standard library, so that ``field``
can take ``mallopt`` and ``available_cpus`` from it as well.
"""

import ctypes
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's mallopt parameters, and the values set for them: 32 MiB is the
# largest mmap threshold glibc accepts on 64-bit hosts.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def mallopt(*settings: tuple[int, int]) -> None:
    """glibc's ``mallopt(param, value)`` for each pair in turn; a no-op where
    ``mallopt`` is missing."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    for param, value in settings:
        fn(param, value)


def keep_freed_memory() -> None:
    """Set glibc's mmap and trim thresholds; a no-op where ``mallopt`` is missing."""
    mallopt((M_MMAP_THRESHOLD, MMAP_THRESHOLD), (M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    keep_freed_memory()
    from scanfield import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
