"""Command-line launcher: ``python -m scanfield`` and the ``scanfield`` script.

The field runs a pass's row blocks on a pool of up to ``--threads`` threads
(``field.set_threads``), so BLAS and OpenMP must not add threads of their
own inside each block.  They size their pools once, when numpy is first
imported, so this module, the only code that pins them, sets them to one
thread through the environment before ``scanfield.cli`` (which imports numpy)
is imported, and then hands the argument list to ``cli.main``, which
validates it as usual.

Before that it fixes glibc's malloc thresholds.  By default glibc serves
each allocation above its dynamic mmap threshold with a fresh ``mmap`` and
trims the heap top when it frees, so every row block of a field pass faults
its block-sized temporaries back in page by page.  Fixed thresholds keep
freed blocks in the heap for the next block to reuse.  In eight alternating
pairs of ``python -m scanfield train --seed 0`` on the room3d benchmark's
scene and config, orbit start 0 (2-vCPU x86-64 VM, one BLAS thread, the
default two field threads), a run took 61-130 thousand minor page faults and
0.33-0.57 s of system time without the thresholds, and 18 thousand and
0.17-0.29 s with them; the wall-time ranges overlapped.

This module imports nothing beyond the standard library, so that ``field``
can take ``mallopt`` from it as well.
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    keep_freed_memory()
    from scanfield import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
