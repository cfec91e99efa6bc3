"""Command-line launcher: ``python -m scanfield`` and the ``scanfield`` script.

OpenBLAS and OpenMP size their thread pools once, when numpy is first
imported, so ``--threads`` can only cap them if it reaches the environment
before ``scanfield.cli`` (which imports numpy) is imported.  This module reads
the flag with the standard library alone, sets the thread variables, and then
hands the full argument list to ``cli.main``, which validates it as usual.

Before that it fixes glibc's malloc thresholds.  By default glibc serves
each allocation above its dynamic mmap threshold with a fresh ``mmap`` and
trims the heap top when it frees, so every row block of a field pass faults
its block-sized temporaries back in page by page.  Fixed thresholds keep
freed blocks in the heap for the next block to reuse: on the room3d benchmark
data (2-vCPU x86-64 VM, one BLAS thread) a ``train`` run drops from 0.45-1.13
million minor page faults to 17 thousand, and from 0.6-1.7 s of system time
to under 0.1 s.
"""

import argparse
import ctypes
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's mallopt parameters, and the values set for them: 32 MiB is the
# largest mmap threshold glibc accepts on 64-bit hosts.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def keep_freed_memory() -> None:
    """Set glibc's mmap and trim thresholds; a no-op where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--threads", nargs="?")
    try:
        threads = int(pre.parse_known_args(argv)[0].threads)
    except (TypeError, ValueError):
        threads = 0  # absent or malformed; cli.main reports the latter
    if threads >= 1:
        for var in THREAD_VARS:
            os.environ[var] = str(threads)
    keep_freed_memory()
    from scanfield import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
