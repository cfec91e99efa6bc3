"""Command-line launcher: ``python -m scanfield`` and the ``scanfield`` script.

OpenBLAS and OpenMP size their thread pools once, when numpy is first
imported, so ``--threads`` can only cap them if it reaches the environment
before ``scanfield.cli`` (which imports numpy) is imported.  This module reads
the flag with the standard library alone, sets the thread variables, and then
hands the full argument list to ``cli.main``, which validates it as usual.
"""

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
    from scanfield import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
