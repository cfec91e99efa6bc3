"""Command-line launcher: ``python -m scanfield`` and the ``scanfield`` script.

The field runs a pass's row blocks on a pool of up to ``--threads`` threads
(``field.set_threads``), so BLAS and OpenMP must not add threads of their
own inside each block.  They size their pools once, when numpy is first
imported, so this module, the only code that pins them, sets them to one
thread through the environment before ``scanfield.cli`` (which imports numpy)
is imported, and then hands the argument list to ``cli.main``, which
validates it as usual.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from scanfield import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
