"""Benchmark entry point.

Run from the repository root:

    python3 benchmarks/run.py --workload room3d --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer ones.  A full record
of each run is written to ``.bench_out/``.  See ``benchmarks/README.md``.
"""

import os
import sys
from pathlib import Path

# Read by OpenBLAS/OpenMP when numpy loads, so set before any import of it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "scanfield" / "cli.py").is_file():
        print(f"error: no scanfield sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]
    import harness

    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
