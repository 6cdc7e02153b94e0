"""Module entry point: ``python -m repro``.

BLAS thread pools default to one thread here, before anything loads
NumPy: the GP's small LAPACK calls run several times slower on a
multi-threaded OpenBLAS pool.  A value the user set is kept.
"""

import os
import sys

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
