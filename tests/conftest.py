"""Suite-wide settings.

BLAS runs on one thread, set here before any test module imports numpy.  The
suite's matrices are small, and a multi-threaded BLAS spins its waiting
threads, so on a machine whose other cores are busy the default thread count
makes the suite several times slower without changing a result.  A variable
already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
