"""Single-thread pins for BLAS and OpenMP.

Call ``pin_threads()`` before numpy is imported. Child processes inherit the
pins through the environment.
"""

import os

PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(PINS)
