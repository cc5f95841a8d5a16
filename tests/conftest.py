"""Test-session set-up: pin BLAS and OpenMP to one thread.

This file runs before any test module imports numpy, which reads these
variables once at load.  The suite's matrices are small to mid-size; on them
a second BLAS thread costs far more CPU time than it saves in wall time.  A
value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
