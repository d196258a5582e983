"""Pin BLAS to one thread before numpy is first imported.

The suite's many small LAPACK calls (the eigendecompositions of ``sos_check``
above all) run far slower on a thread pool than on one thread: on a 2-core
machine ``test_rank_deficient_feasible_family[8-502]`` takes 28 s with two
OpenBLAS threads and 0.9 s with one.  The benchmark's workers set the same
variables.  ``setdefault`` leaves a value given in the environment alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
