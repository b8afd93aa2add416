"""Pin BLAS to one thread before numpy loads.

With default threading, OpenBLAS runs matmuls above a size threshold on
every core and waits for a busy one, so the suite's run time would
depend on the load of the host, and the thread count can change the
last bit of a float32 sum. The benchmark pins the same three variables.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS threads"
    )

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
