"""Run the tests on single-threaded BLAS, as planbench/run.py runs the solver.

The dense simplex's matrix products round differently per thread split, and
on degenerate masters Dantzig's ties follow the rounding, so the LP pins
hold for one thread count only.  BLAS reads these variables once, when
numpy is first imported; hence the check that nothing imported it yet.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
