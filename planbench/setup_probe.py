"""Print the seconds a fresh process takes to import bootplan and serve one request.

    python3 planbench/setup_probe.py --workload lp-dense

The request is the first one of the workload's first instance at seed 0,
whatever seed the run measures: one instance's cost spreads between seeds
far more than the import does, and set-up time is meant to show work
moved into the import or the first call.  The input is generated before
the clock starts, so only the import and the request are timed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SEED = 0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    inst = workloads.WORKLOADS[args.workload](SETUP_SEED, count=1)[0]
    req = inst.requests[0]
    start = time.perf_counter()
    import serve  # imports bootplan, and with it numpy

    if req.kind == "solve":
        serve.solve(inst.text, inst.level, req.method)
    else:
        serve.check(inst.text, req.marks_text, inst.level)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
