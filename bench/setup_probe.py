"""Set-up cost as a user pays it: a fresh interpreter imports curvex (as
every CLI invocation does) and builds one workload's inputs with the
oracle.  Prints the elapsed seconds.  Run by run.py with PYTHONPATH set
to the checkout's src and bench directories:

    python3 bench/setup_probe.py WORKLOAD SEED N_JOBS OUTDIR
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import curvex.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.build_jobs(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]))
print(f"{time.perf_counter() - START:.9f}")
