"""Benchmark entry point.

    python3 perfbench/run.py --workload tree-value --seed 7 --seconds 25 --trace 0

Prints a human-readable report and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import os
import sys

import harness

if __name__ == "__main__":
    # Pin native thread pools before numpy loads, here and in the set-up
    # processes that inherit this environment, so load never exceeds nproc.
    for var in harness.THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and the set-up processes it starts: moving
    # between the two cores of the host made set-up times spread by a third.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(harness.main())
