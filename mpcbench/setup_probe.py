"""Set-up cost of one granmpc invocation, measured in a fresh interpreter.

    python3 mpcbench/setup_probe.py <workload>

Imports granmpc, builds the workload's config and its ocp.MethodSetup (tube,
membership rows, covariance schedule), and prints the CPU seconds the
process has used since the interpreter started.
"""

import environment  # noqa: F401  (pins BLAS threads before numpy loads)

import sys
import time

from granmpc import ocp, simulate  # noqa: F401  (what a run imports)

from workloads import WORKLOADS

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]]
    ocp.MethodSetup.build(wl.config(), wl.method)
    print(repr(time.process_time()))
