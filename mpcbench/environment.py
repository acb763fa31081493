"""Imported first by the benchmark's entry points.

Pins BLAS to one thread before numpy is imported, so that a run uses one
core and its CPU time is not spread over idle BLAS workers, and puts the
checkout's ``src/`` ahead of any installed granmpc.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "granmpc" / "__init__.py").is_file():
    sys.exit(f"mpcbench: no granmpc sources under {SRC}")
sys.path.insert(0, str(SRC))
