"""The benchmark's traced run (``mpcbench/run.py --trace 1``) ends in one
strict-JSON result line: every episode correct, none failed, and every
per-layer metric that BENCHMARK.json names present and finite.

``json.dumps`` writes a non-finite float as ``NaN`` or ``Infinity``, which is
not JSON, and a metric whose traced name is gone is dropped from the result;
either way the last line stops being a result. The run writes its files to
the git-ignored ``mpcbench_out/``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_a_strict_json_result(workload):
    out = subprocess.run([sys.executable, str(ROOT / "mpcbench" / "run.py"),
                          "--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", "1"],
                         capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=_not_json)
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    metrics = result["metrics"]
    for name in (m["name"] for m in BENCHMARK["per_layer"]):
        assert name in metrics, (name, out.stderr)
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
