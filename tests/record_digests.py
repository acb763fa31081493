"""Digests of the canonical run records a behaviour-preserving change must keep.

Runs 400 episodes: seeds 0-99 of each of the three methods on the default
config, and seeds 0-99 of granular with the obstacle in the adjacent lane
(``obstacle.obstacle_start=[6,-3]``, the benchmark's granular-cruise). Prints
the sha256 of each episode's ``canonical_record_bytes``, one line each, then
one outcome line per battery (passes, reached, collided, mean cumulative
cost, ``violating`` steps, softened steps, QP iterations and SQP
iterations), then the sha256 of the sorted map from episode to digest. Two
trees whose last lines agree write the same records; the outcome lines
compare two trees that do not.

    PYTHONPATH=src python tests/record_digests.py

It takes no options and pytest does not collect it. It takes a few minutes
on one core.
"""

import hashlib
import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from granmpc import ocp, scenario as sc, simulate  # noqa: E402

SEEDS = range(100)


def outcome(name: str, records) -> str:
    entries = [e for r in records for e in r.entries]
    return (f"{name}: passed {sum(r.passed for r in records)}"
            f" reached {sum(r.reached for r in records)}"
            f" collided {sum(r.collided for r in records)}"
            f" mean_cost {np.mean([r.cumulative_cost for r in records]):.4f}"
            f" violating {sum(e.status == 'violating' for e in entries)}"
            f" softened {sum(e.softened for e in entries)}"
            f" qp_iterations {sum(e.qp_iterations for e in entries)}"
            f" sqp_iterations {sum(e.sqp_iterations for e in entries)}")


def main() -> None:
    default = sc.load_config(None)
    cruise = default.with_overrides({"obstacle.obstacle_start": "[6,-3]"})
    batteries = [(m, default, m) for m in simulate.METHODS]
    batteries.append(("granular-cruise", cruise, "granular"))
    digests, outcomes = {}, []
    for name, cfg, method in batteries:
        setup = ocp.MethodSetup.build(cfg, method)
        records = []
        for seed in SEEDS:
            records.append(simulate.run_closed_loop(cfg, method, seed, setup=setup))
            key = f"{name} {seed}"
            digests[key] = hashlib.sha256(simulate.canonical_record_bytes(records[-1])).hexdigest()
            print(key, digests[key], flush=True)
        outcomes.append(outcome(name, records))
    print("\n".join(outcomes))
    blob = json.dumps(digests, sort_keys=True).encode()
    print("map", hashlib.sha256(blob).hexdigest())


if __name__ == "__main__":
    main()
