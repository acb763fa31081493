"""The benchmark's workloads: scenario, method, expected outcome, and the
episode seeds a run takes from its --seed.

Every round of a run replays the same episode seeds. They are drawn from
pools of seeds whose episodes were checked beforehand, so a draw never picks
an episode that fails by chance; a program change that makes one of them
fail shows as a failed episode. Where the episodes of a pool differ much in
work, the pool is split into strata and each round draws the same number
from each, so that a run's figures do not depend on the luck of the draw:

- granular-overtake: seeds 0-99 in terciles of QP iterations per episode
  (10.9k-12.0k, 12.0k-13.7k, 13.7k-16.4k, counted when the benchmark was
  written); episodes of one tercile differ by up to 15% in work, across
  terciles by 50%. granular-cruise needs no strata: its episodes' QP
  iterations lie within 1.5% of each other.
- rmpc-overtake: seeds 100-135 by terminal status (one that overtakes and
  reaches the target, two that stay behind the obstacle until max-steps),
  because a 36-step and a 100-step episode differ twofold in cost and
  threefold in CPU time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from granmpc import scenario as sc

OVERTAKE_QP_TERCILES = (
    (1, 6, 7, 10, 11, 12, 14, 16, 19, 28, 29, 35, 36, 37, 39, 43, 44, 46, 48, 49, 51, 53, 65,
     66, 70, 75, 82, 84, 85, 86, 89, 95, 96, 99),
    (0, 3, 4, 5, 15, 20, 21, 23, 24, 27, 40, 41, 42, 47, 50, 52, 55, 58, 60, 64, 68, 71, 72,
     74, 76, 77, 79, 80, 87, 90, 92, 93, 98),
    (2, 8, 9, 13, 17, 18, 22, 25, 26, 30, 31, 32, 33, 34, 38, 45, 54, 56, 57, 59, 61, 62, 63,
     67, 69, 73, 78, 81, 83, 88, 91, 94, 97),
)
# single-rmpc episodes on the default scenario, by terminal status
RMPC_REACHED = (100, 101, 103, 111, 113, 114, 119, 123, 124, 125, 126, 131, 132, 133)
RMPC_MAX_STEPS = (102, 104, 105, 106, 107, 108, 109, 110, 112, 115, 116, 117, 118,
                  120, 121, 122, 127, 128, 129, 130, 134, 135)


@dataclass(frozen=True)
class Workload:
    method: str
    overrides: dict
    expect: str                  # outcome every episode must have
    draws: tuple                 # (pool, how many) pairs making one round

    def episode_seeds(self, seed: int) -> list:
        rng = random.Random(seed)
        out: list = []
        for pool, count in self.draws:
            out += rng.sample(pool, count)
        return out

    def config(self) -> sc.ScenarioConfig:
        return sc.load_config(None).with_overrides(self.overrides)


WORKLOADS = {
    # paper scenario: keep-outs bind; qp_solve takes most of the CPU
    "granular-overtake": Workload(
        "granular", {}, "reach-and-pass", tuple((t, 2) for t in OVERTAKE_QP_TERCILES)),
    # obstacle in the adjacent lane: every keep-out is assembled and
    # linearized but none binds, so per-step assembly shows
    "granular-cruise": Workload(
        "granular", {"obstacle.obstacle_start": "[6,-3]"}, "reach-and-pass",
        ((tuple(range(100)), 6),)),
    # full-horizon robust problem: long QPs, soft-fallback QPs, 30-iteration
    # steps, no chance rows
    "rmpc-overtake": Workload(
        "single-rmpc", {}, "reach-or-max-steps",
        ((RMPC_REACHED, 1), (RMPC_MAX_STEPS, 2))),
}
