"""Each benchmark check accepts a real episode and rejects that episode
corrupted in the one way the check guards against.

    PYTHONPATH=src python -m pytest -q mpcbench/test_checks.py
"""

import copy

import numpy as np
import pytest

import environment  # noqa: F401  (puts the checkout's src/ on the path)
from granmpc import ocp, simulate

import checks
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def episode():
    wl = WORKLOADS["granular-cruise"]
    cfg = wl.config()
    setup = ocp.MethodSetup.build(cfg, wl.method)
    return cfg, simulate.run_closed_loop(cfg, wl.method, 0, setup=setup)


def _perturb_state(rec, cfg):
    rec.entries[5].x[0] += 1e-6


def _big_disturbance(rec, cfg):
    rec.entries[3].d[1] = 1.5 * cfg.disturbance_bound


def _obstacle_jump(rec, cfg):
    rec.entries[4].obstacle[0] += 0.05


def _input_beyond_bound(rec, cfg):
    rec.entries[2].u[0] = cfg.accel_limit + 1e-3


def _leave_lane(rec, cfg):
    rec.entries[6].x[2] = cfg.lane_high + 1e-3


def _too_fast(rec, cfg):
    rec.entries[6].x[1] = cfg.vel_limit + 1e-3


def _touch_obstacle(rec, cfg):
    rec.entries[7].obstacle = rec.entries[7].x[[0, 2]] + np.array([0.9, 0.0])


def _stage_cost_off_by_one(rec, cfg):
    rec.entries[0].stage_cost += 1.0


def _cumulative_cost_off_by_one(rec, cfg):
    rec.cumulative_cost += 1.0


def _wrong_status(rec, cfg):
    rec.terminal_status = "max-steps"


def _collided(rec, cfg):
    rec.terminal_status = "collided"


def _never_passed(rec, cfg):
    for e in rec.entries:
        e.obstacle = e.obstacle + np.array([30.0, 0.0])
    rec.final_obstacle = rec.final_obstacle + np.array([30.0, 0.0])


CORRUPTIONS = [
    (checks.plant, _perturb_state),
    (checks.disturbance_box, _big_disturbance),
    (checks.obstacle_motion, _obstacle_jump),
    (checks.input_bound, _input_beyond_bound),
    (checks.state_bounds, _leave_lane),
    (checks.state_bounds, _too_fast),
    (checks.clearance, _touch_obstacle),
    (checks.costs, _stage_cost_off_by_one),
    (checks.costs, _cumulative_cost_off_by_one),
    (checks.terminal_status, _wrong_status),
]


def test_real_episode_passes_every_check(episode):
    cfg, rec = episode
    assert checks.episode_problems(rec, cfg, "reach-and-pass") == []
    assert checks.outcome(rec, cfg, "reach-or-max-steps") == []


@pytest.mark.parametrize("check,corrupt", CORRUPTIONS,
                         ids=[c.__name__ for _, c in CORRUPTIONS])
def test_check_rejects_its_corruption(episode, check, corrupt):
    cfg, rec = episode
    bad = copy.deepcopy(rec)
    corrupt(bad, cfg)
    assert check(rec, cfg) == []
    assert check(bad, cfg)


@pytest.mark.parametrize("corrupt", [_collided, _never_passed])
def test_outcome_rejects_granular_failure(episode, corrupt):
    cfg, rec = episode
    bad = copy.deepcopy(rec)
    corrupt(bad, cfg)
    assert checks.outcome(bad, cfg, "reach-and-pass")


def test_outcome_rejects_collision_for_rmpc(episode):
    cfg, rec = episode
    bad = copy.deepcopy(rec)
    _collided(bad, cfg)
    assert checks.outcome(bad, cfg, "reach-or-max-steps")


def test_determinism_rejects_changed_digest(episode):
    cfg, rec = episode
    first: dict = {}
    got = checks.digest(simulate.canonical_record_bytes(rec))
    assert checks.determinism(0, got, first) == []
    assert checks.determinism(0, got, first) == []
    bad = copy.deepcopy(rec)
    bad.entries[-1].u[1] += 1e-12
    changed = checks.digest(simulate.canonical_record_bytes(bad))
    assert changed != got
    assert checks.determinism(0, changed, first)
