"""Closed-loop harness tests: determinism, disturbance bounds, record
bookkeeping, Monte Carlo summaries, and the file outputs."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import granmpc.scenario as sc
from granmpc import ocp, simulate
from granmpc.simulate import (TIMING_FIELDS, MonteCarloSummary, RunRecord, StepEntry,
                              canonical_record_bytes, monte_carlo,
                              run_closed_loop, summarize)


@pytest.fixture(scope="module")
def granular_run(cfg, setup_granular):
    return run_closed_loop(cfg, "granular", 0, setup=setup_granular)


def test_repeat_run_is_byte_identical(cfg, setup_granular, granular_run):
    again = run_closed_loop(cfg, "granular", 0, setup=setup_granular)
    assert canonical_record_bytes(again) == canonical_record_bytes(granular_run)


def test_different_seeds_differ(cfg, setup_granular, granular_run):
    other = run_closed_loop(cfg, "granular", 1, setup=setup_granular)
    assert canonical_record_bytes(other) != canonical_record_bytes(granular_run)


def test_canonical_bytes_ignore_timing(granular_run):
    before = canonical_record_bytes(granular_run)
    # the solver telemetry is no timing: it stays in the canonical record
    assert b'"qp_iterations"' in before and b'"violation"' in before
    entry = granular_run.entries[0]
    saved = {name: getattr(entry, name) for name in TIMING_FIELDS}
    for name in TIMING_FIELDS:
        setattr(entry, name, -1.0)
    try:
        assert canonical_record_bytes(granular_run) == before
    finally:
        for name, value in saved.items():
            setattr(entry, name, value)


def test_realized_disturbances_respect_bounds(cfg, setup_granular, granular_run):
    half = np.sum(np.abs(setup_granular.model.disturbance.generators), axis=1)
    for e in granular_run.entries:
        assert np.all(np.abs(e.d) <= half + 1e-12)


def test_truncated_gaussian_disturbance_bounded():
    rng = np.random.default_rng(0)
    half = np.array([0.05, 0.1])
    for _ in range(200):
        d = simulate._sample_disturbance(rng, half, "truncated_gaussian")
        assert np.all(np.abs(d) <= half)


def test_run_record_bookkeeping(cfg, granular_run):
    r = granular_run
    assert r.steps == len(r.entries)
    assert r.cumulative_cost == pytest.approx(
        sum(e.stage_cost for e in r.entries))
    assert r.terminal_status in ("reached", "collided", "max-steps", "infeasible")
    assert r.robot_positions().shape == (r.steps + 1, 2)
    assert r.obstacle_positions().shape == (r.steps + 1, 2)
    # the plant trajectory replays from the logged inputs and disturbances
    m = sc.detailed_model(cfg)
    x = r.entries[0].x
    for e in r.entries:
        assert np.allclose(x, e.x, atol=1e-12)
        x = m.A @ x + m.B @ e.u + m.G @ e.d
    assert np.allclose(x, r.final_state, atol=1e-12)


def test_granular_run_passes_and_reaches(granular_run):
    assert granular_run.passed
    assert granular_run.reached
    assert not granular_run.collided
    assert granular_run.terminal_status == "reached"


def test_granular_seed_2_passes_and_reaches(cfg, setup_granular):
    # the pruned membership rows include tail powers of Phi'; held at unit
    # norm, the QP's absolute tolerances judge them like every other row, and
    # this episode reaches the target and passes as with the unpruned rows
    record = run_closed_loop(cfg, "granular", 2, setup=setup_granular)
    assert record.passed and record.reached
    assert record.terminal_status == "reached"


def test_sqp_follows_the_setup_config(cfg):
    # the SQP takes its settings from the setup's config: capped at one
    # iteration, every step of the episode takes exactly one
    one = cfg.with_overrides({"solver.sqp_max_iter": "1", "world.max_steps": "8"})
    record = run_closed_loop(one, "granular", 0, setup=ocp.MethodSetup.build(one, "granular"))
    assert record.steps == 8
    assert [e.sqp_iterations for e in record.entries] == [1] * 8


@pytest.mark.parametrize("seed", [54, 55, 78])
def test_rmpc_runs_through_a_full_qp_working_set(cfg, setup_rmpc, seed):
    # at step 14 of these episodes a QP's working set holds 44 rows, one per
    # variable; there a rounding-sized step direction must not add a 45th row
    # past the solver's buffers (an IndexError) but take a dual-only step
    short = cfg.with_overrides({"world.max_steps": "15"})
    record = run_closed_loop(short, "single-rmpc", seed, setup=setup_rmpc)
    assert record.steps == 15


def test_disturbances_are_common_across_methods(cfg, setup_granular, setup_rmpc,
                                                granular_run):
    # common random numbers: the plant noise stream depends only on the seed
    other = run_closed_loop(cfg, "single-rmpc", 0, setup=setup_rmpc)
    n = min(granular_run.steps, other.steps)
    for a, b in zip(granular_run.entries[:n], other.entries[:n]):
        assert np.allclose(a.d, b.d)


def _toy_records():
    def entry(k, cost, ms, soft=False):
        return StepEntry(k, np.zeros(4), np.zeros(2), np.zeros(4),
                         np.zeros(2), cost, "converged", 2, ms, ms, soft)

    r1 = RunRecord("granular", 0, [entry(0, 1.0, 10.0), entry(1, 3.0, 20.0)],
                   False, True, True, 2, 4.0, "reached", np.zeros(4), np.zeros(2))
    r2 = RunRecord("granular", 1, [entry(0, 2.0, 30.0, soft=True)],
                   True, False, False, 1, 2.0, "collided", np.zeros(4), np.zeros(2))
    return [r1, r2]


def test_summarize_arithmetic():
    s = summarize(_toy_records(), "granular")
    assert isinstance(s, MonteCarloSummary)
    assert s.n_runs == 2
    assert s.pass_rate == 0.5
    assert s.collision_rate == 0.5
    assert s.reach_rate == 0.5
    assert s.mean_cumulative_cost == pytest.approx(3.0)
    assert s.mean_solve_ms == pytest.approx(20.0)
    assert s.median_solve_ms == pytest.approx(20.0)
    assert s.softened_steps_total == 1
    # shorter run padded with its last value
    assert s.mean_cost_curve == pytest.approx([1.5, 2.5])
    assert s.mean_solve_curve == pytest.approx([20.0, 25.0])


def test_monte_carlo_rejects_empty():
    with pytest.raises(ValueError):
        monte_carlo(sc.load_config(None), "granular", 0, 0)


def test_write_run_jsonl_roundtrip(tmp_path, granular_run):
    path = tmp_path / "run.jsonl"
    simulate.write_run_jsonl(granular_run, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["seed"] == 0
    assert header["passed"] is True
    assert len(lines) == 1 + granular_run.steps
    first = json.loads(lines[1])
    assert first["k"] == 0
    assert np.allclose(first["x"], granular_run.entries[0].x)
    assert first["qp_iterations"] == granular_run.entries[0].qp_iterations > 0
    assert first["violation"] == granular_run.entries[0].violation


def _fields(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _jsonl(record, tmp_path) -> list:
    path = tmp_path / "run.jsonl"
    simulate.write_run_jsonl(record, path)
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_jsonl_carries_every_record_field(tmp_path, granular_run):
    header, *entries = _jsonl(granular_run, tmp_path)
    assert set(header) == _fields(RunRecord) - {"entries"} | {"softened_steps"}
    assert header["softened_steps"] == granular_run.softened_steps
    assert len(entries) == granular_run.steps
    assert all(set(e) == _fields(StepEntry) for e in entries)


def test_canonical_bytes_carry_every_untimed_entry_field(granular_run):
    canon = json.loads(canonical_record_bytes(granular_run))
    assert set(canon) == _fields(RunRecord) | {"softened_steps"}
    assert TIMING_FIELDS and set(TIMING_FIELDS) <= _fields(StepEntry)
    assert all(set(e) == _fields(StepEntry) - set(TIMING_FIELDS) for e in canon["entries"])


def test_new_entry_field_reaches_the_records(tmp_path, granular_run):
    # a field declared once on the entry reaches the JSONL and the canonical
    # bytes with no other edit
    @dataclasses.dataclass
    class Labelled(StepEntry):
        worst_row: str = "chance_lane@3"

    record = dataclasses.replace(
        granular_run, entries=[Labelled(**vars(e)) for e in granular_run.entries])
    _, *entries = _jsonl(record, tmp_path)
    canon = json.loads(canonical_record_bytes(record))
    for e in entries + canon["entries"]:
        assert e["worst_row"] == "chance_lane@3"


def test_plain_converts_arrays_tuples_and_numpy_scalars():
    @dataclasses.dataclass
    class Item:
        a: np.ndarray
        t: tuple
        n: np.integer
        f: np.floating
        b: np.bool_

    d = sc.plain(Item(np.eye(2), (1, (2.0, np.float64(0.5))), np.int64(3),
                      np.float64(0.25), np.bool_(True)))
    assert d == {"a": [[1.0, 0.0], [0.0, 1.0]], "t": [1, [2.0, 0.5]], "n": 3,
                 "f": 0.25, "b": True}
    assert [type(d[k]) for k in ("n", "f", "b")] == [int, float, bool]
    assert type(d["t"][1][1]) is float


def test_write_summary_csv(tmp_path):
    path = tmp_path / "summary.csv"
    simulate.write_summary_csv(_toy_records(), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["method"] == "granular"
    assert rows[0]["passed"] == "1"
    assert rows[1]["collided"] == "1"
    assert float(rows[0]["cumulative_cost"]) == pytest.approx(4.0)
