"""CLI tests: exit codes, emitted artifacts, and flag plumbing.

main() is invoked in-process so the suite stays fast; subcommand behavior is
exactly what a shell invocation would see.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

from granmpc.cli import main


def test_usage_errors_exit_2(tmp_path, capsys):
    # found before the output directory is made; past argparse, each is
    # reported on one line
    out = tmp_path / "o"
    # config files that are no table of sections, no YAML, set a removed
    # key, repeat a section or a key, or are not UTF-8
    configs = []
    for i, text in enumerate(("- 1\n", "7\n", "world: {start: [0, 0\n",
                              "solver: {sqp_max_halvings: 8}\n",
                              "world: {max_steps: 5}\nworld: {max_steps: 6}\n",
                              "world: {max_steps: 5, max_steps: 6}\n")):
        configs.append(tmp_path / f"bad{i}.yaml")
        configs[-1].write_text(text, encoding="utf-8")
    configs.append(tmp_path / "latin1.yaml")
    configs[-1].write_bytes(b"world: {max_steps: 5}\n# \xff\n")
    assert main(["run", "--jobs", "0", "--out", str(out)]) == 2
    assert main(["run", "--method", "nonsense", "--out", str(out)]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["run", "--terminal-cost", "origin", "--out", str(out)]) == 2
    for argv in (["run", "--runs", "0"], ["montecarlo", "--runs", "0"],
                 ["compare", "--runs", "0"], ["run", "--set", "bogus.key=1"],
                 ["run", "--set", "novalue"], ["run", "--set", "solver.sqp_max_iter=0"],
                 ["run", "--set", "solver.sqp_max_halvings=-1"],
                 ["run", "--set", "avoidance.ellipse_a=0"],
                 ["run", "--set", "avoidance.ellipse_b=-1"],
                 ["run", "--set", "avoidance.robust_ellipse_b=0"],
                 ["run", "--set", "solver.soft_penalty=0"],
                 ["run", "--set", "solver.sqp_pos_step_limit=0"],
                 ["run", "--set", "cost.q_diag=[1,1]"],
                 ["run", "--set", "cost.rc_diag=[1,1,1]"],
                 # values of the wrong kind: empty, text, a fraction or a
                 # list for a number, a number for a list, a short list
                 ["run", "--set", "robot.dt="], ["run", "--set", "horizons.ns=x"],
                 ["run", "--set", "horizons.ns=1.5"], ["run", "--set", "stochastic.risk=[1]"],
                 ["run", "--set", "world.target=5"], ["run", "--set", "world.lane_high=abc"],
                 ["run", "--set", "obstacle.obstacle_start=[1]"],
                 ["run", "--set", "gains.k_gain=3"],
                 *(["build-sets", "--config", str(path)] for path in configs),
                 ["run", "--seed", "-1"], ["compare", "--seed", "-1"]):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # an override that is no YAML names its key
    assert main(["build-sets", "--set", "world.start=[0,", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the value of world.start ") and err.count("\n") == 1, err
    # a repeated key is named where it repeats, a file that is not UTF-8 by
    # its path
    for argv, says in ((["build-sets", "--config", str(configs[4])], "repeated key 'world'"),
                       (["build-sets", "--config", str(configs[5])], "repeated key 'max_steps'"),
                       (["build-sets", "--set", "world.start={x: 0, x: 1}"], "repeated key 'x'"),
                       (["build-sets", "--config", str(configs[6])],
                        f"config file {configs[6]} is not UTF-8")):
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err and err.count("\n") == 1, err
    # a size, bound or tolerance out of its range names its key
    for key, bad in (("solver.sqp_violation_tol", "-1"), ("solver.sqp_step_tol", "-1"),
                     ("robot.disturbance_bound", "-0.1"),
                     ("robot.disturbance_pos_bound", "-0.1"),
                     ("robot.disturbance_bound", "0"), ("robot.disturbance_pos_bound", "0"),
                     ("world.robot_radius", "-1"), ("world.finish_threshold", "-1"),
                     ("tube.tube_eps", "0"), ("obstacle.obstacle_radius", "0"),
                     ("obstacle.obstacle_disturbance_bound", "-1")):
        capsys.readouterr()
        assert main(["run", "--set", f"{key}={bad}", "--out", str(out)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1, err
    assert not out.exists()


def test_missing_config_file_exit_1(tmp_path):
    rc = main(["build-sets", "--config", str(tmp_path / "absent.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_build_sets_artifacts(tmp_path):
    out = tmp_path / "sets"
    assert main(["build-sets", "--out", str(out)]) == 0
    payload = json.loads((out / "sets.json").read_text(encoding="utf-8"))
    assert set(payload) == {"tube", "tightened_bounds", "covariance_schedule"}
    b = payload["tightened_bounds"]
    lo, hi = b["lane"]
    assert abs(lo + 0.22) < 0.05 and abs(hi - 2.22) < 0.05
    assert b["input_bound"] > 0 and b["velocity_bound"] > 0
    assert payload["tube"]["s"] >= 1
    assert len(payload["covariance_schedule"]["sigmas"]) > 1
    # effective config is echoed for provenance
    assert (out / "config.yaml").exists()


def test_run_single_episode(tmp_path):
    out = tmp_path / "run"
    rc = main(["run", "--method", "granular", "--runs", "1", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_runs"] == 1
    assert summary["pass_rate"] == 1.0
    assert (out / "run_granular_0.jsonl").exists()
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["method"] == "granular"


def test_run_debug_trace(tmp_path):
    out = tmp_path / "trace"
    rc = main(["run", "--method", "granular", "--runs", "1", "--seed", "0",
               "--debug-trace", "--out", str(out)])
    assert rc == 0
    tpath = out / "trace_granular_0.jsonl"
    lines = tpath.read_text(encoding="utf-8").splitlines()
    assert lines
    row = json.loads(lines[0])
    assert row["k"] == 0 and isinstance(row["sqp"], list)


def test_overrides_echoed_in_config(tmp_path):
    out = tmp_path / "ovr"
    rc = main(["run", "--runs", "1", "--seed", "0", "--out", str(out),
               "--set", "world.max_steps=40", "--set", "cost.terminal_cost=origin"])
    assert rc == 0
    cfg = yaml.safe_load((out / "config.yaml").read_text(encoding="utf-8"))
    assert cfg["world"]["max_steps"] == 40
    assert cfg["cost"]["terminal_cost"] == "origin"


def test_config_flag_reads_back_echoed_file(tmp_path):
    out1 = tmp_path / "a"
    assert main(["build-sets", "--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    rc = main(["build-sets", "--config", str(out1 / "config.yaml"),
               "--out", str(out2)])
    assert rc == 0
    assert ((out1 / "sets.json").read_bytes()
            == (out2 / "sets.json").read_bytes())


def test_montecarlo_small_batch(tmp_path):
    out = tmp_path / "mc"
    rc = main(["montecarlo", "--method", "granular", "--runs", "2",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_runs"] == 2
    # montecarlo keeps the batch summary but not per-run trajectory dumps
    assert not list(out.glob("run_*.jsonl"))


def test_compare_report(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--runs", "1", "--seed", "0", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert set(report["methods"]) == {"granular", "single-rsmpc", "single-rmpc"}
    assert report["n_runs"] == 1
    assert report["time_ratio_granular_vs_single_rsmpc"] > 0
    assert report["cost_ratio_granular_vs_single_rsmpc"] > 0


def test_run_path_imports_no_scipy():
    # scipy is a test-only dependency (see test_imports.py); importing it
    # would cost about a third of a second of CPU at every start
    code = """
import sys
from granmpc import cli, ocp, scenario as sc, simulate
cfg = sc.load_config(None).with_overrides({"world.max_steps": "3"})
setups = {m: ocp.MethodSetup.build(cfg, m) for m in ocp.METHODS}
simulate.run_closed_loop(cfg, "granular", 0, setup=setups["granular"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.strip() == "[]"
