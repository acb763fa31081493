"""Command-line interface.

Subcommands:
  build-sets   precompute the invariant tube and covariance schedule, dump JSON
  run          one or more closed-loop episodes, JSONL trajectories + CSV
  montecarlo   Monte Carlo batch for one method
  compare      all three methods on common random numbers, ratio report

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread unless the user set one: on problems this small more threads
# cost more than they save (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import ocp, scenario as sc, simulate
from .sets import SetError


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="granmpc",
                                description="Granularity R+SMPC benchmark runner")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="YAML config file (defaults used if omitted)")
        sp.add_argument("--out", default="granmpc-out", help="output directory")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, e.g. robot.dt=0.1")

    sp = sub.add_parser("build-sets", help="precompute tube and covariance schedule")
    common(sp)

    for name in ("run", "montecarlo"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--method", choices=simulate.METHODS, default="granular")
        sp.add_argument("--runs", type=int, default=1 if name == "run" else 100)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--debug-trace", action="store_true",
                        help="dump per-iteration SQP traces as JSON lines")

    sp = sub.add_parser("compare", help="run all three methods on common seeds")
    common(sp)
    sp.add_argument("--runs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _load_config(args) -> sc.ScenarioConfig:
    cfg = sc.load_config(args.config)
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise sc.ConfigError(f"override {item!r} is not KEY=VALUE")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg


def _prepare_out(args, cfg: sc.ScenarioConfig) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(cfg.to_yaml(), encoding="utf-8")
    return out


def _tightened_bounds(tube) -> dict:
    # row order fixed by scenario.state_set / input_set
    x_off = tube.Xbar.offsets
    u_off = tube.Ubar.offsets
    return {
        "lane": [float(-x_off[1]), float(x_off[0])],
        "velocity_bound": float(np.min(x_off[2:6])),
        "input_bound": float(np.min(u_off)),
    }


def _cmd_build_sets(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    setup = ocp.MethodSetup.build(cfg, "granular")
    b = _tightened_bounds(setup.tube)
    path = out / "sets.json"
    simulate.write_json({"tube": setup.tube, "tightened_bounds": b,
                         "covariance_schedule": setup.coarse_sched}, path)
    print(f"tube: {setup.tube.Z.n_generators} generators, alpha={setup.tube.alpha:.2e}, "
          f"s={setup.tube.s}")
    print(f"tightened lane [{b['lane'][0]:.4f}, {b['lane'][1]:.4f}], "
          f"|v| <= {b['velocity_bound']:.4f}, |a| <= {b['input_bound']:.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_batch(args) -> int:
    """run and montecarlo; run also writes each episode's JSONL."""
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    setup = ocp.MethodSetup.build(cfg, args.method)
    records = []
    for seed in range(args.seed, args.seed + args.runs):
        trace = [] if args.debug_trace else None
        records.append(simulate.run_closed_loop(cfg, args.method, seed, setup=setup,
                                                trace=trace))
        if trace is not None:
            with open(out / f"trace_{args.method}_{seed}.jsonl", "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(row) + "\n" for row in trace)
    summary = simulate.summarize(records, args.method)
    if args.command == "run":
        for rec in records:
            simulate.write_run_jsonl(rec, out / f"run_{rec.method}_{rec.seed}.jsonl")
    simulate.write_summary_csv(records, out / "summary.csv")
    simulate.write_json(summary, out / "summary.json")
    print(f"{args.method}: {summary.n_runs} runs, pass rate {summary.pass_rate:.2f}, "
          f"collision rate {summary.collision_rate:.2f}, "
          f"mean cost {summary.mean_cumulative_cost:.2f}, "
          f"mean solve {summary.mean_solve_ms:.2f} ms")
    return 0


def _cmd_compare(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    cfg = _load_config(args)
    out = _prepare_out(args, cfg)
    report = simulate.compare_methods(cfg, args.runs, args.seed)
    simulate.write_json(report, out / "comparison.json")
    for m in simulate.METHODS:
        s = report["methods"][m]
        print(f"{m}: pass {s.pass_rate:.2f}, collide {s.collision_rate:.2f}, "
              f"cost {s.mean_cumulative_cost:.2f}, solve {s.mean_solve_ms:.2f} ms")
    print(f"time ratio granular/single-rsmpc: "
          f"{report['time_ratio_granular_vs_single_rsmpc']:.3f}")
    print(f"cost ratio granular/single-rsmpc: "
          f"{report['cost_ratio_granular_vs_single_rsmpc']:.3f}")
    return 0


class UsageError(ValueError):
    pass


_COMMANDS = {
    "build-sets": _cmd_build_sets,
    "run": _cmd_batch,
    "montecarlo": _cmd_batch,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, sc.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SetError, ocp.OcpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
