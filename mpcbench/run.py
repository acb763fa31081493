"""Closed-loop Monte Carlo benchmark of granmpc.

    python3 mpcbench/run.py --workload granular-overtake --seed 0 --seconds 54 --trace 0

Runs whole rounds of the workload's episode seeds in one process with one
BLAS thread, checks every episode (mpcbench/checks.py), and prints one JSON
object as the last line of standard output: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. Details and
reference figures are in mpcbench/README.md.
"""

import environment  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import json
import statistics
import subprocess
import sys
import time

import numpy as np

from granmpc import chance, ocp, scenario as sc, simulate

import checks
from tracing import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5        # fresh interpreters per run for setup_s
BUILD_REPEATS = 5        # traced MethodSetup.build calls per traced run
MIN_TAIL = 10            # steps that must lie beyond step_ms_p95
OUT_DIR = environment.ROOT / "mpcbench_out"


# A fixed kernel of Python arithmetic and a small numpy product, timed just
# before and just after every control step. The host's speed moves by up to
# 60% within seconds (README, "Environment"); dividing a step's CPU time by
# its probes' mean and multiplying by PROBE_NOMINAL_MS, the probe's time
# next to control steps when the reference host ran at its fastest, reports
# the step at that host speed.
PROBE_NOMINAL_MS = 0.16
_PROBE_V = np.arange(48.0)


def probe_ms() -> float:
    t0 = time.process_time()
    acc = 0.0
    for i in range(150):
        acc += float(_PROBE_V @ _PROBE_V) + i * 0.5
    return 1e3 * (time.process_time() - t0)


class StepTimer:
    """CPU time of each control step, from the call of ocp.assemble to the
    return of ocp.solve_sqp (two clock reads), with a probe on either side
    while ``probing`` is set."""

    def __init__(self):
        self.steps: list = []         # (step ms, probe ms before, probe ms after)
        self.probing = True
        self._t0 = 0.0
        self._p0 = 0.0
        self._saved = None

    def install(self):
        assemble, solve_sqp = ocp.assemble, ocp.solve_sqp
        clock = time.process_time

        def timed_assemble(*args, **kwargs):
            self._p0 = probe_ms() if self.probing else 0.0
            self._t0 = clock()
            return assemble(*args, **kwargs)

        def timed_solve_sqp(*args, **kwargs):
            result = solve_sqp(*args, **kwargs)
            ms = 1e3 * (clock() - self._t0)
            self.steps.append((ms, self._p0, probe_ms() if self.probing else 0.0))
            return result

        self._saved = (assemble, solve_sqp)
        ocp.assemble, ocp.solve_sqp = timed_assemble, timed_solve_sqp

    def uninstall(self):
        ocp.assemble, ocp.solve_sqp = self._saved


class Battery:
    """Whole rounds of one workload's episode seeds, every episode checked."""

    def __init__(self, wl, cfg, seeds, setup, timer, tracer=None):
        self.wl, self.cfg, self.seeds, self.setup, self.timer = wl, cfg, seeds, setup, timer
        self.tracer = tracer          # wraps the step layers during traced rounds
        self.attempted = 0
        self.failed = 0
        self.wrong = 0                # episodes that ran but failed a check
        self.problems: list = []
        self.digests: dict = {}
        self.costs: dict = {}
        self.rounds: list = []        # per round: CPU s and step ms per seed, as read and scaled

    def run_round(self, traced: bool = False):
        t0 = time.perf_counter()
        rnd = {"traced": traced, "cpu": {}, "cal_cpu": {}, "ms": {}, "raw_ms": {}}
        self.timer.probing = not traced
        if traced:
            self.tracer.wrap_all(STEP_SPANS)
        try:
            for seed in self.seeds:
                self._episode(seed, rnd)
        finally:
            if traced:
                self.tracer.unwrap()
        rnd["wall"] = time.perf_counter() - t0
        self.rounds.append(rnd)

    def _episode(self, seed, rnd):
        self.attempted += 1
        mark = len(self.timer.steps)
        t0 = time.process_time()
        try:
            record = simulate.run_closed_loop(self.cfg, self.wl.method, seed, setup=self.setup)
        except Exception as exc:  # an episode that raises is a failed operation
            self.failed += 1
            self.problems.append(f"seed {seed}: raised {exc!r}")
            return
        cpu = time.process_time() - t0
        problems = checks.episode_problems(record, self.cfg, self.wl.expect)
        problems += checks.determinism(
            seed, checks.digest(simulate.canonical_record_bytes(record)), self.digests)
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems += [f"seed {seed}: {p}" for p in problems]
            return
        self.costs[seed] = record.cumulative_cost
        steps = np.array(self.timer.steps[mark:])
        probes = steps[:, 1:].sum(axis=1)           # both probes of each step, ms
        rnd["cpu"][seed] = cpu - 1e-3 * probes.sum()
        if self.timer.probing:
            scale = PROBE_NOMINAL_MS / (probes / 2.0)
            rnd["cal_cpu"][seed] = rnd["cpu"][seed] * PROBE_NOMINAL_MS / float(np.mean(probes / 2.0))
            rnd["ms"][seed] = steps[:, 0] * scale
        rnd["raw_ms"][seed] = steps[:, 0]

    def per_seed(self, traced: bool = False, key: str = "cal"):
        """Per seed, over the rounds of one kind: the least episode CPU and,
        for each step, the least of its repetitions; key "cal" gives the
        probe-scaled figures of untraced rounds, "raw" the CPU as read.
        Every round replays the same deterministic steps (recorded rounds
        passed the digest check), so a slower repetition measures the host,
        not the program."""
        cpu_key, ms_key = ("cal_cpu", "ms") if key == "cal" else ("cpu", "raw_ms")
        cpu, ms = {}, {}
        rounds = [r for r in self.rounds if r["traced"] == traced]
        for seed in self.seeds:
            done = [r for r in rounds if seed in r[cpu_key]]
            if done:
                cpu[seed] = min(r[cpu_key][seed] for r in done)
                ms[seed] = np.min(np.array([r[ms_key][seed] for r in done]), axis=0)
        return cpu, ms

    def run_for(self, seconds: float, pattern=(False,)):
        """Cycles of whole rounds, one round per entry of pattern (traced or
        not): at least two rounds, then another cycle only while it should
        end within a quarter cycle past seconds."""
        t0 = time.perf_counter()
        cycles = 0
        while True:
            for traced in pattern:
                self.run_round(traced)
            cycles += 1
            elapsed = time.perf_counter() - t0
            if cycles * len(pattern) >= 2 and elapsed + 0.75 * elapsed / cycles > seconds:
                return


def setup_seconds(workload: str) -> float:
    """Median CPU seconds of SETUP_REPEATS fresh interpreters building the setup."""
    probe = environment.ROOT / "mpcbench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(probe), workload], check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def warm_up(wl, cfg, seeds, setup):
    """A few steps of one episode so lazy imports and first-call costs are paid."""
    short = cfg.with_overrides({"world.max_steps": 3})
    simulate.run_closed_loop(short, wl.method, seeds[0], setup=setup)


def end_to_end(battery, setup_s: float) -> dict:
    cpu, ms = battery.per_seed()
    steps = np.concatenate(list(ms.values()))
    tail = len(steps) * 0.05
    if tail < MIN_TAIL:
        raise RuntimeError(f"only {len(steps)} steps: fewer than {MIN_TAIL} beyond p95")
    return {
        "steps_per_s": (len(steps) / sum(cpu.values()), "1/s"),
        "step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
        "step_ms_p95": (float(np.percentile(steps, 95)), "ms"),
        "setup_s": (setup_s, "s"),
        "mean_cost": (float(np.mean([battery.costs[s] for s in battery.seeds
                                     if s in battery.costs])), "cost"),
    }


# ---------------------------------------------------------------------------
# traced run

QP_ARGS = ("H", "f", "A_ineq", "b_ineq", "A_eq", "b_eq")


def kkt(args: dict, sol):
    """(primal infeasibility, stationarity) of a QP solution, recomputed here."""
    x = sol.x
    g = args["H"] @ x + args["f"]
    primal = 0.0
    A, b = args.get("A_ineq"), args.get("b_ineq")
    if A is not None and len(b):
        primal = max(primal, float(np.max(A @ x - b)))
        g = g + A.T @ sol.duals_ineq
    A, b = args.get("A_eq"), args.get("b_eq")
    if A is not None and len(b):
        primal = max(primal, float(np.max(np.abs(A @ x - b))))
        g = g + A.T @ sol.duals_eq
    return primal, float(np.max(np.abs(g)))


def _qp_hook(tracer, idx, args, kwargs, sol):
    a = dict(zip(QP_ARGS, args), **kwargs)
    rows = sum(len(a[k]) for k in ("b_ineq", "b_eq") if a.get(k) is not None)
    rec = {"iters": sol.iterations, "status": sol.status, "rows": rows,
           "active": len(sol.active_set)}
    if sol.status == "optimal":
        with tracer.span("trace.kkt"):
            rec["primal"], rec["stationarity"] = kkt(a, sol)
    tracer.attrs[idx] = rec


def _sqp_hook(tracer, idx, args, kwargs, sol):
    tracer.attrs[idx] = {"iters": sol.iterations, "status": sol.status,
                         "softened": sol.softened, "violation": sol.violation}


def _tube_hook(tracer, idx, args, kwargs, tube):
    tracer.attrs[idx] = {"generators": tube.Z.generators.shape[1]}


def _rows_hook(tracer, idx, args, kwargs, rows):
    tracer.attrs[idx] = {"rows": len(rows[1])}


SETUP_SPANS = (
    (ocp.MethodSetup, "build", "ocp.MethodSetup.build", None),
    (ocp, "build_tube", "ocp.build_tube", _tube_hook),
    (ocp, "membership_rows", "ocp.membership_rows", _rows_hook),
)
STEP_SPANS = (
    (simulate, "run_closed_loop", "simulate.run_closed_loop", None),
    (simulate, "model_step", "simulate.model_step", None),
    (ocp, "assemble", "ocp.assemble", None),
    (ocp, "solve_sqp", "ocp.solve_sqp", _sqp_hook),
    (ocp, "qp_solve", "ocp.qp_solve", _qp_hook),
    (ocp, "nonlinear_violation", "ocp.nonlinear_violation", None),
    (chance, "gamma", "chance.gamma", None),
    (sc, "build_rmpc_constraints", "scenario.build_rmpc_constraints", None),
    (sc, "build_smpc_constraints", "scenario.build_smpc_constraints", None),
    (sc, "predict_obstacle", "scenario.predict_obstacle", None),
)
SCENARIO_SPANS = ("scenario.build_rmpc_constraints", "scenario.build_smpc_constraints",
                  "scenario.predict_obstacle")
SIMULATE_SPANS = ("simulate.run_closed_loop", "simulate.model_step")


def setup_layers(tracer, wl, cfg):
    """Build metrics from BUILD_REPEATS traced MethodSetup.build calls."""
    tracer.wrap_all(SETUP_SPANS)
    try:
        for _ in range(BUILD_REPEATS):
            wl_setup = ocp.MethodSetup.build(cfg, wl.method)
    finally:
        tracer.unwrap()
    out = {}

    def median_ms(name):
        spans = tracer.spans(name)
        return statistics.median(1e3 * tracer.duration(i) for i in spans) if spans else None

    out["ocp.build_ms"] = (median_ms("ocp.MethodSetup.build"), "ms")
    out["tube.build_ms"] = (median_ms("ocp.build_tube"), "ms")
    for name, key, metric in (("ocp.build_tube", "generators", "tube.generators"),
                              ("ocp.membership_rows", "rows", "ocp.membership_rows")):
        spans = tracer.spans(name)
        out[metric] = (tracer.attrs[spans[-1]][key] if spans else None, "count")
    return out, wl_setup


def step_layers(tracer, lo: int, cfg, battery):
    """Per-layer metrics from the spans from index lo on (the traced rounds)
    and from the untraced rounds' step times, plus how the traced step CPU
    splits between the layers and the trace's own work."""
    self_s = tracer.self_times(lo)
    _, ms = battery.per_seed(traced=False)
    cpu, _ = battery.per_seed(traced=False, key="raw")
    cpu_traced, _ = battery.per_seed(traced=True, key="raw")
    sqp = [tracer.attrs[i] for i in tracer.spans("ocp.solve_sqp", lo)]
    qps = [tracer.attrs[i] for i in tracer.spans("ocp.qp_solve", lo)]
    episodes = len(tracer.spans("simulate.run_closed_loop", lo))
    steps = len(sqp)
    gone = tracer.absent

    def ms_per_step(*names):
        if gone.intersection(names):
            return None
        return 1e3 * sum(self_s.get(n, 0.0) for n in names) / steps

    def calls_per_step(name):
        return None if name in gone else len(tracer.spans(name, lo)) / steps

    optimal = [q for q in qps if q["status"] == "optimal"]
    qp_iters = sum(q["iters"] for q in qps)
    qp_ms = ms_per_step("ocp.qp_solve")
    out = {
        "qp.calls_per_step": (len(qps) / steps, "count"),
        "qp.iters_per_step": (qp_iters / steps, "count"),
        "qp.ms_per_iter": (qp_ms * steps / qp_iters if qp_iters else None, "ms"),
        "qp.self_ms_per_step": (qp_ms, "ms"),
        "qp.active_set_size": (float(np.mean([q["active"] for q in optimal]))
                               if optimal else None, "count"),
        "qp.not_optimal_per_step": ((len(qps) - len(optimal)) / steps, "count"),
        "qp.kkt_primal_max": (max((q["primal"] for q in optimal), default=None), "residual"),
        "qp.kkt_stationarity_max": (max((q["stationarity"] for q in optimal), default=None),
                                    "residual"),
        "ocp.assemble_ms_per_step": (ms_per_step("ocp.assemble"), "ms"),
        "scenario.constraints_ms_per_step": (ms_per_step(*SCENARIO_SPANS), "ms"),
        "ocp.sqp_iters_per_step": (sum(s["iters"] for s in sqp) / steps, "count"),
        "ocp.sqp_self_ms_per_step": (ms_per_step("ocp.solve_sqp"), "ms"),
        "ocp.violation_calls_per_step": (calls_per_step("ocp.nonlinear_violation"), "count"),
        "ocp.violation_ms_per_step": (ms_per_step("ocp.nonlinear_violation"), "ms"),
        "ocp.qp_rows_per_solve": (float(np.mean([q["rows"] for q in qps])) if qps else None,
                                  "count"),
        "ocp.max_iter_steps": (sum(s["status"] == "max-iter" for s in sqp) / episodes,
                               "count/episode"),
        "ocp.softened_steps": (sum(bool(s["softened"]) for s in sqp) / episodes,
                               "count/episode"),
        "ocp.violating_steps": (sum(s["violation"] > cfg.sqp_violation_tol for s in sqp)
                                / episodes, "count/episode"),
        "chance.gamma_calls_per_step": (calls_per_step("chance.gamma"), "count"),
        "chance.gamma_ms_per_step": (ms_per_step("chance.gamma"), "ms"),
        "simulate.self_ms_per_step": (ms_per_step(*SIMULATE_SPANS), "ms"),
        "simulate.steps_over_dt": (sum(int(np.sum(m > 1e3 * cfg.dt)) for m in ms.values())
                                   / len(ms), "count/episode"),
        "trace.overhead": (sum(cpu_traced.values()) / sum(cpu.values()), "ratio"),
    }
    if "ocp.qp_solve" in gone:
        for key in [k for k in out if k.startswith("qp.") or k == "ocp.qp_rows_per_solve"]:
            out[key] = (None, out[key][1])
    root = tracer.spans("simulate.run_closed_loop", lo)
    attribution = {  # ms per traced step
        "layers_self": sum(1e3 * v for k, v in self_s.items() if not k.startswith("trace.")) / steps,
        "trace_self": 1e3 * self_s.get("trace.kkt", 0.0) / steps,
        "episode_span": 1e3 * sum(tracer.duration(i) for i in root) / steps,
    }
    print(f"mpcbench: {episodes} traced episodes, ms per step: {attribution}", file=sys.stderr)
    return out, attribution


# ---------------------------------------------------------------------------


def _result(battery, metrics: dict) -> dict:
    present = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None}
    absent = sorted(k for k, (v, _) in metrics.items() if v is None)
    if absent:
        print(f"mpcbench: absent metrics {absent}", file=sys.stderr)
    return {"correct": battery.wrong == 0, "attempted": battery.attempted,
            "failed": battery.failed, "metrics": present}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    cfg = wl.config()
    seeds = wl.episode_seeds(args.seed)
    timer = StepTimer()
    tracer = Tracer() if args.trace else None
    attribution = None

    if args.trace:
        metrics, setup = setup_layers(tracer, wl, cfg)
    else:
        setup_s = setup_seconds(args.workload)
        setup = ocp.MethodSetup.build(cfg, wl.method)
    warm_up(wl, cfg, seeds, setup)

    battery = Battery(wl, cfg, seeds, setup, timer, tracer)
    timer.install()
    try:
        if not args.trace:
            battery.run_for(args.seconds)
            metrics = end_to_end(battery, setup_s)
        else:
            lo = len(tracer)
            battery.run_for(args.seconds, pattern=(False, True))
            layers, attribution = step_layers(tracer, lo, cfg, battery)
            metrics.update(layers)
    finally:
        timer.uninstall()

    for p in battery.problems[:20]:
        print(f"mpcbench: {p}", file=sys.stderr)
    result = _result(battery, metrics)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "episode_seeds": seeds, "problems": battery.problems,
                   "attribution_ms_per_step": attribution,
                   "rounds": [{"traced": r["traced"], "wall_s": r["wall"], "cpu_s": r["cpu"],
                               "scaled_cpu_s": r["cal_cpu"],
                               "step_ms": {k: v.tolist() for k, v in r["raw_ms"].items()},
                               "scaled_step_ms": {k: v.tolist() for k, v in r["ms"].items()}}
                              for r in battery.rounds]}, fh)
    if args.trace:
        tracer.dump(f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
