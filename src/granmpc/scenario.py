"""Benchmark world: configuration, robot models, obstacles, constants,
constraint builders, and the JSON form of configs, records and sets.

All defaults reproduce the published mobile-robot collision-avoidance study:
a 4-state double-integrator robot must travel from (0,0) to (19,0) through a
lane, past a dynamic obstacle and below a static box that narrows the road.
"""

from __future__ import annotations

import io
import numbers
import re
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Tuple

import numpy as np
import yaml

from . import chance
from .models import GainPair, LinearModel
from .sets import HPolytope, Zonotope


class ConfigError(ValueError):
    pass


def plain(obj):
    """JSON-ready form of a config section, record, summary, tube, schedule
    or set: a dataclass becomes a dict of its fields (a set also gets its
    "type" tag), an array or tuple a list, a numpy scalar a Python number."""
    if is_dataclass(obj):
        out = {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, (HPolytope, Zonotope)):
            out["type"] = type(obj).__name__.lower()
        return out
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class _Loader(yaml.SafeLoader):
    """YAML 1.1 that also reads Python's exponent floats (1e-05) as floats
    and refuses a mapping that repeats a key (``_mapping``)."""


def _mapping(loader, node) -> dict:
    """A mapping, at any depth, that repeats none of its own keys: PyYAML
    would keep the last value. A key a ``<<`` merge brings in may still be
    overridden."""
    own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
    mapping = loader.construct_mapping(node)
    seen = set()
    for k in own:
        key = loader.construct_object(k)        # built just above, so cached
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping", node.start_mark,
                f"found repeated key {key!r}", k.start_mark)
        seen.add(key)
    return mapping


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))
_Loader.add_constructor("tag:yaml.org,2002:map", _mapping)


@dataclass
class ScenarioConfig:
    # world
    start: Tuple[float, float] = (0.0, 0.0)
    target: Tuple[float, float] = (19.0, 0.0)
    robot_radius: float = 0.5
    lane_low: float = -0.5
    lane_high: float = 2.5
    finish_threshold: float = 0.5
    max_steps: int = 100
    pass_clearance: float = 1.0
    # robot
    dt: float = 0.2
    accel_limit: float = 3.0
    vel_limit: float = 3.0
    disturbance_bound: float = 0.1
    disturbance_mode: str = "velocity"       # velocity | full
    # position components of the process disturbance, used in velocity mode;
    # calibrated so the resulting tube reproduces the reported tightened lane
    # bound p_y <= 2.22
    disturbance_pos_bound: float = 0.034
    realized_disturbance: str = "uniform"    # uniform | truncated_gaussian
    # obstacle
    obstacle_start: Tuple[float, float] = (6.0, 0.0)
    obstacle_velocity: Tuple[float, float] = (0.6, 0.0)
    obstacle_radius: float = 0.5
    obstacle_disturbance_bound: float = 0.1
    # avoidance geometry
    ellipse_a: float = 1.0
    ellipse_b: float = 1.0
    robust_ellipse_a: float = 2.10
    robust_ellipse_b: float = 2.10
    box_corners: tuple = ((11.0, 3.0), (11.0, 2.0), (15.0, 2.0), (15.0, 3.0))
    robust_box_corners: tuple = ((10.2, 3.8), (10.2, 1.2), (15.8, 1.2), (15.8, 3.8))
    # cost
    q_diag: Tuple[float, ...] = (1.0, 0.1, 1.0, 0.1)
    r_diag: Tuple[float, ...] = (0.1, 0.1)
    qc_diag: Tuple[float, ...] = (1.0, 1.0)
    rc_diag: Tuple[float, ...] = (0.1, 0.1)
    terminal_cost: str = "target"            # target | origin
    # gains (positive magnitudes as published; negated internally so that
    # Phi = A + B K is stable)
    k_gain: tuple = ((3.77, 4.67, 0.0, 0.0), (0.0, 0.0, 3.77, 4.67))
    kc_gain: tuple = ((2.32, 0.0), (0.0, 4.14))
    # stochastic stage
    sigma_w_diag: Tuple[float, float] = (0.1, 0.1)
    risk: float = 0.8
    detailed_sigma_std: float = 0.1
    # horizons
    ns: int = 7
    nl: int = 13
    # tube computation
    tube_eps: float = 1e-3
    # solver
    sqp_max_iter: int = 30
    sqp_step_tol: float = 1e-6
    sqp_violation_tol: float = 1e-6
    sqp_pos_step_limit: float = 0.5
    soft_penalty: float = 1e6

    def __post_init__(self):
        for section, keys in self._LAYOUT.items():
            for key in keys:
                default = getattr(ScenarioConfig, key)
                if not _has_kind(getattr(self, key), default):
                    raise ConfigError(f"{section}.{key} must be {_kind_name(default)}")
        if self.ns < 0 or self.nl < 0 or self.ns + self.nl == 0:
            raise ConfigError("horizons must be nonnegative and not both zero")
        if not 0.5 <= self.risk < 1.0:
            raise ConfigError("risk parameter must lie in [0.5, 1)")
        if self.disturbance_mode not in ("full", "velocity"):
            raise ConfigError(f"unknown disturbance_mode {self.disturbance_mode!r}")
        if self.realized_disturbance not in ("uniform", "truncated_gaussian"):
            raise ConfigError(f"unknown realized_disturbance {self.realized_disturbance!r}")
        if self.terminal_cost not in ("target", "origin"):
            raise ConfigError(f"unknown terminal_cost {self.terminal_cost!r}")
        if self.dt <= 0 or self.max_steps < 1:
            raise ConfigError("dt must be positive and max_steps >= 1")
        if np.any(np.asarray(self.sigma_w_diag) < 0) or self.detailed_sigma_std < 0:
            raise ConfigError("stochastic.sigma_w_diag must be two nonnegative floats and "
                              "stochastic.detailed_sigma_std nonnegative")
        if self.sqp_max_iter < 1:
            raise ConfigError("solver.sqp_max_iter must be >= 1")
        # a semi-axis <= 0 divides by zero or flips the keep-outs, a step
        # limit <= 0 freezes or reverses each SQP step, a penalty <= 0 leaves
        # the fallback's slacks free, and a tube, obstacle or disturbance box
        # of size 0 is no set (the position bound is used in velocity mode)
        for key in ("avoidance.ellipse_a", "avoidance.ellipse_b", "avoidance.robust_ellipse_a",
                    "avoidance.robust_ellipse_b", "solver.sqp_pos_step_limit",
                    "solver.soft_penalty", "tube.tube_eps", "obstacle.obstacle_radius",
                    "robot.disturbance_bound", "robot.disturbance_pos_bound"):
            if not getattr(self, key.split(".")[1]) > 0 and not (
                    key == "robot.disturbance_pos_bound" and self.disturbance_mode == "full"):
                raise ConfigError(f"{key} must be positive")
        # a negative bound or radius would be read as its magnitude or as an
        # empty range, and a negative tolerance can never be met
        for key in ("world.robot_radius", "world.finish_threshold",
                    "robot.disturbance_pos_bound", "obstacle.obstacle_disturbance_bound",
                    "solver.sqp_step_tol", "solver.sqp_violation_tol"):
            if not getattr(self, key.split(".")[1]) >= 0:
                raise ConfigError(f"{key} must be nonnegative")

    # -- horizon helpers ---------------------------------------------------
    @property
    def n_total(self) -> int:
        return self.ns + self.nl

    # -- serialization -----------------------------------------------------
    _LAYOUT = {
        "world": ("start", "target", "robot_radius", "lane_low", "lane_high",
                  "finish_threshold", "max_steps", "pass_clearance"),
        "robot": ("dt", "accel_limit", "vel_limit", "disturbance_bound",
                  "disturbance_mode", "disturbance_pos_bound",
                  "realized_disturbance"),
        "obstacle": ("obstacle_start", "obstacle_velocity", "obstacle_radius",
                     "obstacle_disturbance_bound"),
        "avoidance": ("ellipse_a", "ellipse_b", "robust_ellipse_a", "robust_ellipse_b",
                      "box_corners", "robust_box_corners"),
        "cost": ("q_diag", "r_diag", "qc_diag", "rc_diag", "terminal_cost"),
        "gains": ("k_gain", "kc_gain"),
        "stochastic": ("sigma_w_diag", "risk", "detailed_sigma_std"),
        "horizons": ("ns", "nl"),
        "tube": ("tube_eps",),
        "solver": ("sqp_max_iter", "sqp_step_tol", "sqp_violation_tol",
                   "sqp_pos_step_limit", "soft_penalty"),
    }

    def to_dict(self) -> dict:
        return {section: {k: plain(getattr(self, k)) for k in keys}
                for section, keys in self._LAYOUT.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a table of sections, not {type(data).__name__}")
        known = {k: section for section, keys in cls._LAYOUT.items() for k in keys}
        kwargs = {}
        for section, content in data.items():
            if section not in cls._LAYOUT:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(content, dict):
                raise ConfigError(f"config section {section!r} must be a table")
            for k, v in content.items():
                if known.get(k) != section:
                    raise ConfigError(f"unknown config key {section}.{k}")
                kwargs[k] = _tuplify(v)
        return cls(**kwargs)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True, default_flow_style=None)

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        data = _parse(text, "the config")
        return cls.from_dict({} if data is None else data)

    def with_overrides(self, overrides: dict) -> "ScenarioConfig":
        """Apply dotted section.key=value overrides; unknown keys rejected."""
        data = self.to_dict()
        for dotted, value in overrides.items():
            parts = dotted.split(".")
            if len(parts) != 2 or parts[0] not in self._LAYOUT or parts[1] not in self._LAYOUT[parts[0]]:
                raise ConfigError(f"unknown config key {dotted!r}")
            data[parts[0]][parts[1]] = _parse(str(value), f"the value of {dotted}")
        return self.from_dict(data)


def _parse(text: str, what: str):
    """YAML text as data; a parse error is a one-line ConfigError naming what."""
    try:
        return yaml.load(io.StringIO(text), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} is not YAML: {' '.join(str(exc).split())}") from None


def _has_kind(value, default) -> bool:
    """Whether a config value has the kind of its field's default: a string
    for a string, an integer for an int and a real number for a float (never
    a bool), and for a tuple, such numbers in the default's nesting and
    lengths."""
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == len(default)
                and all(_has_kind(v, d) for v, d in zip(value, default)))
    if isinstance(default, str):
        return isinstance(value, str)
    kind = numbers.Integral if isinstance(default, int) else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _kind_name(default) -> str:
    if isinstance(default, tuple):
        return " x ".join(str(n) for n in np.shape(default)) + " floats"
    if isinstance(default, str):
        return "a string"
    return "an integer" if isinstance(default, int) else "a number"


def _tuplify(v):
    if isinstance(v, list):
        return tuple(_tuplify(x) for x in v)
    return v


def load_config(path: Optional[str]) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc.reason}") from None
    return ScenarioConfig.from_yaml(text)


# ---------------------------------------------------------------------------
# model construction


# Indices of the position (p_x, p_y) and the velocity (v_x, v_y) in the
# detailed state (p_x, v_x, p_y, v_y), the state order of detailed_model, and
# the matrices that select them.
POS, VEL = [0, 2], [1, 3]
POS_ROWS, VEL_ROWS = np.eye(4)[POS], np.eye(4)[VEL]


def state(pos, vel) -> np.ndarray:
    """Detailed state with position pos and velocity vel."""
    x = np.zeros(4)
    x[POS], x[VEL] = pos, vel
    return x


def detailed_model(cfg: ScenarioConfig) -> LinearModel:
    dt = cfg.dt
    a2 = np.array([[1.0, dt], [0.0, 1.0]])
    b2 = np.array([[0.5 * dt * dt], [dt]])
    A = np.block([[a2, np.zeros((2, 2))], [np.zeros((2, 2)), a2]])
    B = np.zeros((4, 2))
    B[:2, 0:1] = b2
    B[2:, 1:2] = b2
    w = cfg.disturbance_bound
    if cfg.disturbance_mode == "full":
        half = np.array([w, w, w, w])
    else:
        # velocity disturbance plus a small position component (keeps the
        # invariant set full-dimensional and sets the lane tightening)
        wp = cfg.disturbance_pos_bound
        half = np.array([wp, w, wp, w])
    return LinearModel(A=A, B=B, G=np.eye(4), dt=dt, disturbance=Zonotope.box(half))


def coarse_model(cfg: ScenarioConfig) -> LinearModel:
    """Single-integrator position model; its Gaussian noise enters only
    through the covariance schedule (sigma_w_diag)."""
    dt = cfg.dt
    return LinearModel(A=np.eye(2), B=dt * np.eye(2), G=np.eye(2), dt=dt)


def gain_pair(cfg: ScenarioConfig) -> GainPair:
    K = -np.array(cfg.k_gain, dtype=float)
    Kc = -np.array(cfg.kc_gain, dtype=float)
    return GainPair.build(detailed_model(cfg), coarse_model(cfg), K, Kc)


def state_set(cfg: ScenarioConfig) -> HPolytope:
    """Lane and velocity bounds (p_x is unconstrained)."""
    rows = [
        ([0.0, 0.0, 1.0, 0.0], cfg.lane_high),
        ([0.0, 0.0, -1.0, 0.0], -cfg.lane_low),
        ([0.0, 1.0, 0.0, 0.0], cfg.vel_limit),
        ([0.0, -1.0, 0.0, 0.0], cfg.vel_limit),
        ([0.0, 0.0, 0.0, 1.0], cfg.vel_limit),
        ([0.0, 0.0, 0.0, -1.0], cfg.vel_limit),
    ]
    A = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    return HPolytope(A, b)


def input_set(cfg: ScenarioConfig) -> HPolytope:
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = cfg.accel_limit * np.ones(4)
    return HPolytope(A, b)


# ---------------------------------------------------------------------------
# obstacles


@dataclass
class DynamicObstacle:
    position: np.ndarray
    velocity: np.ndarray
    disturbance_bound: float

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "DynamicObstacle":
        return cls(np.array(cfg.obstacle_start, dtype=float),
                   np.array(cfg.obstacle_velocity, dtype=float), cfg.obstacle_disturbance_bound)

    def advance(self, dt: float, vel_noise) -> None:
        self.position = self.position + dt * (self.velocity + np.asarray(vel_noise, dtype=float))


def predict_obstacle(obs: DynamicObstacle, horizon: int, dt: float) -> np.ndarray:
    """Constant-nominal-velocity extrapolation, positions for k = 0..horizon."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    ks = np.arange(horizon + 1)[:, None]
    return obs.position[None, :] + ks * dt * obs.velocity[None, :]


# ---------------------------------------------------------------------------
# constraint descriptors (consumed by the OCP assembler)


@dataclass(frozen=True)
class StageRow:
    """Linear row a . q_k <= ub on one stage quantity."""

    k: int
    quantity: str       # state | input | coarse_state | coarse_input | coarse_rate
    a: tuple
    ub: float
    label: str


@dataclass(frozen=True)
class EllipseKeepout:
    """Exterior-of-ellipse constraint on the stage-k position. The ellipse
    is centred on the obstacle's predicted stage-k position, which each
    closed-loop step supplies."""

    k: int
    quantity: str       # state_pos | coarse_state
    a: float
    b: float
    p: Optional[float]                 # None for robust (no tightening)
    sigma: Optional[tuple]             # 2x2 position covariance for chance
    label: str


@dataclass(frozen=True)
class BoxKeepout:
    """Exterior-of-box constraint on the stage-k position: its signed
    distance from the axis-aligned box its corners span is at least margin,
    plus the chance margin for sigma like an ellipse's."""

    k: int
    quantity: str       # state_pos | coarse_state
    corners: tuple
    margin: float
    p: Optional[float]                 # None for robust (no tightening)
    sigma: Optional[tuple]             # 2x2 position covariance for chance
    label: str


def build_rmpc_constraints(cfg: ScenarioConfig, tube_spec, k: int,
                           with_input: bool = True) -> list:
    """Robust-stage constraints for prediction step k: tightened boxes, the
    robust keep-out ellipse around the predicted obstacle, and the robust
    static box as a keep-out."""
    out: list = []
    for a, ub in zip(tube_spec.Xbar.normals, tube_spec.Xbar.offsets):
        out.append(StageRow(k, "state", tuple(a), float(ub), "xbar_box"))
    if with_input:
        for a, ub in zip(tube_spec.Ubar.normals, tube_spec.Ubar.offsets):
            out.append(StageRow(k, "input", tuple(a), float(ub), "ubar_box"))
    out.append(EllipseKeepout(k, "state_pos", cfg.robust_ellipse_a,
                              cfg.robust_ellipse_b, None, None, "robust_ellipse"))
    out.append(BoxKeepout(k, "state_pos", cfg.robust_box_corners, 0.0, None, None,
                          "robust_box"))
    return out


def build_smpc_constraints(cfg: ScenarioConfig, k: int, sigma,
                           model_kind: str = "coarse", with_input: bool = True) -> list:
    """Chance-stage constraints for prediction step k, deterministically
    tightened with the stage covariance sigma.

    model_kind selects the long-stage model: "coarse" (2-state, velocity
    inputs with magnitude and rate bounds) or "detailed" (4-state, velocity
    bounds become chance constraints and acceleration bounds stay hard).
    """
    sigma = np.asarray(sigma, dtype=float)
    p = cfg.risk
    out: list = []
    if model_kind == "coarse":
        pos_quantity, pos_sigma = "coarse_state", sigma
    elif model_kind == "detailed":
        pos_quantity = "state_pos"
        pos_sigma = POS_ROWS @ sigma @ POS_ROWS.T
    else:
        raise ValueError(f"unknown model_kind {model_kind!r}")

    # Lane bounds as chance half-planes (constant gradient, so gamma is fixed).
    g_y = chance.gamma(np.array([0.0, 1.0]), pos_sigma, p)
    if model_kind == "coarse":
        out.append(StageRow(k, "coarse_state", (0.0, 1.0), cfg.lane_high - g_y, "chance_lane"))
        out.append(StageRow(k, "coarse_state", (0.0, -1.0), -cfg.lane_low - g_y, "chance_lane"))
    else:
        out.append(StageRow(k, "state", (0.0, 0.0, 1.0, 0.0), cfg.lane_high - g_y, "chance_lane"))
        out.append(StageRow(k, "state", (0.0, 0.0, -1.0, 0.0), -cfg.lane_low - g_y, "chance_lane"))

    # Keep-outs: the static box, by the robot radius, and the ellipse around
    # the predicted obstacle position.
    pos_sigma = tuple(map(tuple, pos_sigma))
    out.append(BoxKeepout(k, pos_quantity, cfg.box_corners, cfg.robot_radius, p, pos_sigma,
                          "chance_box"))
    out.append(EllipseKeepout(k, pos_quantity, cfg.ellipse_a, cfg.ellipse_b, p, pos_sigma,
                              "chance_ellipse"))

    if model_kind == "coarse":
        if with_input:
            for a in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
                out.append(StageRow(k, "coarse_input", a, cfg.vel_limit, "coarse_input_box"))
            rate = cfg.accel_limit * cfg.dt
            for a in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
                out.append(StageRow(k, "coarse_rate", a, rate, "coarse_input_rate"))
    else:
        # Velocity bounds become chance constraints on the 4-state trajectory.
        g_v = chance.gamma(np.array([0.0, 1.0, 0.0, 0.0]), sigma, p)
        for a in ((0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0),
                  (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, -1.0)):
            out.append(StageRow(k, "state", a, cfg.vel_limit - g_v, "chance_velocity"))
        if with_input:
            for a in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
                out.append(StageRow(k, "input", a, cfg.accel_limit, "input_box"))
    return out


def collision_and_pass_check(robot_positions, obstacle_positions, cfg: ScenarioConfig):
    """Terminal flags from equal-length position histories.

    collided: center distance below the radius sum at any step (strict
    inequality: exact touching does not count), or lane bound violated.
    passed: robot clears the obstacle longitudinally by pass_clearance.
    reached: robot comes within finish_threshold of the target.
    """
    rp = np.asarray(robot_positions, dtype=float)
    op = np.asarray(obstacle_positions, dtype=float)
    if rp.shape != op.shape:
        raise ValueError("histories must have equal length")
    dmin = cfg.robot_radius + cfg.obstacle_radius
    dists = np.linalg.norm(rp - op, axis=1)
    lane_violated = bool(np.any((rp[:, 1] < cfg.lane_low) | (rp[:, 1] > cfg.lane_high)))
    collided = bool(np.any(dists < dmin)) or lane_violated
    passed = bool(np.any(rp[:, 0] > op[:, 0] + cfg.pass_clearance))
    target = np.asarray(cfg.target, dtype=float)
    reached = bool(np.any(np.linalg.norm(rp - target[None, :], axis=1) <= cfg.finish_threshold))
    return collided, passed, reached
