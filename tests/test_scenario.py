"""Scenario layer: configuration round trips, obstacle prediction, stage
constraint builders, and the terminal pass/collision bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import granmpc.scenario as sc
from granmpc import chance
from granmpc.sets import EmptySetError

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _floats(n):
    return st.tuples(*[FLOATS] * n)


@st.composite
def configs(draw):
    """Valid configurations: every float field any finite float, the
    validated fields within their ranges, and both values of each mode."""
    ns, nl = draw(st.tuples(st.integers(0, 40), st.integers(0, 40))
                  .filter(lambda h: h[0] + h[1] > 0))
    mode = draw(st.sampled_from(("velocity", "full")))
    return sc.ScenarioConfig(
        start=draw(_floats(2)), target=draw(_floats(2)),
        robot_radius=draw(NONNEGATIVE), max_steps=draw(st.integers(1, 10 ** 6)),
        dt=draw(st.floats(min_value=1e-300, max_value=1e300)),
        disturbance_bound=draw(POSITIVE),
        # the position bound sizes the disturbance box only in velocity mode
        disturbance_pos_bound=draw(POSITIVE if mode == "velocity" else NONNEGATIVE),
        disturbance_mode=mode,
        realized_disturbance=draw(st.sampled_from(("uniform", "truncated_gaussian"))),
        obstacle_velocity=draw(_floats(2)),
        box_corners=draw(st.tuples(*[_floats(2)] * 4)),
        q_diag=draw(_floats(4)), r_diag=draw(_floats(2)),
        terminal_cost=draw(st.sampled_from(("target", "origin"))),
        k_gain=draw(st.tuples(_floats(4), _floats(4))),
        sigma_w_diag=draw(st.tuples(NONNEGATIVE, NONNEGATIVE)),
        risk=draw(st.floats(min_value=0.5, max_value=1.0, exclude_max=True)),
        ns=ns, nl=nl, tube_eps=draw(POSITIVE), soft_penalty=draw(POSITIVE))


def _cli_text(value) -> str:
    """A value as written after --set section.key= on the command line."""
    if isinstance(value, tuple):
        return "[" + ", ".join(_cli_text(v) for v in value) + "]"
    return str(value)


def test_config_yaml_roundtrip_is_canonical(cfg):
    text = cfg.to_yaml()
    again = sc.ScenarioConfig.from_yaml(text)
    assert again == cfg
    assert again.to_yaml() == text


@PROPERTY
@given(configs())
def test_config_yaml_roundtrip_property(c):
    assert sc.ScenarioConfig.from_yaml(c.to_yaml()) == c


@PROPERTY
@given(configs())
def test_overrides_read_back_property(c):
    # every key overridden with the text of the generated value reads back
    # as that value
    overrides = {f"{section}.{key}": _cli_text(getattr(c, key))
                 for section, keys in sc.ScenarioConfig._LAYOUT.items() for key in keys}
    assert sc.ScenarioConfig().with_overrides(overrides) == c


def test_config_file_loading(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(sc.load_config(None).to_yaml(), encoding="utf-8")
    cfg = sc.load_config(str(p))
    assert cfg == sc.load_config(None)


def test_overrides_coerce_types(cfg):
    c = cfg.with_overrides({"robot.dt": "0.1", "horizons.ns": "5",
                            "cost.terminal_cost": "origin"})
    assert c.dt == 0.1 and isinstance(c.dt, float)
    assert c.ns == 5 and isinstance(c.ns, int)
    assert c.terminal_cost == "origin"
    # source object untouched
    assert cfg.dt == 0.2


def test_overrides_reject_unknown_key(cfg):
    with pytest.raises(sc.ConfigError):
        cfg.with_overrides({"robot.warp_drive": "1"})
    with pytest.raises(sc.ConfigError):
        cfg.with_overrides({"nonsense": "1"})
    # a removed key (the generator cap nothing read, the line search's
    # halvings) is an error to override, not a no-op
    for key in ("tube.generator_cap", "solver.sqp_max_halvings"):
        with pytest.raises(sc.ConfigError, match="unknown config key"):
            cfg.with_overrides({key: "8"})


def test_config_validation():
    with pytest.raises(sc.ConfigError):
        sc.ScenarioConfig(ns=0, nl=0)
    with pytest.raises(sc.ConfigError):
        sc.ScenarioConfig(risk=0.3)
    with pytest.raises(sc.ConfigError):
        sc.ScenarioConfig(disturbance_mode="sideways")
    with pytest.raises(sc.ConfigError):
        sc.ScenarioConfig(dt=-0.1)
    # with no SQP iteration the unsolved start would be executed
    for field, bad, edge in (("sigma_w_diag", (0.1, -0.01), (0.0, 0.0)),
                             ("detailed_sigma_std", -0.1, 0.0),
                             ("sqp_max_iter", 0, 1)):
        with pytest.raises(sc.ConfigError, match=field):
            sc.ScenarioConfig(**{field: bad})
        assert getattr(sc.ScenarioConfig(**{field: edge}), field) == edge
    for bad in (0.1, (0.1, 0.1, 0.1)):
        with pytest.raises(sc.ConfigError, match="sigma_w_diag"):
            sc.ScenarioConfig(sigma_w_diag=bad)
    # a semi-axis, step limit or penalty <= 0 would reach the solver as a
    # division by zero, a frozen step or free slacks, and a tube, obstacle or
    # disturbance box of size 0 is no set
    for field in ("ellipse_a", "ellipse_b", "robust_ellipse_a", "robust_ellipse_b",
                  "sqp_pos_step_limit", "soft_penalty", "tube_eps", "obstacle_radius",
                  "disturbance_bound", "disturbance_pos_bound"):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(sc.ConfigError, match=f"\\.{field} must be positive"):
                sc.ScenarioConfig(**{field: bad})
        assert getattr(sc.ScenarioConfig(**{field: 1e-9}), field) == 1e-9
    # a negative bound would run as its magnitude (or give numpy an empty
    # range), and a negative tolerance can never be met; the disturbance
    # box's position bound, unused in full mode, may be zero there
    for field, extra in (("robot_radius", {}), ("finish_threshold", {}),
                         ("disturbance_pos_bound", {"disturbance_mode": "full"}),
                         ("obstacle_disturbance_bound", {}), ("sqp_step_tol", {}),
                         ("sqp_violation_tol", {})):
        for bad in (-1e-9, -1.0, float("nan")):
            with pytest.raises(sc.ConfigError, match=f"\\.{field} must be nonnegative"):
                sc.ScenarioConfig(**{field: bad}, **extra)
        assert getattr(sc.ScenarioConfig(**{field: 0.0}, **extra), field) == 0.0
    for field, n in (("q_diag", 4), ("r_diag", 2), ("qc_diag", 2), ("rc_diag", 2)):
        for bad in ((1.0,) * (n - 1), (1.0,) * (n + 1), 1.0, ("a",) * n, ((1.0,) * n,)):
            with pytest.raises(sc.ConfigError, match=f"cost.{field} must be {n} floats"):
                sc.ScenarioConfig(**{field: bad})
    # every field takes its default's kind, and a bool is no number
    for field, bad, kind in (("ns", True, "an integer"), ("max_steps", 2.0, "an integer"),
                             ("dt", False, "a number"), ("risk", None, "a number"),
                             ("terminal_cost", 1, "a string"),
                             ("start", (0.0, True), "2 floats"),
                             ("box_corners", ((1.0, 2.0),) * 3, "4 x 2 floats"),
                             ("k_gain", (1.0,) * 8, "2 x 4 floats")):
        with pytest.raises(sc.ConfigError, match=f"\\.{field} must be {kind}$"):
            sc.ScenarioConfig(**{field: bad})
    assert sc.ScenarioConfig(dt=1, start=(0, 0)).dt == 1


def test_disturbance_modes(cfg):
    full = sc.detailed_model(cfg.with_overrides({"robot.disturbance_mode": "full"}))
    w = cfg.disturbance_bound
    assert np.allclose(full.disturbance.interval_hull(), [w, w, w, w])
    vel = sc.detailed_model(cfg)
    wp = cfg.disturbance_pos_bound
    assert np.allclose(vel.disturbance.interval_hull(), [wp, w, wp, w])


def test_obstacle_prediction_constant_velocity(cfg):
    obs = sc.DynamicObstacle.from_config(cfg)
    pred = sc.predict_obstacle(obs, 5, cfg.dt)
    assert pred.shape == (6, 2)
    v = np.array(cfg.obstacle_velocity)
    for k in range(6):
        assert np.allclose(pred[k], np.array(cfg.obstacle_start) + k * cfg.dt * v)
    with pytest.raises(ValueError):
        sc.predict_obstacle(obs, -1, cfg.dt)


def test_obstacle_advance_applies_noise(cfg):
    obs = sc.DynamicObstacle.from_config(cfg)
    p0 = obs.position.copy()
    noise = np.array([0.05, -0.02])
    obs.advance(cfg.dt, noise)
    assert np.allclose(obs.position,
                       p0 + cfg.dt * (np.array(cfg.obstacle_velocity) + noise))


def test_state_and_input_sets(cfg):
    X = sc.state_set(cfg)
    assert X.normals.shape == (6, 4)

    def contains(P, x):
        return bool(np.all(P.normals @ x <= P.offsets))
    assert contains(X, [100.0, 0.0, 2.5, 0.0])        # p_x unconstrained
    assert not contains(X, [0.0, 0.0, 2.6, 0.0])      # lane
    assert not contains(X, [0.0, 3.1, 0.0, 0.0])      # velocity
    U = sc.input_set(cfg)
    assert contains(U, [3.0, -3.0])
    assert not contains(U, [3.1, 0.0])
    # checked for emptiness although unbounded in p_x
    with pytest.raises(EmptySetError):
        sc.state_set(cfg.with_overrides({"world.lane_low": "3.0"}))


def test_rmpc_constraints_content(cfg, tube):
    rows = sc.build_rmpc_constraints(cfg, tube, k=3)
    labels = [r.label for r in rows]
    assert labels.count("xbar_box") == 6
    assert labels.count("ubar_box") == 4
    assert labels.count("robust_ellipse") == 1
    assert labels.count("robust_box") == 1
    ell = [r for r in rows if r.label == "robust_ellipse"][0]
    assert ell.a == cfg.robust_ellipse_a and ell.p is None
    box = [r for r in rows if r.label == "robust_box"][0]
    assert box.corners == cfg.robust_box_corners
    assert box.margin == 0.0 and box.p is None and box.sigma is None
    assert all(r.k == 3 for r in rows)


def test_smpc_constraints_tighten_with_risk(cfg, setup_granular):
    sigma = setup_granular.coarse_sched[5]
    lo = sc.build_smpc_constraints(cfg.with_overrides({"stochastic.risk": "0.6"}),
                                   5, sigma)
    hi = sc.build_smpc_constraints(cfg.with_overrides({"stochastic.risk": "0.95"}),
                                   5, sigma)
    lane_lo = [r.ub for r in lo if getattr(r, "label", "") == "chance_lane"]
    lane_hi = [r.ub for r in hi if getattr(r, "label", "") == "chance_lane"]
    assert all(h < l for l, h in zip(lane_lo, lane_hi))


def test_smpc_constraints_lane_margin_value(cfg, setup_granular):
    sigma = setup_granular.coarse_sched[3]
    rows = sc.build_smpc_constraints(cfg, 3, sigma)
    g = chance.gamma(np.array([0.0, 1.0]), sigma, cfg.risk)
    ubs = sorted(r.ub for r in rows if getattr(r, "label", "") == "chance_lane")
    assert ubs == pytest.approx(sorted([cfg.lane_high - g, -cfg.lane_low - g]))


def test_smpc_constraints_detailed_kind(cfg, setup_rsmpc):
    std = cfg.detailed_sigma_std
    sigma = chance.propagate_covariance(setup_rsmpc.gains.Phi, np.eye(4), std * std * np.eye(4),
                                        np.zeros((4, 4)), cfg.nl)[4]
    rows = sc.build_smpc_constraints(cfg, 4, sigma, model_kind="detailed")
    labels = [r.label for r in rows]
    assert labels.count("chance_velocity") == 4
    assert labels.count("input_box") == 4
    assert "coarse_input_box" not in labels
    with pytest.raises(ValueError):
        sc.build_smpc_constraints(cfg, 4, sigma, model_kind="huge")


def test_collision_and_pass_check(cfg):
    target = np.array(cfg.target)
    far = np.array([0.0, 10.0])
    # robot sails past a distant obstacle and reaches the target
    rp = np.array([[0.0, 0.0], [10.0, 0.0], target])
    op = np.array([far, far, far])
    collided, passed, reached = sc.collision_and_pass_check(rp, op, cfg)
    assert not collided and passed and reached
    # exact touching is not a collision
    d = cfg.robot_radius + cfg.obstacle_radius
    rp = np.array([[0.0, 0.0]])
    op = np.array([[d, 0.0]])
    collided, _, _ = sc.collision_and_pass_check(rp, op, cfg)
    assert not collided
    collided, _, _ = sc.collision_and_pass_check(rp, op - 1e-6, cfg)
    assert collided
    # leaving the lane counts as a failure even without contact
    rp = np.array([[0.0, cfg.lane_high + 0.01]])
    op = np.array([far])
    collided, _, _ = sc.collision_and_pass_check(rp, op, cfg)
    assert collided
    with pytest.raises(ValueError):
        sc.collision_and_pass_check(np.zeros((2, 2)), np.zeros((3, 2)), cfg)


def test_gain_pair_matches_config(cfg):
    gains = sc.gain_pair(cfg)
    assert np.allclose(gains.K, -np.array(cfg.k_gain))
    assert np.allclose(gains.Kc, -np.array(cfg.kc_gain))
