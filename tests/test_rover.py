import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow.harness import builtin_map_path
from fastslow.policy import (
    Action,
    BoundThresholdPolicy,
    CostSchedule,
    EpisodeLog,
    FastOnlyPolicy,
    OraclePolicy,
    RewardWeights,
    SlowOnlyPolicy,
    StepRecord,
    policy_oracle,
    step_cost,
    step_reward,
    summarize,
)
from fastslow.reach import StatReachConfig, UnsafeSet, bloat, loss_nav, reach_sampled
from fastslow.rover import (
    DEFAULT_Q,
    DEFAULT_R,
    RoverControl,
    RoverParams,
    RoverScenario,
    RoverState,
    bicycle_step,
    build_tracking_problem,
    build_uncertain_dynamics,
    evaluate_navigation,
    linearize,
    load_scenario,
    mpc_track,
    nominal_rollout,
    obstacles_from_points,
    run_navigation,
    scenario_from_dict,
    tracking_cost,
    wrap_angle,
)
from fastslow.seeding import role_rng
from fastslow.spline import cubic_spline_plan

P = RoverParams(wheelbase=1.0, dt=0.1, v_max=2.0, steer_max=1.0, accel_max=1.0)


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


def test_bicycle_straight_line():
    s = RoverState(0.0, 0.0, 0.5, 1.2)
    out = bicycle_step(s, RoverControl(0.0, 0.0), P)
    assert out.x == pytest.approx(1.2 * math.cos(0.5) * 0.1)
    assert out.y == pytest.approx(1.2 * math.sin(0.5) * 0.1)
    assert out.yaw == pytest.approx(0.5)
    assert out.v == pytest.approx(1.2)


def test_bicycle_stationary():
    s = RoverState(1.0, 2.0, 0.7, 0.0)
    out = bicycle_step(s, RoverControl(0.0, 0.3), P)
    assert (out.x, out.y, out.yaw, out.v) == (1.0, 2.0, pytest.approx(0.7), 0.0)


def test_bicycle_yaw_rate_hand_value():
    s = RoverState(0.0, 0.0, 0.0, 1.0)
    out = bicycle_step(s, RoverControl(0.0, math.pi / 4), P)
    assert out.yaw == pytest.approx(0.1)


def test_bicycle_clamps_speed():
    s = RoverState(0.0, 0.0, 0.0, 2.0)
    out = bicycle_step(s, RoverControl(5.0, 0.0), P)
    assert out.v == 2.0
    s = RoverState(0.0, 0.0, 0.0, 0.05)
    out = bicycle_step(s, RoverControl(-1.0, 0.0), P)
    assert out.v == 0.0


def test_linearize_known_entries():
    s = RoverState(0.3, -0.2, 0.4, 1.1)
    u = RoverControl(0.2, 0.1)
    A, B = linearize(s, u, P)
    assert A[0, 3] == pytest.approx(math.cos(0.4) * 0.1)
    assert A[1, 3] == pytest.approx(math.sin(0.4) * 0.1)
    assert B[3, 0] == pytest.approx(0.1)
    zero_v = RoverState(0.0, 0.0, 0.9, 0.0)
    A0, _ = linearize(zero_v, u, P)
    assert A0[0, 2] == 0.0 and A0[1, 2] == 0.0


def test_linearize_matches_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        s = RoverState(
            float(rng.uniform(-5, 5)),
            float(rng.uniform(-5, 5)),
            float(rng.uniform(-2.5, 2.5)),
            float(rng.uniform(0.2, 1.8)),
        )
        u = RoverControl(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)))
        A, B = linearize(s, u, P)
        sv, uv = s.as_vector(), u.as_vector()
        for j in range(4):
            dp, dm = sv.copy(), sv.copy()
            dp[j] += h
            dm[j] -= h
            fp = bicycle_step(RoverState(*dp), u, P).as_vector()
            fm = bicycle_step(RoverState(*dm), u, P).as_vector()
            col = (fp - fm) / (2 * h)
            assert np.max(np.abs(col - A[:, j])) < 1e-4
        for j in range(2):
            dp, dm = uv.copy(), uv.copy()
            dp[j] += h
            dm[j] -= h
            fp = bicycle_step(s, RoverControl(*dp), P).as_vector()
            fm = bicycle_step(s, RoverControl(*dm), P).as_vector()
            col = (fp - fm) / (2 * h)
            assert np.max(np.abs(col - B[:, j])) < 1e-4


def test_uncertain_dynamics_degenerate_eta():
    A, B = linearize(RoverState(0, 0, 0.2, 1.0), RoverControl(0.1, 0.05), P)
    lam = build_uncertain_dynamics(A, B, 0.0, (2,))
    assert np.array_equal(lam.lo, lam.hi)
    assert np.array_equal(lam.lo[:4, :4], A)
    assert np.array_equal(lam.lo[:4, 4:], B)
    assert np.array_equal(lam.lo[4:, 4:], np.eye(2))


def test_uncertain_dynamics_yaw_row_interval():
    A = np.zeros((4, 4))
    A[2, 2] = 0.1
    B = np.zeros((4, 2))
    lam = build_uncertain_dynamics(A, B, 0.05, (2,))
    assert lam.lo[2, 2] == pytest.approx(0.095)
    assert lam.hi[2, 2] == pytest.approx(0.105)
    # negative entries keep interval order
    A[2, 3] = -0.2
    lam = build_uncertain_dynamics(A, B, 0.05, (2,))
    assert lam.lo[2, 3] == pytest.approx(-0.21)
    assert lam.hi[2, 3] == pytest.approx(-0.19)


def test_uncertain_dynamics_only_yaw_row_widens():
    A, B = linearize(RoverState(0, 0, 0.4, 1.0), RoverControl(0.1, 0.2), P)
    lam = build_uncertain_dynamics(A, B, 0.05, (2,))
    width = lam.hi - lam.lo
    mask = np.zeros_like(width, dtype=bool)
    mask[2] = True
    assert np.all(width[~mask] == 0.0)
    assert np.any(width[2] > 0.0)


def test_mpc_on_reference_is_quiet():
    ref = cubic_spline_plan([(0.0, 0.0), (20.0, 0.0)], 0.1)
    s = RoverState(0.0, 0.0, 0.0, 1.0)
    controls = mpc_track(ref, s, 5, P, v_ref=1.0)
    for u in controls:
        assert math.hypot(u.accel, u.steer) <= 1e-6


def test_mpc_steers_toward_reference():
    ref = cubic_spline_plan([(0.0, 0.0), (20.0, 0.0)], 0.1)
    left = RoverState(2.0, 0.5, 0.0, 1.0)
    controls = mpc_track(ref, left, 5, P, v_ref=1.0)
    assert controls[0].steer < 0.0
    right = RoverState(2.0, -0.5, 0.0, 1.0)
    controls = mpc_track(ref, right, 5, P, v_ref=1.0)
    assert controls[0].steer > 0.0

    # brute-force the first steer on the quadratic model (a few steps so the
    # steer -> yaw -> position coupling registers) and check the sign agrees
    prob = build_tracking_problem(ref, left, 3, P, 1.0)
    best, best_cost = None, math.inf
    for steer in np.linspace(-0.5, 0.5, 201):
        deltas = [np.array([0.0, steer]), np.zeros(2), np.zeros(2)]
        cost = tracking_cost(prob, deltas, DEFAULT_Q, DEFAULT_R)
        if cost < best_cost:
            best, best_cost = steer, cost
    assert best < 0.0


def test_mpc_beats_zero_controls_on_linear_model():
    ref = cubic_spline_plan([(0.0, 0.0), (8.0, 0.0), (14.0, 4.0), (20.0, 4.0)], 0.1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = RoverState(
            float(rng.uniform(0, 12)),
            float(rng.uniform(-0.5, 2.5)),
            float(rng.uniform(-0.5, 0.8)),
            float(rng.uniform(0.5, 1.5)),
        )
        prob = build_tracking_problem(ref, s, 5, P, 1.0)
        controls = mpc_track(ref, s, 5, P, v_ref=1.0)
        deltas = [u.as_vector() - nom.as_vector() for u, nom in zip(controls, prob.nominal_controls)]
        if any(abs(u.steer) >= P.steer_max or abs(u.accel) >= P.accel_max for u in controls):
            continue  # clamped solutions are not the unconstrained optimum
        zero = [np.zeros(2)] * 5
        assert tracking_cost(prob, deltas, DEFAULT_Q, DEFAULT_R) <= tracking_cost(
            prob, zero, DEFAULT_Q, DEFAULT_R
        ) + 1e-9


def test_mpc_validation():
    ref = cubic_spline_plan([(0.0, 0.0), (5.0, 0.0)], 0.1)
    with pytest.raises(ValueError):
        mpc_track(ref, RoverState(0, 0, 0, 1), 0, P)


def _tiny_scenario(obstacles=(), step_cap=400, waypoints=((0.0, 0.0), (10.0, 0.0))):
    """A straight map; `obstacles` lists (lo, hi) pairs of (x, y) boxes."""
    bounds = np.array(obstacles, dtype=float).reshape(-1, 2, 2)
    return RoverScenario(
        name="tiny",
        waypoints=np.array(waypoints),
        obstacles=UnsafeSet(bounds[:, 0], bounds[:, 1], (0, 1)),
        initial_state=RoverState(0.0, 0.0, 0.0, 0.0),
        goal_tolerance=0.6,
        reach_horizon=3,
        fast_cfg=StatReachConfig(0.6, 0.3, 6, 3),
        slow_cfg=StatReachConfig(0.85, 0.1, 6, 3),
        weights=RewardWeights(0.7, 0.3),
        costs=CostSchedule(0.01, 0.05),
        params=RoverParams(),
        step_cap=step_cap,
    )


POLICIES = {
    "fast": FastOnlyPolicy,
    "slow": SlowOnlyPolicy,
    "our_selector": lambda: BoundThresholdPolicy(lambda verdict: verdict),
    "oracle": OraclePolicy,
}
BLOCKING = ([4.0, -1.0], [6.0, 1.0])
# On a bend the sampled yaw-row entries spread the reach sets, so the keyed
# draws show in the boxes; the obstacle sits next to the bend.
BEND = ((0.0, 0.0), (5.0, 0.0), (10.0, 3.0))
NEAR_BEND = ([6.5, 1.3], [7.5, 2.0])


def _navigate(scn, kind, seed, bloat_mu):
    return run_navigation(evaluate_navigation(scn, nominal_rollout(scn), seed, bloat_mu), POLICIES[kind]())


def test_navigation_reaches_goal_on_free_map():
    nav = _navigate(_tiny_scenario(), "our_selector", 7, bloat_mu=0.01)
    assert nav.reached_goal and not nav.flagged_unsafe
    assert nav.summary.slow_query_fraction == 0.0
    assert nav.summary.mean_loss == 0.0


def test_navigation_trajectories_match_across_policies_when_safe():
    scn = _tiny_scenario()
    nav_sel = _navigate(scn, "our_selector", 11, bloat_mu=0.01)
    nav_slow = _navigate(scn, "slow", 11, bloat_mu=0.01)
    nav_fast = _navigate(scn, "fast", 11, bloat_mu=0.01)
    t_sel = nav_sel.trajectory()
    assert np.array_equal(t_sel, nav_slow.trajectory())
    assert np.array_equal(t_sel, nav_fast.trajectory())


def test_navigation_stops_and_flags_on_blocking_obstacle():
    nav = _navigate(_tiny_scenario([BLOCKING]), "slow", 3, bloat_mu=0.0)
    assert nav.flagged_unsafe and not nav.reached_goal
    assert nav.states[-1].v == 0.0
    assert nav.records.loss[-1] == math.inf
    assert nav.summary.cumulative_reward == -math.inf


def test_navigation_step_cap_reports_nonconvergence():
    nav = _navigate(_tiny_scenario(step_cap=5), "fast", 1, bloat_mu=0.0)
    assert nav.hit_step_cap and not nav.reached_goal and not nav.flagged_unsafe


# -- the per-step loop that one rollout per map replaced, kept as the reference --


def _reference_decide(kind, fast_bloated, slow_sets, unsafe, weights, costs):
    if kind == "fast":
        return Action.USE_FAST, 0.0
    if kind == "slow":
        return Action.INVOKE_SLOW, 0.0
    fast_hit = loss_nav(fast_bloated, unsafe)
    if kind == "our_selector":
        return (Action.INVOKE_SLOW, math.inf) if fast_hit == math.inf else (Action.USE_FAST, 0.0)
    loss_slow = loss_nav(slow_sets(), unsafe)
    gain = math.inf if (fast_hit == math.inf and loss_slow == 0.0) else 0.0
    return policy_oracle(fast_hit, loss_slow, weights, costs), gain


def _reference_navigation(scn, kind, seed, bloat_mu):
    """Plan, linearize, reach and decide at every step of one episode; the
    slow routine runs only when the decision needs it."""
    ref = scn.reference()
    state, goal = scn.initial_state, scn.goal()
    states, records, reach = [state], [], []
    reached = flagged = False
    for t in range(scn.step_cap):
        if math.hypot(state.x - goal[0], state.y - goal[1]) <= scn.goal_tolerance:
            reached = True
            break
        controls = mpc_track(ref, state, scn.mpc_horizon, scn.params, scn.cruise_speed)
        u0 = controls[0]
        A, B = linearize(state, u0, scn.params)
        lam = build_uncertain_dynamics(A, B, scn.params.yaw_uncertainty, scn.perturb_rows)
        z0 = np.concatenate([state.as_vector(), u0.as_vector()])
        fast = reach_sampled(lam, z0, scn.fast_cfg, role_rng(seed, t, "fast"))
        fast_bloated = bloat(fast, bloat_mu)
        slow = []

        def slow_sets():
            if not slow:
                slow.append(reach_sampled(lam, z0, scn.slow_cfg, role_rng(seed, t, "slow")))
            return slow[0]

        action, gain = _reference_decide(kind, fast_bloated, slow_sets, scn.obstacles, scn.weights, scn.costs)
        loss = loss_nav(slow_sets() if action == Action.INVOKE_SLOW else fast_bloated, scn.obstacles)
        reward = step_reward(action, loss, scn.weights, scn.costs)
        records.append(StepRecord(t, action, loss, step_cost(action, scn.costs), reward, gain))
        reach.append((fast, slow[0] if slow else None))
        if loss == math.inf:
            flagged = True
            brake = RoverControl(-scn.params.accel_max, 0.0)
            while state.v > 0.0:
                state = bicycle_step(state, brake, scn.params)
                states.append(state)
            break
        state = bicycle_step(state, u0, scn.params)
        states.append(state)
    return states, records, reach, reached, flagged


def _same_sets(a, b) -> bool:
    return np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


@settings(deadline=None, max_examples=15)
@given(
    case=st.sampled_from(["free", "blocking", "step_cap", "bend"]),
    seed=st.integers(0, 2**32 - 1),
    bloat_mu=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)
def test_shared_rollout_reproduces_the_per_step_loop(case, seed, bloat_mu):
    scn = {
        "free": _tiny_scenario(),
        "blocking": _tiny_scenario([BLOCKING]),
        "step_cap": _tiny_scenario(step_cap=5),
        "bend": _tiny_scenario([NEAR_BEND], waypoints=BEND),
    }[case]
    evaluation = evaluate_navigation(scn, nominal_rollout(scn), seed, bloat_mu)
    for kind, make_policy in POLICIES.items():
        nav = run_navigation(evaluation, make_policy())
        states, records, reach, reached, flagged = _reference_navigation(scn, kind, seed, bloat_mu)
        for got, want in zip(nav.records.columns(), EpisodeLog.from_records(records).columns()):
            assert list(map(repr, got.tolist())) == list(map(repr, want.tolist())), kind
        assert nav.summary == summarize(records), kind
        assert list(map(repr, nav.states)) == list(map(repr, states)), kind
        assert (nav.reached_goal, nav.flagged_unsafe, nav.hit_step_cap) == (reached, flagged, not (reached or flagged))
        for t, (fast, slow) in enumerate(reach):
            assert _same_sets(evaluation.fast[t], fast), (kind, t)
            assert slow is None or _same_sets(evaluation.slow[t], slow), (kind, t)


def test_obstacles_from_points_bins_cells():
    pts = np.array([[2.7, 3.1], [0.2, 0.3], [0.4, 0.1]])
    lo, hi = obstacles_from_points(pts, 1.0)
    # one cell per occupied unit square, in np.unique order
    assert np.array_equal(lo, [[0.0, 0.0], [2.0, 3.0]]) and np.array_equal(hi, [[1.0, 1.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        obstacles_from_points(np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        obstacles_from_points(pts, 0.0)


def test_scenario_from_points_csv(tmp_path):
    csv_path = tmp_path / "cloud.csv"
    csv_path.write_text("x,y\n8.0,8.0\n1.1,1.2\n1.3,1.4\n")
    scn = scenario_from_dict(
        {
            "name": "csv",
            "waypoints": [[0.0, 0.0], [10.0, 0.0]],
            "obstacles": [{"lo": [4.0, -1.0], "hi": [5.0, 1.0]}],
            "points_csv": str(csv_path),
            "cell_size": 0.5,
            "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
            "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
        }
    )
    # the inline obstacle first, then the cells in np.unique order: the two
    # nearby points share one 0.5 m cell, the far point gets its own
    assert np.array_equal(scn.obstacles.lo, [[4.0, -1.0], [1.0, 1.0], [8.0, 8.0]])
    assert np.array_equal(scn.obstacles.hi, [[5.0, 1.0], [1.5, 1.5], [8.5, 8.5]])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_scenario_validation():
    with pytest.raises(ValueError):
        _tiny = scenario_from_dict(
            {
                "name": "bad",
                "waypoints": [[0.0, 0.0]],
                "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
                "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
            }
        )
    with pytest.raises(ValueError):
        scenario_from_dict(
            {
                "name": "bad",
                "waypoints": [[0.0, 0.0], [1.0, 0.0]],
                "fast_reach": {"confidence": 0.9, "type1_error": 0.3},
                "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
            }
        )


def test_scenario_perturb_rows_override():
    scn = scenario_from_dict(
        {
            "name": "rows",
            "waypoints": [[0.0, 0.0], [10.0, 0.0]],
            "perturb_rows": [2, 3],
            "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
            "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
        }
    )
    assert scn.perturb_rows == (2, 3)
    A, B = linearize(RoverState(0, 0, 0.3, 1.0), RoverControl(0.2, 0.1), scn.params)
    lam = build_uncertain_dynamics(A, B, scn.params.yaw_uncertainty, scn.perturb_rows)
    width = lam.hi - lam.lo
    assert np.any(width[3] > 0.0)
    assert np.all(width[0] == 0.0) and np.all(width[1] == 0.0)


def test_builtin_maps_load():
    for name in ("obstacle_free", "obstacle_adjacent"):
        scn = load_scenario(builtin_map_path(name))
        assert scn.name == name
        assert scn.waypoints.shape[0] >= 2
    free = load_scenario(builtin_map_path("obstacle_free"))
    assert free.obstacles.lo.shape == free.obstacles.hi.shape == (0, 2)
    adj = load_scenario(builtin_map_path("obstacle_adjacent"))
    assert adj.obstacles.lo.shape == adj.obstacles.hi.shape == (1, 2)
