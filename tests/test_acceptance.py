"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures once its assertions hold."""
import json
import math
import time

import numpy as np

from fastslow.dnnproxy import (
    MULTIPLICATIVE,
    ProbabilisticBound,
    make_proxy_pair,
    select_dnn,
)
from fastslow.harness import (
    DEFAULTS,
    POLICY_ORDER,
    config_from_dict,
    default_config,
    resolve_map,
    run_suite,
)
from fastslow.linreg import generate_coreset_pair, loss_bound_lr, loss_l2, select_lr
from fastslow.policy import CostSchedule, RewardWeights
from fastslow.reach import (
    StatReachConfig,
    bloat,
    calibrate_bloat,
    example_interval_matrix,
    loss_nav,
    reach_sampled,
    required_samples,
)
from fastslow.rover import RoverControl, RoverState, bicycle_step, linearize, nominal_rollout
from fastslow.seeding import rng_for


def _rel_gain(ours: float, other: float) -> float:
    return (ours - other) / abs(other)


def test_criterion_1_linreg_policy_ordering(tmp_path):
    t0 = time.monotonic()
    report = run_suite(default_config("linreg", out_dir=tmp_path / "linreg"))
    elapsed = time.monotonic() - t0
    means = {p: report.aggregates[p]["cumulative_reward"]["mean"] for p in POLICY_ORDER}
    assert means["oracle"] >= means["our_selector"]
    for bench in ("fast", "slow", "random"):
        assert means["our_selector"] >= means[bench]
        assert _rel_gain(means["our_selector"], means[bench]) >= 0.05, bench
    assert elapsed <= 60.0
    gains = {b: round(_rel_gain(means["our_selector"], means[b]), 3) for b in ("fast", "slow", "random")}
    print(f"ACCEPTANCE 1 PASS: linreg ordering holds, gains {gains}, {elapsed:.1f}s")


def test_criterion_2_decision_equivalence():
    rng = np.random.default_rng(202)
    eps = 0.1
    w_lr, c_lr = RewardWeights(1.0, 0.003), CostSchedule(1.0, 2.5)
    bound = ProbabilisticBound(0.2, 0.1, 1.0)
    w_dnn, c_dnn = RewardWeights(1.0, 3.0), CostSchedule(0.0, 0.017)
    mismatches = 0
    for _ in range(1000):
        y = rng.uniform(0.0, 1.2, size=4)
        # straight-line indicator, written out independently of the library
        lr_ref = 1 if (w_lr.beta / w_lr.alpha) * c_lr.c_slow < eps * eps * float(y @ y) / (1 + eps) ** 2 else 0
        if lr_ref != int(select_lr(y, eps, w_lr, c_lr)):
            mismatches += 1
        dnn_ref = (
            1
            if (w_dnn.beta / w_dnn.alpha) * c_dnn.c_slow
            < bound.delta * bound.m_loss_cap
            + (1 - bound.delta) * bound.epsilon**2 * float(y @ y) / (1 - bound.epsilon) ** 2
            else 0
        )
        if dnn_ref != int(select_dnn(y, bound, w_dnn, c_dnn)):
            mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 2 PASS: 1000 selector decisions match the straight-line indicators exactly")


def test_criterion_3_bound_validity():
    eps = 0.1
    pair = generate_coreset_pair(rng_for(303, 0), 3, 4, eps)
    xs = np.abs(rng_for(303, 1).standard_normal((10_000, 3)))
    for x in xs:
        y_fast, y_slow = pair.fast_output(x), pair.slow(x)
        assert np.all(y_slow <= y_fast) and np.all(y_fast <= (1 + eps) * y_slow)
        assert loss_l2(y_fast, y_slow) <= loss_bound_lr(y_fast, eps) + 1e-15

    b = ProbabilisticBound(0.2, 0.1, 0.8)
    proxy = make_proxy_pair(rng_for(303, 2), 4, 3, b)
    xs = rng_for(303, 3).normal(size=(10_000, 4))
    mult = 0
    for i, x in enumerate(xs):
        y_slow = proxy.slow_output(x)
        y_fast, branch = proxy.fast_with_branch(x, i)
        loss = loss_l2(y_fast, y_slow)
        if branch == MULTIPLICATIVE:
            mult += 1
            assert loss <= b.epsilon**2 * float(y_fast @ y_fast) / (1 - b.epsilon) ** 2 + 1e-12
        else:
            assert loss <= b.m_loss_cap + 1e-12
    freq = mult / len(xs)
    sigma = math.sqrt(b.delta * (1 - b.delta) / len(xs))
    assert abs(freq - (1 - b.delta)) <= 3 * sigma
    print(
        f"ACCEPTANCE 3 PASS: coreset sandwich and loss bounds exact over 10^4 inputs, "
        f"branch frequency {freq:.4f} within 3 sigma of {1 - b.delta}"
    )


def test_criterion_4_example_system_exactness():
    t0 = time.monotonic()
    lam = example_interval_matrix()
    n_samples = required_samples(0.9, 0.05, 2, 1)
    assert n_samples == 174
    cfg = StatReachConfig(0.9, 0.05, 2, 1)
    min_width = math.inf
    for seed in range(50):
        res = reach_sampled(lam, np.array([0.0, 1.0]), cfg, rng_for(404, seed))
        lo, hi = res.lo[0], res.hi[0]
        assert lo[0] >= -2.0 and hi[0] <= 2.0
        assert lo[1] == 6.0 and hi[1] == 6.0
        min_width = min(min_width, hi[0] - lo[0])
    assert min_width >= 3.8
    elapsed = time.monotonic() - t0
    assert elapsed <= 5.0
    print(
        f"ACCEPTANCE 4 PASS: 50 hulls stayed inside [-2,2], min width {min_width:.3f} >= 3.8, "
        f"second coordinate exactly 6 ({elapsed:.2f}s)"
    )


def test_criterion_5_statistical_containment():
    t0 = time.monotonic()
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 5)
    assert cfg.n_samples == 1196
    x0 = np.array([0.0, 1.0])
    hulls_ok = 0
    rates = []
    for c in range(50):
        res = reach_sampled(lam, x0, cfg, rng_for(505, c, 0))
        fresh = rng_for(505, c, 1).uniform(lam.lo, lam.hi, size=(200, 2, 2))
        states = np.broadcast_to(x0, (200, 2)).copy()
        contained = np.ones(200, dtype=bool)
        for k in range(5):
            states = np.einsum("nij,nj->ni", fresh, states)
            contained &= np.all((states >= res.lo[k]) & (states <= res.hi[k]), axis=1)
        rate = contained.mean()
        rates.append(rate)
        hulls_ok += rate >= 0.9
    elapsed = time.monotonic() - t0
    assert hulls_ok >= 45
    assert elapsed <= 60.0
    print(
        f"ACCEPTANCE 5 PASS: {hulls_ok}/50 hulls contained >=90% of 200 fresh trajectories "
        f"(median rate {np.median(rates):.3f}, {elapsed:.1f}s)"
    )


def test_criterion_6_calibration_soundness():
    lam = example_interval_matrix()
    fast_cfg = StatReachConfig(0.75, 0.15, 2, 5)
    slow_cfg = StatReachConfig(0.9, 0.05, 2, 5)
    centers = rng_for(606, 0).uniform(-0.5, 0.5, size=(40, 2)) + np.array([0.0, 1.0])

    def paired(i):
        fast = reach_sampled(lam, centers[i], fast_cfg, rng_for(606, 1, i))
        slow = reach_sampled(lam, centers[i], slow_cfg, rng_for(606, 2, i))
        return fast, slow

    def contained(fast, slow):
        # every timestep box of the slow set inside the bloated fast one
        bloated = bloat(fast, mu)
        return bool(np.all(bloated.lo <= slow.lo) and np.all(slow.hi <= bloated.hi))

    calibration = [paired(i) for i in range(20)]
    mu = calibrate_bloat(calibration).mu
    for fast, slow in calibration:
        assert contained(fast, slow)
    failures = 0
    for i in range(20, 40):
        failures += not contained(*paired(i))
    assert failures <= 2
    print(
        f"ACCEPTANCE 6 PASS: calibration containment exact (mu={mu:.5f}), "
        f"held-out failures {failures}/20 <= 10%"
    )


def test_criterion_7_rover_safety_and_efficiency(tmp_path):
    t0 = time.monotonic()
    report = run_suite(default_config("rover", out_dir=tmp_path / "rover"))

    for map_name in ("obstacle_free", "obstacle_adjacent"):
        rows = {
            p: [r for r in report.per_trial if r["map"] == map_name and r["policy"] == p]
            for p in POLICY_ORDER
        }
        sel = rows["our_selector"]
        assert all(r["reached_goal"] for r in sel)
        assert not any(r["flagged_unsafe"] for r in sel)
        if map_name == "obstacle_free":
            assert all(r["slow_query_fraction"] == 0.0 for r in sel)
        else:
            assert all(0.0 < r["slow_query_fraction"] < 1.0 for r in sel)
        # no silent divergence: every policy either finishes or stops flagged
        for p, rs in rows.items():
            assert all(r["reached_goal"] or r["flagged_unsafe"] for r in rs), p
        means = {p: float(np.mean([r["cumulative_reward"] for r in rs])) for p, rs in rows.items()}
        assert means["oracle"] >= means["our_selector"]
        assert means["our_selector"] >= max(means["fast"], means["slow"], means["random"])

    # post hoc: fresh slow reachable sets at every executed decision state; the
    # selector's episodes follow the map's rollout for as many steps as they log
    intersections = 0
    for m_idx, map_name in enumerate(("obstacle_free", "obstacle_adjacent")):
        scn = resolve_map(map_name)
        steps = nominal_rollout(scn).steps
        sel = [r for r in report.per_trial if r["map"] == map_name and r["policy"] == "our_selector"]
        for row in sel:
            for t, step in enumerate(steps[: row["n_steps"]]):
                post = reach_sampled(step.dynamics, step.start, scn.slow_cfg, rng_for(707, m_idx, row["trial"], t))
                if loss_nav(post, scn.obstacles) != 0.0:
                    intersections += 1
    elapsed = time.monotonic() - t0
    assert intersections == 0
    assert elapsed <= 300.0
    print(
        f"ACCEPTANCE 7 PASS: selector safe on both maps, zero post-hoc slow-set intersections, "
        f"fractions 0 / (0,1), reward ordering holds ({elapsed:.0f}s)"
    )


def test_criterion_8_linearization_matches_finite_differences():
    params_pool = [
        dict(wheelbase=2.0, dt=0.1, v_max=2.0, steer_max=0.6, accel_max=1.0),
        dict(wheelbase=1.0, dt=0.05, v_max=3.0, steer_max=0.9, accel_max=2.0),
    ]
    from fastslow.rover import RoverParams

    rng = np.random.default_rng(808)
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        p = RoverParams(**params_pool[trial % 2])
        s = RoverState(
            float(rng.uniform(-10, 10)),
            float(rng.uniform(-10, 10)),
            float(rng.uniform(-2.5, 2.5)),
            float(rng.uniform(0.2, p.v_max - 0.2)),
        )
        u = RoverControl(
            float(rng.uniform(-p.accel_max * 0.8, p.accel_max * 0.8)),
            float(rng.uniform(-p.steer_max * 0.8, p.steer_max * 0.8)),
        )
        A, B = linearize(s, u, p)
        sv, uv = s.as_vector(), u.as_vector()
        for j in range(4):
            dp, dm = sv.copy(), sv.copy()
            dp[j] += h
            dm[j] -= h
            col = (bicycle_step(RoverState(*dp), u, p).as_vector() - bicycle_step(RoverState(*dm), u, p).as_vector()) / (2 * h)
            worst = max(worst, float(np.max(np.abs(col - A[:, j]))))
        for j in range(2):
            dp, dm = uv.copy(), uv.copy()
            dp[j] += h
            dm[j] -= h
            col = (bicycle_step(s, RoverControl(*dp), p).as_vector() - bicycle_step(s, RoverControl(*dm), p).as_vector()) / (2 * h)
            worst = max(worst, float(np.max(np.abs(col - B[:, j]))))
    assert worst < 1e-4
    print(f"ACCEPTANCE 8 PASS: analytic Jacobians within {worst:.2e} of central differences (< 1e-4)")


def test_criterion_9_determinism(tmp_path):
    def tiny(scenario, out, **overrides):
        raw = json.loads(json.dumps(DEFAULTS[scenario]))
        raw.update(overrides)
        return config_from_dict(raw, out_dir=out)

    checked = []
    for scenario, overrides in (
        ("linreg", {"trials": 2, "n_steps": 200}),
        ("dnn", {"trials": 2, "n_steps": 150}),
    ):
        run_suite(tiny(scenario, tmp_path / f"{scenario}_a", **overrides))
        run_suite(tiny(scenario, tmp_path / f"{scenario}_b", **overrides))
        for name in ("steps.csv", "summary.json", "reward_curve.svg", "cost_vs_loss.svg"):
            a = (tmp_path / f"{scenario}_a" / name).read_bytes()
            b = (tmp_path / f"{scenario}_b" / name).read_bytes()
            assert a == b, f"{scenario}/{name}"
            checked.append(f"{scenario}/{name}")

    mini_map = tmp_path / "mini.json"
    mini_map.write_text(
        json.dumps(
            {
                "name": "mini",
                "waypoints": [[0.0, 0.0], [6.0, 0.0]],
                "goal_tolerance": 0.6,
                "reach_horizon": 3,
                "step_cap": 200,
                "fast_reach": {"confidence": 0.6, "type1_error": 0.3},
                "slow_reach": {"confidence": 0.85, "type1_error": 0.1},
            }
        )
    )
    rover_overrides = {"trials": 1, "rover": {"maps": [str(mini_map)], "calibration_repeats": 1}}
    run_suite(tiny("rover", tmp_path / "rover_a", **rover_overrides))
    run_suite(tiny("rover", tmp_path / "rover_b", **rover_overrides))
    for name in (
        "steps.csv",
        "summary.json",
        "trajectories.csv",
        "reach_sets.csv",
        "calibration.json",
        "reward_curve.svg",
        "cost_vs_loss.svg",
    ):
        a = (tmp_path / "rover_a" / name).read_bytes()
        b = (tmp_path / "rover_b" / name).read_bytes()
        assert a == b, f"rover/{name}"
        checked.append(f"rover/{name}")
    print(f"ACCEPTANCE 9 PASS: {len(checked)} output files byte-identical across reruns")
