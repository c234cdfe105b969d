import math

import numpy as np
import pytest

from fastslow.policy import (
    Action,
    BoundThresholdPolicy,
    CostSchedule,
    EpisodeError,
    FastOnlyPolicy,
    OraclePolicy,
    RandomPolicy,
    RewardWeights,
    SlowOnlyPolicy,
    decision_threshold,
    evaluate_stream,
    run_episode,
    select_generic,
    step_cost,
    step_reward,
    summarize,
)
from reference_policies import policy_fast, policy_oracle, policy_random, policy_slow

W = RewardWeights(1.0, 0.003)
C = CostSchedule(1.0, 2.5)


def test_step_cost_use_fast():
    assert step_cost(Action.USE_FAST, C) == 1.0


def test_step_cost_invoke_slow_adds_both():
    assert step_cost(Action.INVOKE_SLOW, C) == 3.5


def test_step_cost_zero_fast():
    assert step_cost(Action.INVOKE_SLOW, CostSchedule(0.0, 0.017)) == 0.017


def test_step_reward_zero_loss():
    assert step_reward(Action.USE_FAST, 0.0, W, C) == pytest.approx(-0.003)


def test_step_reward_slow_hand_value():
    # -beta * (c_fast + c_slow) = -0.003 * 3.5
    assert step_reward(Action.INVOKE_SLOW, 0.0, W, C) == pytest.approx(-0.0105)


def test_step_reward_infinite_loss():
    assert step_reward(Action.USE_FAST, math.inf, W, C) == -math.inf


def test_decision_threshold_values():
    assert decision_threshold(W, C) == pytest.approx(0.0075)
    assert decision_threshold(RewardWeights(1.0, 0.0), C) == 0.0
    assert decision_threshold(RewardWeights(1.0, 3e-4), CostSchedule(0.0, 0.017)) == pytest.approx(5.1e-6)


def test_weights_reject_zero_alpha():
    with pytest.raises(ValueError):
        RewardWeights(0.0, 0.1)
    with pytest.raises(ValueError):
        RewardWeights(1.0, -0.1)


def test_costs_warn_when_slow_is_cheaper():
    with pytest.warns(UserWarning):
        CostSchedule(2.0, 1.0)
    with pytest.raises(ValueError):
        CostSchedule(-1.0, 1.0)


def test_select_generic_cases():
    assert select_generic(0.01, 0.0075) == Action.INVOKE_SLOW
    assert select_generic(0.0075, 0.0075) == Action.USE_FAST  # tie keeps the cheap model
    assert select_generic(0.0, 0.0) == Action.USE_FAST


def test_fixed_policies():
    assert policy_fast() == Action.USE_FAST
    assert policy_slow() == Action.INVOKE_SLOW


def test_random_policy_is_fair():
    rng = np.random.default_rng(77)
    n = 100_000
    draws = sum(int(policy_random(rng)) for _ in range(n))
    assert abs(draws / n - 0.5) < 0.01
    # binomial concentration: 4 standard deviations of Binomial(n, 1/2)
    assert abs(draws - n / 2) <= 4 * math.sqrt(n * 0.25)


def test_policy_oracle_cases():
    assert policy_oracle(0.02, 0.0, W, C) == Action.INVOKE_SLOW
    assert policy_oracle(0.0, 0.0, W, C) == Action.USE_FAST
    assert policy_oracle(0.42, 0.42, W, C) == Action.USE_FAST


def test_policy_oracle_exact_tie_keeps_fast():
    w = RewardWeights(1.0, 1.0)
    c = CostSchedule(0.0, 1.0)
    # alpha * (loss_fast - loss_slow) == beta * c_slow exactly
    assert policy_oracle(1.0, 0.0, w, c) == Action.USE_FAST


def test_policy_oracle_infinite_losses():
    assert policy_oracle(math.inf, 0.0, W, C) == Action.INVOKE_SLOW
    assert policy_oracle(math.inf, math.inf, W, C) == Action.USE_FAST
    assert policy_oracle(0.0, math.inf, W, C) == Action.USE_FAST


def test_scale_invariance_of_decisions():
    rng = np.random.default_rng(5)
    for _ in range(300):
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(0.0, 2.0))
        c = CostSchedule(float(rng.uniform(0, 1)), float(rng.uniform(1, 4)))
        gain = float(rng.uniform(0.0, 10.0))
        lf, ls = float(rng.uniform(0, 5)), float(rng.uniform(0, 5))
        for k in (2.0, 4.0, 0.5, 3.7, 10.0):
            w1 = RewardWeights(alpha, beta)
            w2 = RewardWeights(k * alpha, k * beta)
            assert select_generic(gain, decision_threshold(w1, c)) == select_generic(
                gain, decision_threshold(w2, c)
            )
            assert policy_oracle(lf, ls, w1, c) == policy_oracle(lf, ls, w2, c)


# --- episode runner ---


def _stream(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 3))


def _fast(xs):
    return 1.05 * xs


def _slow(xs):
    return xs


def _l2(a, b):
    d = a - b
    return np.vecdot(d, d)


def _bound(y):
    return 0.05 * np.vecdot(y, y)


def _episode(xs, policy, fast=_fast, slow=_slow, loss=_l2):
    return run_episode(evaluate_stream(xs, fast, slow, loss, _bound), policy, W, C)


def test_stream_carries_the_bound_of_the_fast_outputs_and_the_selector_reads_it():
    xs = 0.5 * _stream(40, seed=5)
    stream = evaluate_stream(xs, _fast, _slow, _l2, _bound)
    assert np.array_equal(stream.bound, _bound(_fast(xs)))
    action, logged = BoundThresholdPolicy().decide(stream, W, C)
    assert logged is stream.bound
    assert np.array_equal(action, (decision_threshold(W, C) < stream.bound).astype(int))
    assert 0 < action.sum() < len(xs)


def test_run_episode_empty_stream():
    log, summary = _episode(np.empty((0, 3)), FastOnlyPolicy())
    assert len(log) == 0 and list(log) == []
    assert summary.cumulative_reward == 0.0
    assert summary.n_steps == 0
    assert summary.slow_query_fraction == 0.0


def test_run_episode_slow_policy_has_zero_loss():
    n = 50
    log, summary = _episode(_stream(n), SlowOnlyPolicy())
    assert summary.mean_loss == 0.0
    assert summary.total_cost == pytest.approx(n * 3.5)
    assert summary.slow_query_fraction == 1.0


def test_run_episode_oracle_beats_fast():
    xs = _stream(200, seed=3)
    _, s_fast = _episode(xs, FastOnlyPolicy())
    _, s_oracle = _episode(xs, OraclePolicy())
    assert s_oracle.cumulative_reward >= s_fast.cumulative_reward


def test_oracle_dominates_every_policy_per_step():
    xs = _stream(300, seed=11)
    policies = [
        FastOnlyPolicy(),
        SlowOnlyPolicy(),
        RandomPolicy(99),
        BoundThresholdPolicy(),
        OraclePolicy(),
    ]
    logs = [_episode(xs, p)[0] for p in policies]
    for other in logs[:-1]:
        assert np.all(logs[-1].reward >= other.reward)


def test_reward_decomposition():
    xs = _stream(2000, seed=21)
    log, summary = _episode(xs, RandomPolicy(4))
    losses = math.fsum(r.loss_realized for r in log)
    costs = math.fsum(r.cost_incurred for r in log)
    expected = -W.alpha * losses - W.beta * costs
    assert abs(summary.cumulative_reward - expected) <= 1e-9 * max(1.0, abs(expected))


def test_step_record_cost_invariant():
    xs = _stream(100, seed=8)
    log, _ = _episode(xs, RandomPolicy(12))
    assert len(log) == 100
    for t, r in enumerate(log):
        expected = 3.5 if r.action == Action.INVOKE_SLOW else 1.0
        assert r.t == t
        assert r.cost_incurred == expected
        assert r.reward == step_reward(r.action, r.loss_realized, W, C)


def test_episode_error_carries_step_index():
    def broken(xs):
        raise RuntimeError("boom")

    for which, models in (("fast", (broken, _slow)), ("slow", (_fast, broken))):
        with pytest.raises(EpisodeError) as exc_info:
            evaluate_stream(_stream(10), *models, _l2, _bound)
        assert exc_info.value.which == which
        assert isinstance(exc_info.value.__cause__, RuntimeError)


def test_summarize_infinite_rewards():
    xs = _stream(5, seed=1)
    log, summary = _episode(xs, FastOnlyPolicy(), fast=lambda x: x + 100.0, loss=lambda a, b: np.full(len(a), math.inf))
    assert summary.cumulative_reward == -math.inf
    assert summary.mean_loss == math.inf
    assert all(r.reward == -math.inf for r in log)


def test_summarize_matches_records():
    xs = _stream(64, seed=9)
    log, summary = _episode(xs, RandomPolicy(1))
    assert summarize(log) == summary
    n_slow = sum(1 for r in log if r.action == Action.INVOKE_SLOW)
    assert summary.slow_query_fraction == n_slow / len(log)
