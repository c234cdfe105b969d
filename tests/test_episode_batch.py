"""The batch episode path against the straight-line per-step loop it replaced.

`reference_episode` scores and decides one input at a time with the scalar
rules (`select_generic`, `policy_oracle`, `policy_random`, `step_reward`,
`step_cost`). The models, the loss and the bounds are the per-row arithmetic
of the replaced loop, written out here (`A @ x`, `d @ d`), and the scalar
`loss_l2`, `loss_bound_lr` and `fast_with_branch`, which now share the batch
code, must reproduce it. Every column of the batch `EpisodeLog` and the
`EpisodeSummary` must equal the reference exactly: the reprs match, so the
sign of a zero does too.
"""
import math
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow.dnnproxy import ProbabilisticBound, expected_loss_bound_dnn, make_proxy_pair
from fastslow.linreg import generate_coreset_pair, loss_bound_lr, loss_l2
from fastslow.policy import (
    Action,
    BoundThresholdPolicy,
    CostSchedule,
    EpisodeSummary,
    FastOnlyPolicy,
    OraclePolicy,
    RandomPolicy,
    RewardWeights,
    SlowOnlyPolicy,
    StepRecord,
    decision_threshold,
    evaluate_stream,
    run_episode,
    select_generic,
    step_cost,
    step_reward,
)
from fastslow.seeding import rng_for
from reference_policies import policy_oracle, policy_random


def _same(a, b):
    return repr(float(a)) == repr(float(b))


def reference_episode(xs, fast_one, slow_one, kind, bound_one, weights, costs, random_seed):
    rng = np.random.default_rng(random_seed)
    threshold = decision_threshold(weights, costs)
    records = []
    for t, x in enumerate(xs):
        y_fast, y_slow = fast_one(x, t), slow_one(x)
        d = y_fast - y_slow
        loss_fast = float(d @ d)
        assert _same(loss_l2(y_fast, y_slow), loss_fast)
        bound = 0.0
        if kind == "fast":
            action = Action.USE_FAST
        elif kind == "slow":
            action = Action.INVOKE_SLOW
        elif kind == "random":
            action = policy_random(rng)
        elif kind == "our_selector":
            bound = bound_one(y_fast)
            action = select_generic(bound, threshold)
        else:
            action, bound = policy_oracle(loss_fast, 0.0, weights, costs), loss_fast
        loss = 0.0 if action == Action.INVOKE_SLOW else loss_fast
        records.append(StepRecord(t, action, loss, step_cost(action, costs), step_reward(action, loss, weights, costs), bound))
    n = len(records)
    if n == 0:
        return records, EpisodeSummary(0.0, 0.0, 0.0, 0.0, 0)
    n_slow = sum(1 for r in records if r.action == Action.INVOKE_SLOW)
    summary = EpisodeSummary(
        math.fsum(r.reward for r in records),
        math.fsum(r.cost_incurred for r in records),
        math.fsum(r.loss_realized for r in records) / n,
        n_slow / n,
        n,
    )
    return records, summary


def _linreg_case(rng, T):
    eps = float(rng.uniform(0.01, 0.9))
    pair = generate_coreset_pair(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)), eps)
    xs = np.abs(rng.standard_normal((T, pair.slow.A.shape[1]))) * float(rng.uniform(0.1, 3.0))
    k = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 2.0))  # k = 0 ties the bound with beta = 0
    A, b, scales = pair.slow.A, pair.slow.b, pair.per_coord_scales

    def slow_one(x):
        y = A @ x + b
        assert list(map(_same, pair.slow(x), y)) == [True] * len(y)
        return y

    def bound_one(y):
        bound = float(eps * eps * (y @ y) / ((1.0 + eps) ** 2))
        assert _same(loss_bound_lr(y, eps), bound)
        return k * bound

    batch = (xs, pair.fast_output, pair.slow, lambda y: k * loss_bound_lr(y, eps))
    return batch, (lambda x, t: scales * slow_one(x), slow_one, bound_one)


def _dnn_case(rng, T):
    bound = ProbabilisticBound(float(rng.uniform(0.01, 0.9)), float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.1, 3.0)))
    pair = make_proxy_pair(rng, int(rng.integers(1, 12)), int(rng.integers(1, 20)), bound, n_features=int(rng.integers(1, 40)))
    xs = rng.normal(0.0, float(rng.uniform(0.1, 3.0)), size=(T, pair.feature_weights.shape[1]))

    def slow_one(x):
        feats = np.cos(pair.feature_weights @ x + pair.feature_phases)
        y = pair.out_center + pair.out_spread * (pair.coefs @ feats)
        assert list(map(_same, pair.slow_output(x), y)) == [True] * len(y)
        return y

    first = int(rng.integers(0, 3 * 1024))  # the stream may start past block 0

    def fast_one(x, t):
        y_slow = slow_one(x)
        block, offset = divmod(first + t, 1024)  # one keyed stream per block of 1,024 inputs
        draw = rng_for(pair.corruption_seed, block)
        coin = draw.random(1024)[offset]  # the block's coins come before its uniforms
        u = draw.random((1024, len(y_slow)))[offset]
        eps, h, tail = bound.epsilon, pair.tail_half_width, coin < bound.delta
        lo, hi = (-h, h) if tail else (1.0 - eps, 1.0 + eps)
        d = lo + (hi - lo) * u
        y = y_slow + d if tail else d * y_slow
        shared = pair.fast_with_branch(x, first + t)[0]  # the scalar method shares the batch helper
        assert list(map(repr, shared.tolist())) == list(map(repr, y.tolist()))
        return y

    def bound_one(y):
        eps, delta = bound.epsilon, bound.delta
        value = float(delta * bound.m_loss_cap + (1.0 - delta) * (eps * eps * (y @ y) / ((1.0 - eps) ** 2)))
        assert _same(expected_loss_bound_dnn(y, bound), value)
        return value

    batch = (xs, partial(pair.fast_output, index=first), pair.slow_output, partial(expected_loss_bound_dnn, bound=bound))
    return batch, (fast_one, slow_one, bound_one)


def _reprs(values):
    return [repr(float(v)) for v in values]


@settings(deadline=None, max_examples=60)
@given(
    scenario=st.sampled_from(["linreg", "dnn"]),
    case_seed=st.integers(0, 2**32 - 1),
    T=st.integers(0, 300),
    alpha=st.floats(0.1, 10.0),
    beta=st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(1.0, 1e4)),
    c_fast=st.floats(0.0, 2.0),
    c_extra=st.floats(1e-3, 5.0),
    random_seed=st.integers(0, 2**63 - 1),
)
def test_batch_episode_equals_per_step_reference(scenario, case_seed, T, alpha, beta, c_fast, c_extra, random_seed):
    rng = np.random.default_rng(case_seed)
    (xs, fast, slow, bound_fn), (fast_one, slow_one, bound_one) = (_linreg_case if scenario == "linreg" else _dnn_case)(rng, T)
    weights, costs = RewardWeights(alpha, beta), CostSchedule(c_fast, c_fast + c_extra)
    stream = evaluate_stream(xs, fast, slow, loss_l2, bound_fn)
    policies = {
        "fast": FastOnlyPolicy(),
        "slow": SlowOnlyPolicy(),
        "random": RandomPolicy(random_seed),
        "our_selector": BoundThresholdPolicy(),
        "oracle": OraclePolicy(),
    }
    for kind, policy in policies.items():
        log, summary = run_episode(stream, policy, weights, costs)
        records, ref_summary = reference_episode(xs, fast_one, slow_one, kind, bound_one, weights, costs, random_seed)
        assert log.t.tolist() == [r.t for r in records]
        assert log.action.tolist() == [int(r.action) for r in records]
        assert _reprs(log.loss) == _reprs(r.loss_realized for r in records), kind
        assert _reprs(log.cost) == _reprs(r.cost_incurred for r in records), kind
        assert _reprs(log.reward) == _reprs(r.reward for r in records), kind
        assert _reprs(log.bound) == _reprs(r.bound_used for r in records), kind
        assert summary == ref_summary, kind
