import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow.dnnproxy import (
    CORRUPTION_BLOCK,
    MULTIPLICATIVE,
    TAIL,
    ProbabilisticBound,
    expected_loss_bound_dnn,
    make_proxy_pair,
    select_dnn,
)
from fastslow.linreg import loss_l2
from fastslow.policy import Action, CostSchedule, RewardWeights


def _pair(seed=0, n=4, m=3, eps=0.2, delta=0.1, cap=1.0):
    rng = np.random.default_rng(seed)
    return make_proxy_pair(rng, n, m, ProbabilisticBound(eps, delta, cap))


def _inputs(count, n, seed=1):
    return np.random.default_rng(seed).normal(size=(count, n))


def test_bound_validation():
    with pytest.raises(ValueError):
        ProbabilisticBound(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        ProbabilisticBound(1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        ProbabilisticBound(0.2, 1.5, 1.0)
    with pytest.raises(ValueError):
        ProbabilisticBound(0.2, 0.1, math.inf)


def test_expected_loss_bound_degenerate_delta():
    y = np.array([0.6, 0.8])
    b0 = ProbabilisticBound(0.2, 0.0, 1.0)
    assert expected_loss_bound_dnn(y, b0) == pytest.approx(0.04 * 1.0 / 0.64)
    b1 = ProbabilisticBound(0.2, 1.0, 1.0)
    assert expected_loss_bound_dnn(y, b1) == pytest.approx(1.0)


def test_expected_loss_bound_hand_value():
    y = np.array([1.0])
    b = ProbabilisticBound(0.2, 0.1, 1.0)
    assert expected_loss_bound_dnn(y, b) == pytest.approx(0.15625)


def test_delta_zero_always_multiplicative():
    pair = _pair(seed=2, delta=0.0)
    for i, x in enumerate(_inputs(300, 4, seed=3)):
        _, branch = pair.fast_with_branch(x, i)
        assert branch == MULTIPLICATIVE


def test_delta_one_always_tail():
    pair = _pair(seed=4, delta=1.0)
    for i, x in enumerate(_inputs(300, 4, seed=5)):
        _, branch = pair.fast_with_branch(x, i)
        assert branch == TAIL


def test_branch_frequency_concentrates():
    delta = 0.05
    pair = _pair(seed=6, delta=delta)
    n = 10_000
    hits = 0
    for i, x in enumerate(_inputs(n, 4, seed=7)):
        _, branch = pair.fast_with_branch(x, i)
        hits += branch == MULTIPLICATIVE
    freq = hits / n
    sigma = math.sqrt(delta * (1 - delta) / n)
    assert abs(freq - (1 - delta)) <= 3 * sigma


def test_branchwise_loss_bounds():
    eps, cap = 0.25, 0.8
    pair = _pair(seed=8, eps=eps, delta=0.3, cap=cap)
    xs = _inputs(10_000, 4, seed=9)
    saw = {MULTIPLICATIVE: 0, TAIL: 0}
    for i, x in enumerate(xs):
        y_slow = pair.slow_output(x)
        y_fast, branch = pair.fast_with_branch(x, i)
        saw[branch] += 1
        loss = loss_l2(y_fast, y_slow)
        if branch == MULTIPLICATIVE:
            assert loss <= eps**2 * float(y_fast @ y_fast) / (1 - eps) ** 2 + 1e-12
        else:
            assert loss <= cap + 1e-12
    assert saw[MULTIPLICATIVE] > 0 and saw[TAIL] > 0


def test_interval_inversion_in_multiplicative_branch():
    eps = 0.2
    pair = _pair(seed=10, eps=eps, delta=0.0)
    for i, x in enumerate(_inputs(2000, 4, seed=11)):
        y_slow = pair.slow_output(x)
        y_fast, _ = pair.fast_with_branch(x, i)
        # primal multiplicative band is exact in floating point
        assert np.all((1 - eps) * y_slow <= y_fast)
        assert np.all(y_fast <= (1 + eps) * y_slow)
        # inverted form within rounding
        assert np.all(y_fast / (1 + eps) <= y_slow * (1 + 1e-12))
        assert np.all(y_slow <= y_fast / (1 - eps) * (1 + 1e-12))


def test_empirical_mean_loss_below_bound():
    pair = _pair(seed=12, eps=0.2, delta=0.1, cap=0.5)
    xs = _inputs(10_000, 4, seed=13)
    losses, bounds = [], []
    for i, x in enumerate(xs):
        y_slow = pair.slow_output(x)
        y_fast, _ = pair.fast_with_branch(x, i)
        losses.append(loss_l2(y_fast, y_slow))
        bounds.append(expected_loss_bound_dnn(y_fast, pair.bound))
    losses = np.array(losses)
    se = losses.std() / math.sqrt(len(losses))
    assert losses.mean() <= np.mean(bounds) + 3 * se


def test_tail_worst_case_equals_cap():
    cap, m = 0.9, 3
    pair = _pair(seed=14, delta=1.0, cap=cap, m=m)
    assert pair.tail_half_width == pytest.approx(math.sqrt(cap / m))
    worst = m * pair.tail_half_width**2
    assert worst == pytest.approx(cap)


def test_slow_outputs_strictly_positive_and_bounded():
    pair = _pair(seed=15)
    for x in _inputs(2000, 4, seed=16):
        y = pair.slow_output(x)
        assert np.all(y > 0.0)
        assert np.all(y >= pair.out_center - pair.out_spread - 1e-12)
        assert np.all(y <= pair.out_center + pair.out_spread + 1e-12)


def test_fast_output_keyed_by_index_replays():
    pair = _pair(seed=17, delta=0.5)
    x = np.array([0.1, -0.4, 0.8, 0.2])
    far = 3 * CORRUPTION_BLOCK + 42  # an index in another block
    for index in (42, far):
        y1, b1 = pair.fast_with_branch(x, index)
        y2, b2 = pair.fast_with_branch(x, index)
        assert np.array_equal(y1, y2) and b1 == b2
    for a, b in ((42, 43), (42, far)):
        assert not np.array_equal(pair.fast_with_branch(x, a)[0], pair.fast_with_branch(x, b)[0])


_STREAM_PAIR = _pair(seed=19, m=3, delta=0.5)
_STREAM = _inputs(3 * CORRUPTION_BLOCK, 4, seed=20)
_STREAM_FAST, _STREAM_TAIL = _STREAM_PAIR._corrupt(_STREAM_PAIR.slow_output(_STREAM), 0)


@settings(deadline=None, max_examples=60)
@given(
    i=st.integers(0, 3 * CORRUPTION_BLOCK),
    length=st.one_of(st.integers(0, 8), st.integers(0, 2 * CORRUPTION_BLOCK + 8)),
    data=st.data(),
)
def test_any_slice_replays_the_full_stream(i, length, data):
    """Slices that cross a block boundary or start past block 0 take the
    full stream's rows, and a single input takes its row and its branch."""
    j = min(i + length, len(_STREAM))
    assert np.array_equal(_STREAM_PAIR.fast_output(_STREAM[i:j], i), _STREAM_FAST[i:j])
    if i < j:
        k = data.draw(st.integers(i, j - 1))
        y, branch = _STREAM_PAIR.fast_with_branch(_STREAM[k], k)
        assert np.array_equal(y, _STREAM_FAST[k])
        assert branch == (TAIL if _STREAM_TAIL[k] else MULTIPLICATIVE)


def test_select_dnn_taxi_constants_force_offload():
    # threshold 5.1e-6 with a floor term delta * cap = 0.01 above it
    w = RewardWeights(1.0, 3e-4)
    c = CostSchedule(0.0, 0.017)
    b = ProbabilisticBound(0.1, 0.01, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = rng.uniform(0, 2, size=2)
        assert select_dnn(y, b, w, c) == Action.INVOKE_SLOW


def test_select_dnn_trivial_cases():
    b0 = ProbabilisticBound(0.2, 0.0, 1.0)
    assert select_dnn(np.zeros(2), b0, RewardWeights(1.0, 0.1), CostSchedule(0.0, 1.0)) == Action.USE_FAST
    b = ProbabilisticBound(0.2, 0.1, 1.0)
    assert select_dnn(np.array([0.5]), b, RewardWeights(1.0, 0.0), CostSchedule(0.0, 1.0)) == Action.INVOKE_SLOW


def test_select_dnn_scale_invariant():
    b = ProbabilisticBound(0.2, 0.05, 0.5)
    rng = np.random.default_rng(18)
    c = CostSchedule(0.0, 0.5)
    for _ in range(200):
        y = rng.uniform(0, 1.5, size=3)
        alpha, beta = float(rng.uniform(0.1, 3)), float(rng.uniform(0.0, 3))
        for k in (2.0, 0.5, 8.0):
            a1 = select_dnn(y, b, RewardWeights(alpha, beta), c)
            a2 = select_dnn(y, b, RewardWeights(k * alpha, k * beta), c)
            assert a1 == a2
