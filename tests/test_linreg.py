import math

import numpy as np
import pytest

from fastslow.linreg import (
    CoresetPair,
    bound_scale_lr,
    InputDistribution,
    LinearModel,
    generate_coreset_pair,
    loss_bound_lr,
    loss_l2,
    select_lr,
)
from fastslow.policy import Action, CostSchedule, RewardWeights, policy_oracle

W = RewardWeights(1.0, 0.003)
C = CostSchedule(1.0, 2.5)
EPS = 0.1


def _pair(seed=0, n=3, m=4, eps=EPS):
    return generate_coreset_pair(np.random.default_rng(seed), n, m, eps)


def _inputs(count, n, seed=1, scale=1.0):
    return np.abs(np.random.default_rng(seed).standard_normal((count, n))) * scale


def test_loss_l2_cases():
    v = np.array([0.3, -1.2, 4.0])
    assert loss_l2(v, v) == 0.0
    assert loss_l2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)
    assert loss_l2(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == pytest.approx(25.0)


def test_loss_l2_dimension_mismatch():
    with pytest.raises(ValueError):
        loss_l2(np.zeros(2), np.zeros(3))


def test_loss_bound_zero_vector():
    assert loss_bound_lr(np.zeros(4), 0.3) == 0.0


def test_loss_bound_unit_norm():
    y = np.array([1.0, 0.0])
    assert loss_bound_lr(y, 0.1) == pytest.approx(0.01 / 1.21)


def test_bound_dominates_realized_loss():
    pair = _pair(seed=5)
    xs = _inputs(10_000, 3, seed=6)
    for x in xs:
        y_fast, y_slow = pair.evaluate(x)
        assert loss_l2(y_fast, y_slow) <= loss_bound_lr(y_fast, EPS) + 1e-15


def test_generate_rejects_bad_epsilon():
    rng = np.random.default_rng(0)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            generate_coreset_pair(rng, 3, 3, bad)


def test_multiplicative_sandwich_every_coordinate():
    pair = _pair(seed=7)
    xs = _inputs(10_000, 3, seed=8)
    for x in xs:
        y_fast, y_slow = pair.evaluate(x)
        assert np.all(y_slow <= y_fast)
        assert np.all(y_fast <= (1.0 + EPS) * y_slow)


def test_unit_box_inputs_stay_in_unit_interval():
    pair = _pair(seed=12)
    xs = np.random.default_rng(13).uniform(0.0, 1.0, size=(2000, 3))
    for x in xs:
        _, y_slow = pair.evaluate(x)
        assert np.all(y_slow >= 0.0) and np.all(y_slow <= 1.0 + 1e-12)


def test_forced_identity_scales_gives_zero_loss():
    slow = _pair(seed=3).slow
    pair = CoresetPair.from_slow(slow, EPS, np.ones(slow.b.shape[0]))
    for x in _inputs(100, 3, seed=4):
        y_fast, y_slow = pair.evaluate(x)
        assert loss_l2(y_fast, y_slow) == 0.0


def test_forced_max_scales_meet_bound_exactly():
    slow = _pair(seed=9).slow
    m = slow.b.shape[0]
    pair = CoresetPair.from_slow(slow, EPS, np.full(m, 1.0 + EPS))
    for x in _inputs(200, 3, seed=10):
        y_fast, y_slow = pair.evaluate(x)
        loss = loss_l2(y_fast, y_slow)
        bound = loss_bound_lr(y_fast, EPS)
        assert loss == pytest.approx(bound, rel=1e-9)


def test_interval_membership():
    pair = _pair(seed=20)
    for x in _inputs(500, 3, seed=21):
        y_fast, y_slow = pair.evaluate(x)
        assert np.all(y_slow <= y_fast)
        assert np.all(y_fast / (1.0 + EPS) <= y_slow * (1.0 + 1e-12))


@pytest.mark.parametrize("seed", range(5))
def test_bound_scale_matches_row_by_row_reference(seed):
    pair = _pair(seed)
    xs = _inputs(300, 3, seed=seed + 10)
    loss = math.fsum(loss_l2(pair.fast_output(x), pair.slow(x)) for x in xs)
    bound = math.fsum(loss_bound_lr(pair.fast_output(x), EPS) for x in xs)
    k = bound_scale_lr(pair, xs)
    assert 0.0 <= k <= 1.0
    assert k == pytest.approx(loss / bound, rel=1e-12)


def test_bound_scale_is_zero_for_identity_scales_and_for_no_outputs():
    pair = CoresetPair.from_slow(_pair().slow, EPS, np.ones(4))
    assert bound_scale_lr(pair, _inputs(50, 3)) == 0.0
    assert bound_scale_lr(_pair(m=0), _inputs(50, 3)) == 0.0


def test_select_lr_cases():
    # unit-norm fast output: bound 0.008264 exceeds threshold 0.0075
    assert select_lr(np.array([1.0, 0.0]), 0.1, W, C) == Action.INVOKE_SLOW
    assert select_lr(np.zeros(3), 0.1, W, C) == Action.USE_FAST
    assert select_lr(np.array([0.4]), 0.1, RewardWeights(1.0, 0.0), C) == Action.INVOKE_SLOW


def test_select_lr_matches_oracle_when_bound_tight():
    slow = _pair(seed=30).slow
    m = slow.b.shape[0]
    pair = CoresetPair.from_slow(slow, EPS, np.full(m, 1.0 + EPS))
    for x in _inputs(500, 3, seed=31):
        y_fast, y_slow = pair.evaluate(x)
        oracle = policy_oracle(loss_l2(y_fast, y_slow), 0.0, W, C)
        assert select_lr(y_fast, EPS, W, C) == oracle


def test_select_lr_never_offloads_less_than_oracle():
    pair = _pair(seed=32)
    n_sel = n_oracle = 0
    for x in _inputs(2000, 3, seed=33):
        y_fast, y_slow = pair.evaluate(x)
        if select_lr(y_fast, EPS, W, C) == Action.INVOKE_SLOW:
            n_sel += 1
            continue
        # kept the fast model: the oracle must agree (bound >= true loss)
        assert policy_oracle(loss_l2(y_fast, y_slow), 0.0, W, C) == Action.USE_FAST
    for x in _inputs(2000, 3, seed=33):
        y_fast, y_slow = pair.evaluate(x)
        if policy_oracle(loss_l2(y_fast, y_slow), 0.0, W, C) == Action.INVOKE_SLOW:
            n_oracle += 1
    assert n_sel >= n_oracle


def test_linear_model_validation():
    with pytest.raises(ValueError):
        LinearModel(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        LinearModel(np.array([[np.inf, 0.0]]), np.zeros(1))


def test_input_distribution():
    dist = InputDistribution(4, 2.0, seed=5)
    xs = dist.draw(1000)
    assert xs.shape == (1000, 4)
    assert np.all(xs >= 0.0)
    with pytest.raises(ValueError):
        InputDistribution(4, 1.0, kind="uniform")
    with pytest.raises(ValueError):
        InputDistribution(4, 0.0)
    # same seed reproduces the stream
    assert np.array_equal(xs, InputDistribution(4, 2.0, seed=5).draw(1000))


def test_pair_serialization_round_trip(tmp_path):
    import json

    pair = _pair(seed=40)
    path = tmp_path / "pair.json"
    pair.save(path, seed=40)
    assert json.loads(path.read_text())["seed"] == 40
    loaded = CoresetPair.load(path)
    assert loaded.epsilon == pair.epsilon
    assert np.array_equal(loaded.slow.A, pair.slow.A)
    assert np.array_equal(loaded.slow.b, pair.slow.b)
    assert np.array_equal(loaded.per_coord_scales, pair.per_coord_scales)
    assert np.array_equal(loaded.fast.A, pair.fast.A)
    x = np.array([0.3, 0.5, 0.2])
    assert np.array_equal(loaded.fast_output(x), pair.fast_output(x))
