import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fastslow.policy import Action
from fastslow.reach import (
    IntervalMatrix,
    ReachResult,
    StatReachConfig,
    UnsafeSet,
    bloat,
    calibrate_bloat,
    example_interval_matrix,
    loss_nav,
    reach_sampled,
    required_samples,
    sample_matrix,
    select_rs,
    step_box,
)
from fastslow.reach import _uniform_rows


FREE = UnsafeSet(np.empty((0, 2)), np.empty((0, 2)), (0, 1))


def _result(lo, hi):
    return ReachResult(np.array(lo, dtype=float), np.array(hi, dtype=float))


def test_interval_matrix_validation():
    with pytest.raises(ValueError):
        IntervalMatrix(np.eye(2), np.zeros((2, 2)) - 1)
    with pytest.raises(ValueError):
        IntervalMatrix(np.zeros((2, 3)), np.zeros((2, 3)))


def test_sample_matrix_degenerate():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    lam = IntervalMatrix(A, A)
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_matrix(lam, rng), A)


def test_sample_matrix_example_entries():
    lam = example_interval_matrix()
    rng = np.random.default_rng(1)
    for _ in range(200):
        A = sample_matrix(lam, rng)
        assert -2.0 <= A[0, 1] <= 2.0
        assert A[0, 0] == 1.0 and A[1, 0] == 4.0 and A[1, 1] == 6.0


def test_sample_matrix_uniform_mean():
    lam = example_interval_matrix()
    rng = np.random.default_rng(2)
    draws = np.array([sample_matrix(lam, rng)[0, 1] for _ in range(10_000)])
    assert abs(draws.mean()) <= 0.07


def test_step_box_identity():
    lo, hi = np.array([-1.0, 2.0]), np.array([0.5, 3.0])
    out_lo, out_hi = step_box(np.eye(2), lo, hi)
    assert np.array_equal(out_lo, lo) and np.array_equal(out_hi, hi)


def test_step_box_hand_examples():
    A0 = np.array([[1.0, 0.0], [4.0, 6.0]])
    x = np.array([1.0, 0.0])
    lo, hi = step_box(A0, x, x)
    assert np.array_equal(lo, [1.0, 4.0]) and np.array_equal(hi, [1.0, 4.0])
    x = np.array([0.0, 1.0])
    A_plus = np.array([[1.0, 2.0], [4.0, 6.0]])
    lo, _ = step_box(A_plus, x, x)
    assert np.array_equal(lo, [2.0, 6.0])
    A_minus = np.array([[1.0, -2.0], [4.0, 6.0]])
    lo, _ = step_box(A_minus, x, x)
    assert np.array_equal(lo, [-2.0, 6.0])


def test_step_box_dimension_mismatch():
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        step_box(np.eye(3), x, x)


def test_step_box_point_exactness():
    rng = np.random.default_rng(3)
    for _ in range(100):
        A = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        lo, hi = step_box(A, x, x)
        assert np.allclose(lo, A @ x, rtol=0, atol=1e-13)
        assert np.array_equal(lo, hi)


def test_step_box_contains_sampled_images():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    lo, hi = rng.uniform(-1, 0, 3), rng.uniform(0.5, 2, 3)
    out_lo, out_hi = step_box(A, lo, hi)
    for _ in range(500):
        y = A @ rng.uniform(lo, hi)
        assert np.all(out_lo <= y) and np.all(y <= out_hi)


def test_required_samples_reference_value():
    assert required_samples(0.9, 0.05, 2, 5) == 1196


def test_required_samples_monotonicity():
    assert required_samples(0.99, 0.05, 2, 5) > required_samples(0.9, 0.05, 2, 5)
    assert required_samples(0.9, 0.01, 2, 5) > required_samples(0.9, 0.05, 2, 5)


def test_required_samples_validation():
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            required_samples(bad, 0.05, 2, 5)
        with pytest.raises(ValueError):
            required_samples(0.9, bad, 2, 5)


def test_config_derives_samples():
    assert StatReachConfig(0.9, 0.05, 2, 5).n_samples == 1196


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(1, 4),
    horizon=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    width_mask=st.integers(0, 2**16 - 1),
)
def test_point_start_matches_interval_chain(n, horizon, seed, width_mask):
    """Each sampled matrix, replayed from the same stream and stepped through
    step_box from the start point, must give the kernel's hulls up to
    rounding."""
    gen = np.random.default_rng(seed)
    lo = gen.uniform(-2.0, 2.0, (n, n))
    widths = gen.uniform(0.0, 1.0, (n, n)) * ((width_mask >> np.arange(n * n)) & 1).reshape(n, n)
    lam = IntervalMatrix(lo, lo + widths)
    x = gen.uniform(-1.0, 1.0, n)
    cfg = StatReachConfig(0.5, 0.3, n, horizon)
    res = reach_sampled(lam, x, cfg, np.random.default_rng(seed))

    rows, cols = np.nonzero(lam.hi - lam.lo)
    draws = np.random.default_rng(seed).uniform(
        lam.lo[rows, cols], lam.hi[rows, cols], size=(cfg.n_samples, rows.size)
    )
    ends = []
    for d in draws:
        A = lam.lo.copy()
        A[rows, cols] = d
        lo = hi = x
        path = []
        for _ in range(horizon):
            lo, hi = step_box(A, lo, hi)
            path.append(lo)
        ends.append(path)
    ends = np.array(ends)  # (samples, horizon, n)
    np.testing.assert_allclose(res.lo, ends.min(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(res.hi, ends.max(axis=0), rtol=1e-12, atol=1e-12)


def test_reach_example_point_with_zero_second_coordinate():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 1)
    res = reach_sampled(lam, np.array([1.0, 0.0]), cfg, np.random.default_rng(7))
    assert np.array_equal(res.lo[0], [1.0, 4.0]) and np.array_equal(res.hi[0], [1.0, 4.0])


def test_reach_example_hull_converges():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 1)
    rng = np.random.default_rng(8)
    res = reach_sampled(lam, np.array([0.0, 1.0]), cfg, rng)
    lo, hi = res.lo[0], res.hi[0]
    assert lo[0] >= -2.0 and hi[0] <= 2.0
    assert hi[0] - lo[0] >= 3.8
    assert lo[1] == 6.0 and hi[1] == 6.0
    # one draw per sampled matrix (one uncertain entry): cfg.n_samples in all
    ref = np.random.default_rng(8)
    ref.random((cfg.n_samples, 1))
    assert rng.random() == ref.random()


def test_hull_monotone_in_samples():
    lam = example_interval_matrix()
    rng = np.random.default_rng(9)
    x0 = np.array([0.3, 1.0])
    hulls = []
    lo = hi = None
    for i in range(40):
        A = sample_matrix(lam, rng)
        b_lo, b_hi = step_box(A, x0, x0)
        lo = b_lo if lo is None else np.minimum(lo, b_lo)
        hi = b_hi if hi is None else np.maximum(hi, b_hi)
        hulls.append((lo.copy(), hi.copy()))
    for (lo1, hi1), (lo2, hi2) in zip(hulls, hulls[1:]):
        assert np.all(lo2 <= lo1) and np.all(hi2 >= hi1)


def test_bloat_cases():
    b = _result([[0.0, 0.0]], [[1.0, 1.0]])
    same = bloat(b, 0.0)
    assert np.array_equal(same.lo, b.lo) and np.array_equal(same.hi, b.hi)
    out = bloat(b, 0.5)
    assert np.array_equal(out.lo, [[-0.5, -0.5]]) and np.array_equal(out.hi, [[1.5, 1.5]])
    with pytest.raises(ValueError):
        bloat(b, -0.1)


def test_bloat_is_additive():
    rng = np.random.default_rng(10)
    for _ in range(50):
        lo = rng.normal(size=(1, 3))
        b = ReachResult(lo, lo + rng.uniform(0, 2, (1, 3)))
        a_r, b_r = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        once = bloat(bloat(b, a_r), b_r)
        combined = bloat(b, a_r + b_r)
        assert np.allclose(once.lo, combined.lo, rtol=0, atol=1e-15)
        assert np.allclose(once.hi, combined.hi, rtol=0, atol=1e-15)


def test_calibrate_contained_gives_zero():
    fast = _result([[-1.0]], [[2.0]])
    slow = _result([[-0.5]], [[1.5]])
    assert calibrate_bloat([(fast, slow)]).mu == 0.0


def test_calibrate_hand_value():
    fast = _result([[0.0]], [[1.0]])
    slow = _result([[-0.2]], [[1.1]])
    out = calibrate_bloat([(fast, slow)])
    assert out.mu == pytest.approx(0.2)
    assert out.epsilon is None  # mu <= 1 has no multiplicative reading


def test_calibrate_epsilon_above_one():
    fast = _result([[0.0]], [[1.0]])
    slow = _result([[-2.0]], [[1.0]])
    out = calibrate_bloat([(fast, slow)])
    assert out.mu == pytest.approx(2.0)
    assert out.epsilon == pytest.approx(0.5)


def test_calibrate_containment_holds_by_construction():
    rng = np.random.default_rng(11)
    runs = []
    for _ in range(20):
        lo = rng.normal(size=(1, 2))
        fast = ReachResult(lo, lo + rng.uniform(0.1, 1.0, (1, 2)))
        slow = ReachResult(lo - rng.uniform(0, 0.3, (1, 2)), lo + rng.uniform(0.1, 1.3, (1, 2)))
        runs.append((fast, slow))
    mu = calibrate_bloat(runs).mu
    for fast, slow in runs:
        bloated = bloat(fast, mu)
        assert np.all(bloated.lo <= slow.lo) and np.all(slow.hi <= bloated.hi)


def test_calibrate_empty_rejected():
    with pytest.raises(ValueError):
        calibrate_bloat([])


def test_loss_nav_projects_position_coordinates():
    unsafe = UnsafeSet([[0.0]], [[1.0]], (2,))
    assert loss_nav(_result([[9.0, 9.0, 0.5]], [[10.0, 10.0, 0.6]]), unsafe) == math.inf
    with pytest.raises(IndexError):
        loss_nav(_result([[0.0, 0.0]], [[1.0, 1.0]]), unsafe)


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError, match="crossed"):
        UnsafeSet([[1.0, 0.0]], [[0.0, 1.0]], (0, 1))
    with pytest.raises(ValueError, match="crossed"):  # the second row only
        UnsafeSet([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.5, 1.0]], (0, 1))


def test_unsafe_set_validation():
    with pytest.raises(ValueError, match="non-empty"):
        UnsafeSet(np.empty((0, 0)), np.empty((0, 0)), ())
    with pytest.raises(ValueError, match=r"\(k, 2\)"):
        UnsafeSet(np.zeros((1, 3)), np.ones((1, 3)), (0, 1))
    with pytest.raises(ValueError, match=r"\(k, 2\)"):
        UnsafeSet(np.zeros((2, 2)), np.ones((1, 2)), (0, 1))
    with pytest.raises(ValueError, match=r"\(k, 2\)"):  # one obstacle is still one row
        UnsafeSet(np.zeros(2), np.ones(2), (0, 1))
    assert FREE.lo.shape == FREE.hi.shape == (0, 2)


def test_loss_nav_cases():
    assert loss_nav(_result([[0.0, 0.0]], [[1.0, 1.0]]), FREE) == 0.0
    unsafe = UnsafeSet([[0.0, 0.0]], [[1.0, 1.0]], (0, 1))
    assert loss_nav(_result([[0.5, 0.5]], [[0.5, 0.5]]), unsafe) == math.inf
    corner = UnsafeSet([[1.0, 1.0]], [[2.0, 2.0]], (0, 1))
    assert loss_nav(_result([[0.0, 0.0]], [[1.0, 1.0]]), corner) == math.inf
    assert loss_nav(_result([[-2.0, -2.0]], [[-1.0, -1.0]]), unsafe) == 0.0


def test_select_rs_cases():
    res = _result([[0.0, 0.0]], [[1.0, 1.0]])
    assert select_rs(res, 0.5, FREE) == Action.USE_FAST
    # obstacle at distance mu/2 from the box: bloating reaches it
    mu = 0.4
    obstacle = UnsafeSet([[1.2, 0.0]], [[2.0, 1.0]], (0, 1))
    assert select_rs(res, mu, obstacle) == Action.INVOKE_SLOW
    assert select_rs(res, 0.0, obstacle) == Action.USE_FAST


def test_statistical_containment_single_hull():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 5)
    res = reach_sampled(lam, np.array([0.0, 1.0]), cfg, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    contained = 0
    for _ in range(200):
        A = sample_matrix(lam, rng)
        x = np.array([0.0, 1.0])
        ok = True
        for k in range(5):
            x = A @ x
            ok &= bool(np.all(res.lo[k] <= x) and np.all(x <= res.hi[k]))
        contained += ok
    assert contained / 200 >= 0.9


def test_policy_soundness_on_calibration_scenarios():
    # Whenever the bloated fast verdict is safe, the slow set must be safe too
    # on the runs the calibration covered.
    lam = example_interval_matrix()
    fast_cfg = StatReachConfig(0.7, 0.2, 2, 3)
    slow_cfg = StatReachConfig(0.9, 0.05, 2, 3)
    rng = np.random.default_rng(14)
    scenarios = [rng.uniform(-0.3, 0.3, 2) + np.array([0.0, 1.0]) for _ in range(10)]
    runs = []
    for i, x0 in enumerate(scenarios):
        fast = reach_sampled(lam, x0, fast_cfg, np.random.default_rng(100 + i))
        slow = reach_sampled(lam, x0, slow_cfg, np.random.default_rng(200 + i))
        runs.append((fast, slow))
    mu = calibrate_bloat(runs).mu
    unsafe = UnsafeSet([[2.5, 5.0]], [[4.0, 7.0]], (0, 1))
    for fast, slow in runs:
        if select_rs(fast, mu, unsafe) == Action.USE_FAST:
            assert loss_nav(slow, unsafe) == 0.0


# -- array fast paths against the per-element code they replaced --------------

_LOWS = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, -1e150, 1e150, -5e-324])
_WIDTHS = st.floats(0.0, 1e150) | st.sampled_from([0.0, 5e-324, 1.0])


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(_LOWS, _WIDTHS), min_size=1, max_size=8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_uniform_rows_match_generator_uniform(intervals, n, seed):
    """Negative, zero-width and wide intervals give the same doubles, signs of
    zeros included, and leave the stream where Generator.uniform leaves it."""
    low = np.array([lo for lo, _ in intervals])
    high = low + np.array([w for _, w in intervals])
    ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ours = _uniform_rows(low, high, n, ours_rng)
    ref = ref_rng.uniform(low, high, size=(n, low.size))
    assert np.array_equal(ours, ref)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))
    assert ours_rng.random() == ref_rng.random()


def _per_box_loss_nav(lo, hi, unsafe):
    """loss_nav as a plain loop: project each timestep box and test it
    against each obstacle in turn, touching edges included."""
    idx = list(unsafe.position_indices)
    for box_lo, box_hi in zip(lo[:, idx], hi[:, idx]):
        for ob_lo, ob_hi in zip(unsafe.lo, unsafe.hi):
            if np.all(box_lo <= ob_hi) and np.all(ob_lo <= box_hi):
                return math.inf
    return 0.0


# Quarter steps keep the bounds exact, so boxes touch obstacles edge to edge
# often, also after a bloat by a multiple of a quarter.
_QUARTERS = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def _boxes(draw, dim, min_size, max_size):
    """(k, dim) lower and upper bounds of k boxes."""
    k = draw(st.integers(min_size, max_size))
    lo = np.array(draw(st.lists(_QUARTERS, min_size=k * dim, max_size=k * dim))).reshape(k, dim)
    widths = st.lists(st.integers(0, 8).map(lambda w: w / 4), min_size=k * dim, max_size=k * dim)
    return lo, lo + np.array(draw(widths)).reshape(k, dim)


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(2, 6), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_array_verdict_matches_per_box_loss_nav(data, n, mu):
    result = ReachResult(*data.draw(_boxes(n, 1, 5)))
    position = tuple(data.draw(st.permutations(range(n)))[:2])
    unsafe = UnsafeSet(*data.draw(_boxes(2, 0, 4)), position)  # none: a free map
    bloated = bloat(result, mu)
    expected = _per_box_loss_nav(result.lo - mu, result.hi + mu, unsafe)
    assert loss_nav(bloated, unsafe) == expected
    assert select_rs(result, mu, unsafe) == (Action.INVOKE_SLOW if expected else Action.USE_FAST)
    rows = [ReachResult(bloated.lo[k : k + 1], bloated.hi[k : k + 1]) for k in range(result.horizon)]
    assert [loss_nav(r, unsafe) for r in rows] == [_per_box_loss_nav(r.lo, r.hi, unsafe) for r in rows]


def test_array_verdict_counts_touching_edges():
    result = _result([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]])
    corner = UnsafeSet([[2.0, 2.0]], [[3.0, 3.0]], (0, 1))
    apart = UnsafeSet([[2.0, 2.25]], [[3.0, 3.0]], (0, 1))
    assert loss_nav(result, corner) == math.inf
    assert loss_nav(result, apart) == 0.0
    assert loss_nav(bloat(result, 0.25), apart) == math.inf


def _sequential_mu(runs):
    """calibrate_bloat's mu as it was: a running max over pairs and timesteps."""
    mu = 0.0
    for fast, slow in runs:
        for f_lo, f_hi, s_lo, s_hi in zip(fast.lo, fast.hi, slow.lo, slow.hi):
            mu = max(mu, float(np.max(f_lo - s_lo)), float(np.max(s_hi - f_hi)))
    return mu


@settings(deadline=None, max_examples=200)
@given(st.data(), st.integers(1, 5), st.integers(1, 4), st.integers(1, 6))
def test_array_calibrate_bloat_matches_the_sequential_loop(data, n_runs, horizon, n):
    # Shared grid values make zero deficits (of either sign) and containment common.
    values = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]) | st.floats(-8.0, 8.0)
    widths = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 4.0)
    runs = []
    for _ in range(n_runs):
        pair = []
        for _ in range(2):
            lo = data.draw(arrays(float, (horizon, n), elements=values))
            pair.append(ReachResult(lo, lo + data.draw(arrays(float, (horizon, n), elements=widths))))
        runs.append(tuple(pair))
    got, want = calibrate_bloat(runs), _sequential_mu(runs)
    assert got.mu == want and np.signbit(got.mu) == np.signbit(want)
    assert got.n_pairs == n_runs


def test_calibrate_zero_deficit_gives_positive_zero():
    # -0.0 - 0.0 is a deficit of -0.0; mu stays the +0.0 it starts from
    fast = _result([[-0.0]], [[1.0]])
    slow = _result([[0.0]], [[0.5]])
    mu = calibrate_bloat([(fast, slow)]).mu
    assert mu == 0.0 and not np.signbit(mu)
    assert _sequential_mu([(fast, slow)]) == mu


def test_calibrate_rejects_mismatched_horizons():
    fast = _result([[0.0]] * 2, [[1.0]] * 2)
    slow = _result([[0.0]], [[1.0]])
    with pytest.raises(ValueError, match="share a horizon"):
        calibrate_bloat([(fast, slow)])

