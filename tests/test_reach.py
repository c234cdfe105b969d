import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow.policy import Action
from fastslow.reach import (
    Box,
    IntervalMatrix,
    StatReachConfig,
    UnsafeSet,
    bloat,
    calibrate_bloat,
    example_interval_matrix,
    intersects,
    loss_nav,
    reach_sampled,
    required_samples,
    sample_matrix,
    select_rs,
    step_box,
)


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_box_empty_is_explicit():
    e = Box.empty(2)
    assert e.is_empty
    assert not e.contains_point([0.0, 0.0])
    assert not e.overlaps(Box.point([0.0, 0.0]))
    assert Box.point([0.0, 0.0]).contains_box(e)


def test_box_overlap_is_closed():
    a = Box(np.array([0.0]), np.array([1.0]))
    b = Box(np.array([1.0]), np.array([2.0]))
    assert a.overlaps(b)
    assert not a.overlaps(Box(np.array([1.1]), np.array([2.0])))


def test_interval_matrix_validation():
    with pytest.raises(ValueError):
        IntervalMatrix(np.eye(2), np.zeros((2, 2)) - 1)
    with pytest.raises(ValueError):
        IntervalMatrix(np.zeros((2, 3)), np.zeros((2, 3)))


def test_sample_matrix_degenerate():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    lam = IntervalMatrix.exact(A)
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
    b = Box(np.array([-1.0, 2.0]), np.array([0.5, 3.0]))
    out = step_box(np.eye(2), b)
    assert np.array_equal(out.lo, b.lo) and np.array_equal(out.hi, b.hi)


def test_step_box_hand_examples():
    A0 = np.array([[1.0, 0.0], [4.0, 6.0]])
    out = step_box(A0, Box.point([1.0, 0.0]))
    assert np.array_equal(out.lo, [1.0, 4.0]) and np.array_equal(out.hi, [1.0, 4.0])
    A_plus = np.array([[1.0, 2.0], [4.0, 6.0]])
    out = step_box(A_plus, Box.point([0.0, 1.0]))
    assert np.array_equal(out.lo, [2.0, 6.0])
    A_minus = np.array([[1.0, -2.0], [4.0, 6.0]])
    out = step_box(A_minus, Box.point([0.0, 1.0]))
    assert np.array_equal(out.lo, [-2.0, 6.0])


def test_step_box_dimension_mismatch():
    with pytest.raises(ValueError):
        step_box(np.eye(3), Box.point([0.0, 1.0]))


def test_step_box_point_exactness():
    rng = np.random.default_rng(3)
    for _ in range(100):
        A = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        out = step_box(A, Box.point(x))
        assert np.allclose(out.lo, A @ x, rtol=0, atol=1e-13)
        assert np.array_equal(out.lo, out.hi)


def test_step_box_contains_sampled_images():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    box = Box(rng.uniform(-1, 0, 3), rng.uniform(0.5, 2, 3))
    out = step_box(A, box)
    for _ in range(500):
        x = rng.uniform(box.lo, box.hi)
        assert out.contains_point(A @ x + np.array([0.0, 0.0, 0.0]))


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


def test_config_derives_samples_and_cost():
    cfg = StatReachConfig(0.9, 0.05, 2, 5, cost_per_sample=1e-3)
    assert cfg.n_samples == 1196
    assert cfg.cost == pytest.approx(1.196)
    explicit = StatReachConfig(0.9, 0.05, 2, 5, cost=7.0)
    assert explicit.cost == 7.0


def test_reach_degenerate_interval_equals_chain():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    lam = IntervalMatrix.exact(A)
    x0 = Box(rng.uniform(-1, 0, 3), rng.uniform(0, 1, 3))
    cfg = StatReachConfig(0.8, 0.2, 3, 4)
    res = reach_sampled(lam, x0, cfg, np.random.default_rng(6))
    b = x0
    for k in range(4):
        b = step_box(A, b)
        assert np.array_equal(res.boxes[k].lo, b.lo)
        assert np.array_equal(res.boxes[k].hi, b.hi)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(1, 4),
    horizon=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    width_mask=st.integers(0, 2**16 - 1),
)
def test_point_start_matches_interval_chain(n, horizon, seed, width_mask):
    """A point start takes the trajectory kernel; each sampled matrix,
    replayed from the same stream and stepped through step_box, must give the
    same hulls up to rounding."""
    gen = np.random.default_rng(seed)
    lo = gen.uniform(-2.0, 2.0, (n, n))
    widths = gen.uniform(0.0, 1.0, (n, n)) * ((width_mask >> np.arange(n * n)) & 1).reshape(n, n)
    lam = IntervalMatrix(lo, lo + widths)
    x = gen.uniform(-1.0, 1.0, n)
    cfg = StatReachConfig(0.5, 0.3, n, horizon)
    res = reach_sampled(lam, Box.point(x), cfg, np.random.default_rng(seed))

    rows, cols = np.nonzero(lam.hi - lam.lo)
    draws = np.random.default_rng(seed).uniform(
        lam.lo[rows, cols], lam.hi[rows, cols], size=(cfg.n_samples, rows.size)
    )
    ends = []
    for d in draws:
        A = lam.lo.copy()
        A[rows, cols] = d
        b, path = Box.point(x), []
        for _ in range(horizon):
            b = step_box(A, b)
            path.append(b.lo)
        ends.append(path)
    ends = np.array(ends)  # (samples, horizon, n)
    for k, box in enumerate(res.boxes):
        np.testing.assert_allclose(box.lo, ends[:, k].min(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(box.hi, ends[:, k].max(axis=0), rtol=1e-12, atol=1e-12)

def test_reach_example_point_with_zero_second_coordinate():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 1)
    res = reach_sampled(lam, Box.point([1.0, 0.0]), cfg, np.random.default_rng(7))
    box = res.boxes[0]
    assert np.array_equal(box.lo, [1.0, 4.0]) and np.array_equal(box.hi, [1.0, 4.0])


def test_reach_example_hull_converges():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 1)
    res = reach_sampled(lam, Box.point([0.0, 1.0]), cfg, np.random.default_rng(8))
    box = res.boxes[0]
    assert box.lo[0] >= -2.0 and box.hi[0] <= 2.0
    assert box.hi[0] - box.lo[0] >= 3.8
    assert box.lo[1] == 6.0 and box.hi[1] == 6.0
    assert res.n_samples == cfg.n_samples


def test_hull_monotone_in_samples():
    lam = example_interval_matrix()
    rng = np.random.default_rng(9)
    x0 = Box.point([0.3, 1.0])
    hulls = []
    lo = hi = None
    for i in range(40):
        A = sample_matrix(lam, rng)
        b = step_box(A, x0)
        lo = b.lo if lo is None else np.minimum(lo, b.lo)
        hi = b.hi if hi is None else np.maximum(hi, b.hi)
        hulls.append((lo.copy(), hi.copy()))
    for (lo1, hi1), (lo2, hi2) in zip(hulls, hulls[1:]):
        assert np.all(lo2 <= lo1) and np.all(hi2 >= hi1)


def test_bloat_cases():
    b = Box(np.zeros(2), np.ones(2))
    assert bloat(b, 0.0) == b
    out = bloat(b, 0.5)
    assert np.array_equal(out.lo, [-0.5, -0.5]) and np.array_equal(out.hi, [1.5, 1.5])
    with pytest.raises(ValueError):
        bloat(b, -0.1)


def test_bloat_is_additive():
    rng = np.random.default_rng(10)
    for _ in range(50):
        lo = rng.normal(size=3)
        b = Box(lo, lo + rng.uniform(0, 2, 3))
        a_r, b_r = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        once = bloat(bloat(b, a_r), b_r)
        combined = bloat(b, a_r + b_r)
        assert np.allclose(once.lo, combined.lo, rtol=0, atol=1e-15)
        assert np.allclose(once.hi, combined.hi, rtol=0, atol=1e-15)


def _result(boxes):
    from fastslow.reach import ReachResult

    return ReachResult(tuple(boxes), 1, 0.0)


def test_calibrate_contained_gives_zero():
    fast = _result([Box(np.array([-1.0]), np.array([2.0]))])
    slow = _result([Box(np.array([-0.5]), np.array([1.5]))])
    assert calibrate_bloat([(fast, slow)]).mu == 0.0


def test_calibrate_hand_value():
    fast = _result([Box(np.array([0.0]), np.array([1.0]))])
    slow = _result([Box(np.array([-0.2]), np.array([1.1]))])
    out = calibrate_bloat([(fast, slow)])
    assert out.mu == pytest.approx(0.2)
    assert out.epsilon is None  # mu <= 1 has no multiplicative reading


def test_calibrate_epsilon_above_one():
    fast = _result([Box(np.array([0.0]), np.array([1.0]))])
    slow = _result([Box(np.array([-2.0]), np.array([1.0]))])
    out = calibrate_bloat([(fast, slow)])
    assert out.mu == pytest.approx(2.0)
    assert out.epsilon == pytest.approx(0.5)


def test_calibrate_containment_holds_by_construction():
    rng = np.random.default_rng(11)
    runs = []
    for _ in range(20):
        lo = rng.normal(size=2)
        fast = _result([Box(lo, lo + rng.uniform(0.1, 1.0, 2))])
        slow = _result([Box(lo - rng.uniform(0, 0.3, 2), lo + rng.uniform(0.1, 1.3, 2))])
        runs.append((fast, slow))
    mu = calibrate_bloat(runs).mu
    for fast, slow in runs:
        for fb, sb in zip(fast.boxes, slow.boxes):
            assert bloat(fb, mu).contains_box(sb)


def test_calibrate_empty_rejected():
    with pytest.raises(ValueError):
        calibrate_bloat([])


def test_intersects_cases():
    unsafe = UnsafeSet((Box(np.array([0.5, 0.5]), np.array([2.0, 2.0])),), (0, 1))
    assert intersects(Box(np.zeros(2), np.ones(2)), unsafe)
    assert not intersects(Box(np.array([-2.0, -2.0]), np.array([-1.0, -1.0])), unsafe)
    touching = Box(np.array([-1.0, -1.0]), np.array([0.5, 0.5]))
    assert intersects(touching, unsafe)


def test_intersects_projects_position_coordinates():
    unsafe = UnsafeSet((Box(np.array([0.0]), np.array([1.0])),), (2,))
    box = Box(np.array([9.0, 9.0, 0.5]), np.array([10.0, 10.0, 0.6]))
    assert intersects(box, unsafe)
    with pytest.raises(IndexError):
        intersects(Box(np.zeros(2), np.ones(2)), unsafe)


def test_unsafe_set_validation():
    with pytest.raises(ValueError):
        UnsafeSet((), ())
    with pytest.raises(ValueError):
        UnsafeSet((Box(np.zeros(3), np.ones(3)),), (0, 1))


def test_loss_nav_cases():
    free = UnsafeSet((), (0, 1))
    boxes = [Box(np.zeros(2), np.ones(2))]
    assert loss_nav(boxes, free) == 0.0
    unsafe = UnsafeSet((Box(np.zeros(2), np.ones(2)),), (0, 1))
    assert loss_nav([Box.point([0.5, 0.5])], unsafe) == math.inf
    corner = UnsafeSet((Box(np.ones(2), 2 * np.ones(2)),), (0, 1))
    assert loss_nav([Box(np.zeros(2), np.ones(2))], corner) == math.inf


def test_select_rs_cases():
    free = UnsafeSet((), (0, 1))
    res = _result([Box(np.zeros(2), np.ones(2))])
    assert select_rs(res, 0.5, free) == Action.USE_FAST
    # obstacle at distance mu/2 from the box: bloating reaches it
    mu = 0.4
    obstacle = UnsafeSet((Box(np.array([1.2, 0.0]), np.array([2.0, 1.0])),), (0, 1))
    assert select_rs(res, mu, obstacle) == Action.INVOKE_SLOW
    assert select_rs(res, 0.0, obstacle) == Action.USE_FAST


def test_statistical_containment_single_hull():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.9, 0.05, 2, 5)
    res = reach_sampled(lam, Box.point([0.0, 1.0]), cfg, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    contained = 0
    for _ in range(200):
        A = sample_matrix(lam, rng)
        x = np.array([0.0, 1.0])
        ok = True
        for k in range(5):
            x = A @ x
            ok &= res.boxes[k].contains_point(x)
        contained += ok
    assert contained / 200 >= 0.9


def test_interval_matrix_json_round_trip():
    lam = example_interval_matrix()
    back = IntervalMatrix.from_dict(lam.to_dict())
    assert np.array_equal(back.lo, lam.lo) and np.array_equal(back.hi, lam.hi)


def test_reach_result_csv():
    lam = example_interval_matrix()
    cfg = StatReachConfig(0.8, 0.2, 2, 3)
    res = reach_sampled(lam, Box.point([0.0, 1.0]), cfg, np.random.default_rng(15))
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "timestep,lo0,lo1,hi0,hi1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == res.boxes[0].lo[0]


def test_policy_soundness_on_calibration_scenarios():
    # Whenever the bloated fast verdict is safe, the slow set must be safe too
    # on the runs the calibration covered.
    lam = example_interval_matrix()
    fast_cfg = StatReachConfig(0.7, 0.2, 2, 3)
    slow_cfg = StatReachConfig(0.9, 0.05, 2, 3)
    rng = np.random.default_rng(14)
    scenarios = [Box.point(rng.uniform(-0.3, 0.3, 2) + np.array([0.0, 1.0])) for _ in range(10)]
    runs = []
    for i, x0 in enumerate(scenarios):
        fast = reach_sampled(lam, x0, fast_cfg, np.random.default_rng(100 + i))
        slow = reach_sampled(lam, x0, slow_cfg, np.random.default_rng(200 + i))
        runs.append((fast, slow))
    mu = calibrate_bloat(runs).mu
    unsafe = UnsafeSet((Box(np.array([2.5, 5.0]), np.array([4.0, 7.0])),), (0, 1))
    for fast, slow in runs:
        if select_rs(fast, mu, unsafe) == Action.USE_FAST:
            assert loss_nav(slow.boxes, unsafe) == 0.0
