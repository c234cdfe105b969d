import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fastslow.harness import BUILTIN_MAPS, resolve_map
from fastslow.spline import ReferencePath, cubic_spline_plan

# sha256 of s, x, y, yaw and curvature (float64 bytes, in that order) of each
# shipped map's reference path, as scipy's CubicSpline built it.
MAP_REFERENCE_SHA256 = {
    "obstacle_free": "bf122d85ccaf42ee98f37f8addcd40ef5445ea8a70cd7adc86a464b2e3fdb5fc",
    "obstacle_adjacent": "bf122d85ccaf42ee98f37f8addcd40ef5445ea8a70cd7adc86a464b2e3fdb5fc",
}
FIELDS = ("s", "x", "y", "yaw", "curvature")


def test_two_collinear_waypoints_give_straight_segment():
    ref = cubic_spline_plan([(0.0, 0.0), (10.0, 0.0)], 0.1)
    assert np.allclose(ref.y, 0.0, atol=1e-12)
    assert np.allclose(ref.yaw, 0.0, atol=1e-12)
    assert np.allclose(ref.curvature, 0.0, atol=1e-12)
    assert ref.length == pytest.approx(10.0)


def test_spline_interpolates_waypoints():
    wps = [(0.0, 0.0), (3.0, 1.0), (6.0, -1.0), (9.0, 2.0)]
    ref = cubic_spline_plan(wps, 0.05)
    for wx, wy in wps:
        d = np.sqrt((ref.x - wx) ** 2 + (ref.y - wy) ** 2)
        assert d.min() <= 1e-9


def test_right_angle_curvature_peaks_near_middle_waypoint():
    ref = cubic_spline_plan([(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)], 0.02)
    peak_s = ref.s[int(np.argmax(np.abs(ref.curvature)))]
    assert abs(peak_s - 5.0) < 1.0


def test_duplicate_waypoints_rejected():
    with pytest.raises(ValueError):
        cubic_spline_plan([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)], 0.1)


def test_input_validation():
    with pytest.raises(ValueError):
        cubic_spline_plan([(0.0, 0.0)], 0.1)
    with pytest.raises(ValueError):
        cubic_spline_plan([(0.0, 0.0), (1.0, 0.0)], 0.0)


def test_state_at_clamps_and_projects():
    ref = cubic_spline_plan([(0.0, 0.0), (10.0, 0.0)], 0.1)
    x, y, yaw, kappa = ref.state_at(-5.0)
    assert (x, y) == (0.0, 0.0)
    x, y, _, _ = ref.state_at(1e9)
    assert x == pytest.approx(10.0)
    assert ref.project(3.14, 0.5) == pytest.approx(3.1, abs=0.11)


def _scipy_plan(waypoints, ds: float) -> ReferencePath:
    """The reference path as scipy's natural CubicSpline gives it."""
    interpolate = pytest.importorskip("scipy.interpolate")
    pts = np.asarray(waypoints, dtype=float)
    knots = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    sx = interpolate.CubicSpline(knots, pts[:, 0], bc_type="natural")
    sy = interpolate.CubicSpline(knots, pts[:, 1], bc_type="natural")
    s = np.union1d(np.arange(0.0, float(knots[-1]), ds), knots)
    dx, dy = sx(s, 1), sy(s, 1)
    ddx, ddy = sx(s, 2), sy(s, 2)
    curvature = (dx * ddy - dy * ddx) / np.power(dx * dx + dy * dy, 1.5)
    return ReferencePath(s, sx(s), sy(s), np.arctan2(dy, dx), curvature)


_coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0, allow_subnormal=False))


@st.composite
def _waypoints(draw):
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=12))
    return [p for i, p in enumerate(pts) if i == 0 or np.hypot(p[0] - pts[i - 1][0], p[1] - pts[i - 1][1]) > 1e-3]


@settings(max_examples=300, deadline=None)
@given(_waypoints(), st.sampled_from([0.05, 0.3, 1.0]))
@example([(0.0, 0.0), (-0.0, 3.0)], 0.1)  # n = 2, a -0.0 coordinate
@example([(0.0, -0.0), (1.0, -0.0), (-0.0, 0.0)], 0.1)  # n = 3
@example([(0.0, 0.0), (1.0, 0.0), (1.0, 9.0), (20.0, 9.0)], 0.05)  # segment ratios above 2: dgtsv interchanges rows
def test_plan_matches_scipy_natural_spline_bit_for_bit(waypoints, ds):
    assume(len(waypoints) >= 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # a cusp has zero speed
        ours, ref = cubic_spline_plan(waypoints, ds), _scipy_plan(waypoints, ds)
    for field in FIELDS:
        a, b = getattr(ours, field), getattr(ref, field)
        assert np.array_equal(a, b, equal_nan=True), field
        assert np.array_equal(np.signbit(a), np.signbit(b)), field


@pytest.mark.parametrize("name", BUILTIN_MAPS)
def test_shipped_map_reference_paths_keep_their_bits(name):
    ref = resolve_map(name).reference()
    h = hashlib.sha256()
    for field in FIELDS:
        h.update(getattr(ref, field).tobytes())
    assert h.hexdigest() == MAP_REFERENCE_SHA256[name]
