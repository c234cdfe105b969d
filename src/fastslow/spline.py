"""Cubic-spline reference paths through waypoints, parametrized by cumulative
chord length and sampled at a fixed arc step."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferencePath:
    """Dense samples of the planned path: position, heading, curvature."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    yaw: np.ndarray
    curvature: np.ndarray

    def __post_init__(self) -> None:
        # Unwrapped once so per-query interpolation stays cheap and continuous
        # across the +-pi seam.
        object.__setattr__(self, "_yaw_unwrapped", np.unwrap(self.yaw))

    @property
    def length(self) -> float:
        return float(self.s[-1])

    def state_at(self, s_query: float) -> tuple[float, float, float, float]:
        """(x, y, yaw, curvature) linearly interpolated at arc position s;
        queries are clamped to the path."""
        s_query = min(max(s_query, 0.0), self.length)
        x = float(np.interp(s_query, self.s, self.x))
        y = float(np.interp(s_query, self.s, self.y))
        yaw = float(np.interp(s_query, self.s, self._yaw_unwrapped))
        yaw = float(np.arctan2(np.sin(yaw), np.cos(yaw)))
        curvature = float(np.interp(s_query, self.s, self.curvature))
        return x, y, yaw, curvature

    def project(self, px: float, py: float) -> float:
        """Arc position of the dense sample nearest to (px, py)."""
        d2 = (self.x - px) ** 2 + (self.y - py) ** 2
        return float(self.s[int(np.argmin(d2))])


def _natural_spline(x: np.ndarray, y: np.ndarray):
    """The natural cubic spline through (x, y), as f(s, nu) giving its nu-th
    derivative at s. It reproduces scipy's CubicSpline(x, y, bc_type="natural")
    bit for bit: the same tridiagonal system for the knot slopes, solved as
    LAPACK dgtsv solves it (row interchanges included), the same Hermite
    coefficients, and PPoly's evaluation order."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # Sub-diagonal dl, diagonal d, super-diagonal du; end rows: zero curvature.
    d = [2 * dx[0], *(2 * (dx[:-1] + dx[1:])).tolist(), 2 * dx[-1]]
    du, dl = [dx[0], *dx[:-1].tolist()], [*dx[1:].tolist(), dx[-1]]
    b = [3 * (y[1] - y[0]), *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(), 3 * (y[-1] - y[-2])]
    # Elimination with partial pivoting, as dgtsv does it for one right-hand
    # side; after an interchange, dl[i] holds the second superdiagonal.
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1], b[i + 1], dl[i] = d[i + 1] - fact * du[i], b[i + 1] - fact * b[i], 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < n - 2:
                dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    m = np.array(b)
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    c = (t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1])

    def f(s: np.ndarray, nu: int = 0) -> np.ndarray:
        i = np.clip(np.searchsorted(x, s, "right") - 1, 0, len(x) - 2)
        h, res, z = s - x[i], 0.0, 1.0
        for k in range(nu, 4):
            res = res + c[3 - k][i] * z * float(math.perm(k, nu))
            z = z * h
        return res

    return f


def cubic_spline_plan(waypoints, ds: float) -> ReferencePath:
    """Natural cubic splines x(s), y(s) through the waypoints, sampled every ds.

    Heading is atan2(y', x') and curvature is (x' y'' - y' x'') / |v|^3 from
    the spline derivatives.
    """
    pts = np.asarray(waypoints, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (x, y) waypoints")
    if ds <= 0:
        raise ValueError("arc step ds must be positive")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg == 0.0):
        raise ValueError("duplicate consecutive waypoints")
    knots = np.concatenate([[0.0], np.cumsum(seg)])
    sx, sy = _natural_spline(knots, pts[:, 0]), _natural_spline(knots, pts[:, 1])

    total = float(knots[-1])
    # Keep the knots among the samples so the path provably passes through
    # every waypoint.
    s = np.union1d(np.arange(0.0, total, ds), knots)
    dx, dy = sx(s, 1), sy(s, 1)
    ddx, ddy = sx(s, 2), sy(s, 2)
    yaw = np.arctan2(dy, dx)
    speed2 = dx * dx + dy * dy
    curvature = (dx * ddy - dy * ddx) / np.power(speed2, 1.5)
    return ReferencePath(s, sx(s), sy(s), yaw, curvature)
