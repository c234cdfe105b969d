"""Statistical reachable sets for uncertain linear systems.

Dynamics matrices live in an interval matrix (entrywise lower/upper bounds).
Reachable sets are axis-aligned boxes: each sampled matrix propagates the
initial box exactly by interval arithmetic, and the reported set per timestep
is the componentwise hull over all samples. The sample count is chosen so
that, per facet and with a union bound over every facet at every timestep,
a fresh sampled trajectory stays inside the hull with probability at least p,
at confidence 1 - delta.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .policy import Action


@dataclass(frozen=True, eq=False)
class Box:
    """Non-empty axis-aligned box [lo, hi]: lo <= hi coordinatewise."""

    lo: np.ndarray
    hi: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("crossed bounds: lo exceeds hi")

    @classmethod
    def point(cls, x) -> "Box":
        x = np.asarray(x, dtype=float)
        return cls(x, x.copy())

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def overlaps(self, other: "Box") -> bool:
        """Closed-set overlap: touching boundaries count."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def project(self, indices) -> "Box":
        idx = np.asarray(indices, dtype=int)
        return Box(self.lo[idx], self.hi[idx])


@dataclass(frozen=True)
class IntervalMatrix:
    """Entrywise-bounded square matrix family."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
            raise ValueError(f"need matching square matrices, got {lo.shape} and {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("lower bounds exceed upper bounds")

    @classmethod
    def exact(cls, A) -> "IntervalMatrix":
        A = np.asarray(A, dtype=float)
        return cls(A, A.copy())

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


def example_interval_matrix(uncertainty: float = 2.0) -> IntervalMatrix:
    """The 2x2 demo system [[1, a], [4, 6]] with a in [-uncertainty, uncertainty]."""
    lo = np.array([[1.0, -uncertainty], [4.0, 6.0]])
    hi = np.array([[1.0, uncertainty], [4.0, 6.0]])
    return IntervalMatrix(lo, hi)


def required_samples(p: float, delta: float, n: int, t: int) -> int:
    """Smallest N with (1 - q)^N <= delta / (2 n t), where q = (1 - p) / (2 n t).

    Per facet (each of 2n box sides at each of t timesteps), N samples fail to
    pin the (1 - q)-quantile with probability (1 - q)^N; a union bound over
    the 2 n t facets then gives: with confidence >= 1 - delta, a fresh sample
    escapes the hull with probability at most 2 n t q = 1 - p.
    """
    if not 0 < p < 1:
        raise ValueError(f"confidence p must be in (0, 1), got {p}")
    if not 0 < delta < 1:
        raise ValueError(f"type1_error delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ValueError(f"dim n must be positive, got {n}")
    if t < 1:
        raise ValueError(f"horizon t must be positive, got {t}")
    facets = 2 * n * t
    q = (1.0 - p) / facets
    target = delta / facets
    n_samples = max(1, math.ceil(math.log(target) / math.log1p(-q)))
    while (1.0 - q) ** n_samples > target:  # guard the ceil against rounding
        n_samples += 1
    return n_samples


# The cost of one sample when a routine's cost is left to its sample count.
COST_PER_SAMPLE = 1e-4


@dataclass(frozen=True)
class StatReachConfig:
    """One reachability routine: confidence p, type-I error delta, horizon,
    and the derived sample count. A negative cost stands for COST_PER_SAMPLE
    times the sample count, mirroring that higher confidence needs more
    compute."""

    confidence: float
    type1_error: float
    dim: int
    horizon: int
    cost: float = field(default=-1.0)
    n_samples: int = field(default=0)

    def __post_init__(self) -> None:
        n = required_samples(self.confidence, self.type1_error, self.dim, self.horizon)
        object.__setattr__(self, "n_samples", n)
        if self.cost < 0:
            object.__setattr__(self, "cost", n * COST_PER_SAMPLE)


@dataclass(frozen=True)
class UnsafeSet:
    """Obstacle boxes living in a subset of the state coordinates. `lo` and
    `hi` stack the boxes' bounds as (k, len(position_indices)) arrays."""

    boxes: tuple[Box, ...]
    position_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "position_indices", tuple(int(i) for i in self.position_indices))
        if len(self.position_indices) == 0:
            raise ValueError("position index list must be non-empty")
        for b in self.boxes:
            if b.dim != len(self.position_indices):
                raise ValueError("obstacle dimension does not match the position subspace")
        shape = (len(self.boxes), len(self.position_indices))
        object.__setattr__(self, "lo", np.array([b.lo for b in self.boxes]).reshape(shape))
        object.__setattr__(self, "hi", np.array([b.hi for b in self.boxes]).reshape(shape))

    @property
    def is_free(self) -> bool:
        return len(self.boxes) == 0


@dataclass(frozen=True, eq=False)
class ReachResult:
    """Per-timestep hulls (timesteps 1..t) as (t, n) arrays of lower and upper
    bounds, and the number of sampled matrices behind them."""

    lo: np.ndarray
    hi: np.ndarray
    n_samples: int

    @property
    def horizon(self) -> int:
        return self.lo.shape[0]

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        """The hulls as Boxes, built on first use."""
        return tuple(Box(lo, hi) for lo, hi in zip(self.lo, self.hi))


def sample_matrix(lam: IntervalMatrix, rng: np.random.Generator) -> np.ndarray:
    """One matrix with every entry drawn independently and uniformly from its
    interval (zero-width entries come back exactly)."""
    return rng.uniform(lam.lo, lam.hi)


def _uniform_rows(low: np.ndarray, high: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of draws from [low, high): the doubles rng.uniform(low, high,
    (n, len(low))) returns, from the same stream, without its per-element
    broadcast (low + width * U, evaluated the same way)."""
    return low + (high - low) * rng.random((n, low.size))


def _split_signs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(A, 0.0), np.maximum(-A, 0.0)


def _step_bounds(Ap: np.ndarray, An: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    # Shared kernel for the single and batched cases so both reduce in the
    # same order and agree bit for bit. bounds stacks (lo, hi) along the last
    # axis: new_lo = Ap @ lo - An @ hi and new_hi = Ap @ hi - An @ lo.
    return Ap @ bounds - An @ bounds[..., ::-1]


def step_box(A: np.ndarray, box: Box) -> Box:
    """Tightest axis-aligned box containing {A x : x in box}."""
    A = np.asarray(A, dtype=float)
    if A.shape[1] != box.dim:
        raise ValueError(f"matrix columns {A.shape[1]} do not match box dimension {box.dim}")
    Ap, An = _split_signs(A)
    out = _step_bounds(Ap, An, np.stack([box.lo, box.hi], axis=-1))
    return Box(out[..., 0], out[..., 1])


def reach_sampled(
    lam: IntervalMatrix,
    x0: Box,
    cfg: StatReachConfig,
    rng: np.random.Generator,
) -> ReachResult:
    """Sampled-hull reachable sets over cfg.horizon steps.

    Draws cfg.n_samples matrices, holds each fixed along its trajectory, and
    propagates the initial box by exact interval arithmetic; the reported box
    per timestep is the componentwise hull across samples. A point start
    stays a point under each sample, so it takes a faster path that steps
    the N trajectories as one (N, n) @ (n, n) product plus the sampled
    entries; it agrees with the interval path up to rounding.
    """
    n = lam.dim
    if x0.dim != n:
        raise ValueError(f"initial box dimension {x0.dim} does not match system dimension {n}")
    N = cfg.n_samples
    # Draw only the entries with nonzero interval width; the rest are fixed.
    rows, cols = np.nonzero(lam.hi - lam.lo)
    draws = _uniform_rows(lam.lo[rows, cols], lam.hi[rows, cols], N, rng)
    lo, hi = np.empty((cfg.horizon, n)), np.empty((cfg.horizon, n))
    if np.array_equal(x0.lo, x0.hi):
        _point_hulls(lam.lo, rows, cols, draws, x0.lo, lo, hi)
        return ReachResult(lo, hi, N)
    A = np.broadcast_to(lam.lo, (N, n, n)).copy()
    A[:, rows, cols] = draws
    Ap, An = _split_signs(A)
    bounds = np.broadcast_to(np.stack([x0.lo, x0.hi], axis=-1), (N, n, 2)).copy()
    for k in range(cfg.horizon):
        bounds = _step_bounds(Ap, An, bounds)
        bounds[:, :, 0].min(axis=0, out=lo[k])
        bounds[:, :, 1].max(axis=0, out=hi[k])
    return ReachResult(lo, hi, N)


def _point_hulls(lo, rows, cols, draws, x0, hull_lo, hull_hi) -> None:
    """Per-timestep hulls of the trajectories x_{k+1} = A_s x_k from the point
    x0, where A_s is lo with entry (rows[e], cols[e]) set to draws[s, e],
    reduced into the rows of hull_lo and hull_hi."""
    # Samples run along the last axis. The steps reuse two state buffers: fresh
    # (n, N) arrays go back to the OS on free and page-fault in again per call.
    fixed = lo.copy()
    fixed[rows, cols] = 0.0
    x = np.repeat(x0[:, None], draws.shape[0], axis=1)
    nxt, term = np.empty_like(x), np.empty_like(x[0])
    for k in range(hull_lo.shape[0]):
        np.matmul(fixed, x, out=nxt)
        for e, (r, c) in enumerate(zip(rows, cols)):
            nxt[r] += np.multiply(draws[:, e], x[c], out=term)
        x, nxt = nxt, x
        x.min(axis=1, out=hull_lo[k])
        x.max(axis=1, out=hull_hi[k])


def bloat(sets, mu: float):
    """Minkowski sum of a Box, or of every timestep box of a ReachResult, with
    the inf-norm ball of radius mu."""
    if mu < 0:
        raise ValueError(f"bloat radius must be non-negative, got {mu}")
    return dataclasses.replace(sets, lo=sets.lo - mu, hi=sets.hi + mu)


@dataclass(frozen=True)
class CalibrationResult:
    """Smallest bloat radius making every calibration slow set fit inside the
    bloated fast set; epsilon = 1 - 1/mu when mu > 1, else not applicable."""

    mu: float
    epsilon: float | None
    n_pairs: int


def calibrate_bloat(calibration_runs: list[tuple[ReachResult, ReachResult]]) -> CalibrationResult:
    """Closed-form minimum bloat radius over paired (fast, slow) results.

    For each timestep and coordinate the one-sided deficits are
    fast.lo - slow.lo and slow.hi - fast.hi; mu is the largest deficit,
    clamped at zero when the slow sets are already contained.
    """
    if len(calibration_runs) == 0:
        raise ValueError("calibration set is empty")
    if any(fast.horizon != slow.horizon for fast, slow in calibration_runs):
        raise ValueError("fast/slow calibration results must share a horizon")
    fast_lo, fast_hi, slow_lo, slow_hi = (
        np.concatenate(col) for col in zip(*((f.lo, f.hi, s.lo, s.hi) for f, s in calibration_runs))
    )
    # max is exact, so one reduction over all pairs finds the same deficit.
    mu = max(0.0, float(np.max(fast_lo - slow_lo)), float(np.max(slow_hi - fast_hi)))
    eps = 1.0 - 1.0 / mu if mu > 1.0 else None
    return CalibrationResult(mu, eps, len(calibration_runs))


def _touches(lo: np.ndarray, hi: np.ndarray, unsafe: UnsafeSet) -> bool:
    """Closed-set test: does any row of the (k, n) boxes [lo, hi], projected
    onto the position coordinates, touch an obstacle box?"""
    idx = list(unsafe.position_indices)
    if max(idx) >= lo.shape[1]:
        raise IndexError(f"position index {max(idx)} out of range for dimension {lo.shape[1]}")
    plo, phi = lo[:, None, idx], hi[:, None, idx]
    return bool(np.any(np.all((plo <= unsafe.hi) & (unsafe.lo <= phi), axis=-1)))


def intersects(box: Box, unsafe: UnsafeSet) -> bool:
    """Closed-set test: does the projection onto the position coordinates
    touch any obstacle box?"""
    return _touches(box.lo[None], box.hi[None], unsafe)


def loss_nav(step_sets, unsafe: UnsafeSet) -> float:
    """0 when every timestep set avoids the unsafe set, +inf otherwise.
    `step_sets` is a ReachResult, tested on its arrays at once, or a sequence
    of Boxes."""
    if isinstance(step_sets, ReachResult):
        hit = _touches(step_sets.lo, step_sets.hi, unsafe)
    else:
        hit = any(intersects(box, unsafe) for box in step_sets)
    return math.inf if hit else 0.0


def select_rs(fast_result: ReachResult, mu: float, unsafe: UnsafeSet) -> Action:
    """Offload iff some bloated fast box touches the unsafe set; the bloated
    fast set over-approximates the slow set after calibration, so a clear
    verdict here certifies the slow verdict too."""
    return Action.INVOKE_SLOW if loss_nav(bloat(fast_result, mu), unsafe) else Action.USE_FAST
