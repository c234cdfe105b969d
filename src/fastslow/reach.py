"""Statistical reachable sets for uncertain linear systems.

Dynamics matrices live in an interval matrix (entrywise lower/upper bounds).
Reachable sets and obstacles are axis-aligned boxes, held as (k, n) arrays
of lower and upper bounds, one row per box. Each sampled matrix carries the
start point along its own trajectory, and the reported set per timestep is
the componentwise hull over all samples. The sample count is chosen so
that, per facet and with a union bound over every facet at every timestep,
a fresh sampled trajectory stays inside the hull with probability at least p,
at confidence 1 - delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .policy import Action


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


@dataclass(frozen=True, eq=False)
class UnsafeSet:
    """Obstacle boxes living in a subset of the state coordinates: row i of
    the (k, len(position_indices)) arrays `lo` and `hi` bounds obstacle i,
    and a free map has k = 0."""

    lo: np.ndarray
    hi: np.ndarray
    position_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        lo, hi = np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
        idx = tuple(int(i) for i in self.position_indices)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "position_indices", idx)
        if len(idx) == 0:
            raise ValueError("position index list must be non-empty")
        if lo.ndim != 2 or lo.shape[1] != len(idx) or hi.shape != lo.shape:
            raise ValueError(f"obstacle bounds must be (k, {len(idx)}) arrays, got {lo.shape} and {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("crossed bounds: lo exceeds hi")


@dataclass(frozen=True, eq=False)
class ReachResult:
    """Per-timestep hulls (timesteps 1..t) as (t, n) arrays of lower and upper
    bounds."""

    lo: np.ndarray
    hi: np.ndarray

    @property
    def horizon(self) -> int:
        return self.lo.shape[0]


def sample_matrix(lam: IntervalMatrix, rng: np.random.Generator) -> np.ndarray:
    """One matrix with every entry drawn independently and uniformly from its
    interval (zero-width entries come back exactly)."""
    return rng.uniform(lam.lo, lam.hi)


def _uniform_rows(low: np.ndarray, high: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of draws from [low, high): the doubles rng.uniform(low, high,
    (n, len(low))) returns, from the same stream, without its per-element
    broadcast (low + width * U, evaluated the same way)."""
    return low + (high - low) * rng.random((n, low.size))


def step_box(A: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the tightest axis-aligned box containing {A x : lo <= x <= hi},
    by exact interval arithmetic."""
    A = np.asarray(A, dtype=float)
    if A.shape[1] != lo.shape[0]:
        raise ValueError(f"matrix columns {A.shape[1]} do not match box dimension {lo.shape[0]}")
    Ap, An = np.maximum(A, 0.0), np.maximum(-A, 0.0)
    return Ap @ lo - An @ hi, Ap @ hi - An @ lo


def reach_sampled(
    lam: IntervalMatrix,
    x0: np.ndarray,
    cfg: StatReachConfig,
    rng: np.random.Generator,
) -> ReachResult:
    """Sampled-hull reachable sets from the start point x0 over cfg.horizon
    steps.

    Draws cfg.n_samples matrices A_s, holds each fixed along its trajectory
    x_{k+1} = A_s x_k, and reports per timestep the componentwise hull of the
    N states. The N trajectories step as one (n, n) @ (n, N) product of the
    fixed entries plus the sampled entries.
    """
    n = lam.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"start point shape {x0.shape} does not match system dimension {n}")
    N = cfg.n_samples
    # Draw only the entries with nonzero interval width; the rest are fixed.
    rows, cols = np.nonzero(lam.hi - lam.lo)
    draws = _uniform_rows(lam.lo[rows, cols], lam.hi[rows, cols], N, rng)
    fixed = lam.lo.copy()
    fixed[rows, cols] = 0.0
    # Samples run along the last axis. The steps reuse two state buffers: fresh
    # (n, N) arrays go back to the OS on free and page-fault in again per call.
    x = np.repeat(x0[:, None], N, axis=1)
    nxt, term = np.empty_like(x), np.empty_like(x[0])
    lo, hi = np.empty((cfg.horizon, n)), np.empty((cfg.horizon, n))
    for k in range(cfg.horizon):
        np.matmul(fixed, x, out=nxt)
        for e, (r, c) in enumerate(zip(rows, cols)):
            nxt[r] += np.multiply(draws[:, e], x[c], out=term)
        x, nxt = nxt, x
        x.min(axis=1, out=lo[k])
        x.max(axis=1, out=hi[k])
    return ReachResult(lo, hi)


def bloat(result: ReachResult, mu: float) -> ReachResult:
    """Minkowski sum of every timestep box with the inf-norm ball of radius mu."""
    if mu < 0:
        raise ValueError(f"bloat radius must be non-negative, got {mu}")
    return ReachResult(result.lo - mu, result.hi + mu)


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


def loss_nav(result: ReachResult, unsafe: UnsafeSet) -> float:
    """0 when every timestep box, projected onto the position coordinates,
    avoids every obstacle box, +inf otherwise. The sets are closed: touching
    counts as a hit."""
    idx = list(unsafe.position_indices)
    if max(idx) >= result.lo.shape[1]:
        raise IndexError(f"position index {max(idx)} out of range for dimension {result.lo.shape[1]}")
    plo, phi = result.lo[:, None, idx], result.hi[:, None, idx]
    hit = np.any(np.all((plo <= unsafe.hi) & (unsafe.lo <= phi), axis=-1))
    return math.inf if hit else 0.0


def select_rs(fast_result: ReachResult, mu: float, unsafe: UnsafeSet) -> Action:
    """Offload iff some bloated fast box touches the unsafe set; the bloated
    fast set over-approximates the slow set after calibration, so a clear
    verdict here certifies the slow verdict too."""
    return Action.INVOKE_SLOW if loss_nav(bloat(fast_result, mu), unsafe) else Action.USE_FAST
