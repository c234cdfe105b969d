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

import math
from dataclasses import dataclass, field

import numpy as np

from .policy import Action


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box [lo, hi]; emptiness is an explicit flag, never
    encoded as crossed bounds."""

    lo: np.ndarray
    hi: np.ndarray
    is_empty: bool = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        if self.is_empty or other.is_empty:
            return self.is_empty == other.is_empty and self.dim == other.dim
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if not self.is_empty and np.any(lo > hi):
            raise ValueError("crossed bounds; use Box.empty() for the empty set")

    @classmethod
    def empty(cls, dim: int) -> "Box":
        return cls(np.zeros(dim), np.zeros(dim), is_empty=True)

    @classmethod
    def point(cls, x) -> "Box":
        x = np.asarray(x, dtype=float)
        return cls(x, x.copy())

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def width(self) -> np.ndarray:
        if self.is_empty:
            return np.zeros(self.dim)
        return self.hi - self.lo

    def contains_point(self, x) -> bool:
        if self.is_empty:
            return False
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def overlaps(self, other: "Box") -> bool:
        """Closed-set overlap: touching boundaries count."""
        if self.is_empty or other.is_empty:
            return False
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def project(self, indices) -> "Box":
        idx = np.asarray(indices, dtype=int)
        if self.is_empty:
            return Box.empty(len(idx))
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

    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "IntervalMatrix":
        return cls(np.array(d["lo"], dtype=float), np.array(d["hi"], dtype=float))


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
        raise ValueError(f"type-I error delta must be in (0, 1), got {delta}")
    if n < 1 or t < 1:
        raise ValueError("dimension and horizon must be positive")
    facets = 2 * n * t
    q = (1.0 - p) / facets
    target = delta / facets
    n_samples = max(1, math.ceil(math.log(target) / math.log1p(-q)))
    while (1.0 - q) ** n_samples > target:  # guard the ceil against rounding
        n_samples += 1
    return n_samples


@dataclass(frozen=True)
class StatReachConfig:
    """One reachability routine: confidence p, type-I error delta, horizon,
    and the derived sample count. Cost defaults to being proportional to the
    sample count, mirroring that higher confidence needs more compute."""

    confidence: float
    type1_error: float
    dim: int
    horizon: int
    cost: float = field(default=-1.0)
    cost_per_sample: float = 1e-4
    n_samples: int = field(default=0)

    def __post_init__(self) -> None:
        n = required_samples(self.confidence, self.type1_error, self.dim, self.horizon)
        object.__setattr__(self, "n_samples", n)
        if self.cost < 0:
            object.__setattr__(self, "cost", n * self.cost_per_sample)

    def to_dict(self) -> dict:
        return {
            "confidence": self.confidence,
            "type1_error": self.type1_error,
            "dim": self.dim,
            "horizon": self.horizon,
            "cost": self.cost,
            "cost_per_sample": self.cost_per_sample,
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class UnsafeSet:
    """Obstacle boxes living in a subset of the state coordinates."""

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

    @property
    def is_free(self) -> bool:
        return len(self.boxes) == 0


@dataclass(frozen=True)
class ReachResult:
    """Per-timestep hull boxes (timesteps 1..t) plus accounting."""

    boxes: tuple[Box, ...]
    n_samples: int
    cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))

    @property
    def horizon(self) -> int:
        return len(self.boxes)


def sample_matrix(lam: IntervalMatrix, rng: np.random.Generator) -> np.ndarray:
    """One matrix with every entry drawn independently and uniformly from its
    interval (zero-width entries come back exactly)."""
    return rng.uniform(lam.lo, lam.hi)


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
    if box.is_empty:
        return Box.empty(A.shape[0])
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
    draws = rng.uniform(lam.lo[rows, cols], lam.hi[rows, cols], size=(N, rows.size))
    if not x0.is_empty and np.array_equal(x0.lo, x0.hi):
        return ReachResult(_point_hulls(lam.lo, rows, cols, draws, x0.lo, cfg.horizon), N, cfg.cost)
    A = np.broadcast_to(lam.lo, (N, n, n)).copy()
    A[:, rows, cols] = draws
    Ap, An = _split_signs(A)
    bounds = np.broadcast_to(np.stack([x0.lo, x0.hi], axis=-1), (N, n, 2)).copy()
    boxes = []
    for _ in range(cfg.horizon):
        bounds = _step_bounds(Ap, An, bounds)
        boxes.append(Box(bounds[:, :, 0].min(axis=0), bounds[:, :, 1].max(axis=0)))
    return ReachResult(tuple(boxes), N, cfg.cost)


def _point_hulls(lo, rows, cols, draws, x0, horizon) -> list[Box]:
    """Per-timestep hulls of the trajectories x_{k+1} = A_s x_k from the point
    x0, where A_s is lo with entry (rows[e], cols[e]) set to draws[s, e]."""
    # Samples run along the last axis. The steps reuse two state buffers: fresh
    # (n, N) arrays go back to the OS on free and page-fault in again per call.
    fixed = lo.copy()
    fixed[rows, cols] = 0.0
    x = np.repeat(x0[:, None], draws.shape[0], axis=1)
    nxt, term = np.empty_like(x), np.empty_like(x[0])
    boxes = []
    for _ in range(horizon):
        np.matmul(fixed, x, out=nxt)
        for e, (r, c) in enumerate(zip(rows, cols)):
            nxt[r] += np.multiply(draws[:, e], x[c], out=term)
        x, nxt = nxt, x
        boxes.append(Box(x.min(axis=1), x.max(axis=1)))
    return boxes


def bloat(box: Box, mu: float) -> Box:
    """Minkowski sum with the inf-norm ball of radius mu."""
    if mu < 0:
        raise ValueError(f"bloat radius must be non-negative, got {mu}")
    if box.is_empty:
        return box
    return Box(box.lo - mu, box.hi + mu)


@dataclass(frozen=True)
class CalibrationResult:
    """Smallest bloat radius making every calibration slow set fit inside the
    bloated fast set; epsilon = 1 - 1/mu when mu > 1, else not applicable."""

    mu: float
    epsilon: float | None
    n_pairs: int

    def to_dict(self) -> dict:
        return {"mu": self.mu, "epsilon": self.epsilon, "n_pairs": self.n_pairs}


def calibrate_bloat(calibration_runs: list[tuple[ReachResult, ReachResult]]) -> CalibrationResult:
    """Closed-form minimum bloat radius over paired (fast, slow) results.

    For each timestep and coordinate the one-sided deficits are
    fast.lo - slow.lo and slow.hi - fast.hi; mu is the largest deficit,
    clamped at zero when the slow sets are already contained.
    """
    if len(calibration_runs) == 0:
        raise ValueError("calibration set is empty")
    mu = 0.0
    for fast_res, slow_res in calibration_runs:
        if fast_res.horizon != slow_res.horizon:
            raise ValueError("fast/slow calibration results must share a horizon")
        for fb, sb in zip(fast_res.boxes, slow_res.boxes):
            mu = max(mu, float(np.max(fb.lo - sb.lo)), float(np.max(sb.hi - fb.hi)))
    eps = 1.0 - 1.0 / mu if mu > 1.0 else None
    return CalibrationResult(mu, eps, len(calibration_runs))


def intersects(box: Box, unsafe: UnsafeSet) -> bool:
    """Closed-set test: does the projection onto the position coordinates
    touch any obstacle box?"""
    if max(unsafe.position_indices) >= box.dim:
        raise IndexError(
            f"position index {max(unsafe.position_indices)} out of range for dimension {box.dim}"
        )
    proj = box.project(unsafe.position_indices)
    return any(proj.overlaps(b) for b in unsafe.boxes)


def loss_nav(step_boxes, unsafe: UnsafeSet) -> float:
    """0 when every timestep box avoids the unsafe set, +inf otherwise."""
    for box in step_boxes:
        if intersects(box, unsafe):
            return math.inf
    return 0.0


def select_rs(fast_result: ReachResult, mu: float, unsafe: UnsafeSet) -> Action:
    """Offload iff some bloated fast box touches the unsafe set; the bloated
    fast set over-approximates the slow set after calibration, so a clear
    verdict here certifies the slow verdict too."""
    for box in fast_result.boxes:
        if intersects(bloat(box, mu), unsafe):
            return Action.INVOKE_SLOW
    return Action.USE_FAST
