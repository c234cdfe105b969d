"""Linear-regression instantiation: synthetic slow/fast model pairs coupled by
a per-coordinate multiplicative coreset-style guarantee, the closed-form loss
bound, and the matching selection rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import Action, CostSchedule, RewardWeights, decision_threshold, select_generic


@dataclass(frozen=True)
class LinearModel:
    """y = A x + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent shapes A{A.shape}, b{b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("model entries must be finite")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """One input (n,) or a batch (T, n), each row with the bits of A @ row (X @ A.T differs)."""
        return np.matmul(self.A, np.asarray(x)[..., None])[..., 0] + self.b


@dataclass(frozen=True)
class CoresetPair:
    """Fast model = per-coordinate scaling of the slow model.

    Every scale lies in [1, 1+epsilon], so for any input with a non-negative
    slow output, y_fast is within [y_slow, (1+epsilon) * y_slow] coordinate
    by coordinate. The fast output applies the scales to the slow output
    directly, which makes that sandwich exact in floating point as well.
    """

    slow: LinearModel
    epsilon: float
    per_coord_scales: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.per_coord_scales, dtype=float)
        object.__setattr__(self, "per_coord_scales", s)
        if s.shape != self.slow.b.shape:
            raise ValueError(f"per_coord_scales: need one scale per slow output, shape {self.slow.b.shape}, got {s.shape}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if np.any(s < 1.0) or np.any(s > 1.0 + self.epsilon):
            raise ValueError("per-coordinate scales must lie in [1, 1+epsilon]")

    def fast_output(self, x: np.ndarray) -> np.ndarray:
        return self.per_coord_scales * self.slow(x)


@dataclass(frozen=True)
class InputDistribution:
    """Non-negative inputs: coordinatewise |N(0, scale^2)| draws."""

    n: int
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def draw(self, count: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return np.abs(rng.standard_normal((count, self.n))) * self.scale


def generate_coreset_pair(
    rng: np.random.Generator, n: int, m: int, epsilon: float, bias_weight: float = 0.1
) -> CoresetPair:
    """Draw a synthetic slow model and its scaled fast companion.

    Slow-model entries are magnitude-Gaussian (the intercept damped by
    bias_weight so small inputs give small outputs), then each row of (A | b)
    is normalized by its row sum so inputs from the unit box map into [0, 1].
    Outputs stay non-negative for any non-negative input, which keeps the
    multiplicative sandwich order-correct.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    for field, size in (("n_inputs", n), ("n_outputs", m)):
        if size < 1:
            raise ValueError(f"{field} must be >= 1, got {size}")
    A = np.abs(rng.standard_normal((m, n)))
    b = np.abs(rng.standard_normal(m)) * bias_weight
    row_total = A.sum(axis=1) + b
    slow = LinearModel(A / row_total[:, None], b / row_total)
    scales = rng.uniform(1.0, 1.0 + epsilon, size=m)
    return CoresetPair(slow, epsilon, scales)


def loss_l2(y1: np.ndarray, y2: np.ndarray) -> float | np.ndarray:
    """Squared Euclidean distance over the last axis: one value for two
    outputs, (T,) values for two (T, m) batches."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != y2.shape:
        raise ValueError(f"shape mismatch {y1.shape} vs {y2.shape}")
    d = y1 - y2
    return np.vecdot(d, d)  # per row, the bits of d @ d


def loss_bound_lr(y_fast: np.ndarray, epsilon: float) -> float | np.ndarray:
    """Worst-case loss against the slow model given only the fast output:
    epsilon^2 * ||y_fast||^2 / (1 + epsilon)^2, per row of a (T, m) batch."""
    y_fast = np.asarray(y_fast, dtype=float)
    return epsilon * epsilon * np.vecdot(y_fast, y_fast) / ((1.0 + epsilon) ** 2)


def select_lr(y_fast: np.ndarray, epsilon: float, weights: RewardWeights, costs: CostSchedule) -> Action:
    """Offload iff the closed-form bound exceeds the decision threshold."""
    return select_generic(loss_bound_lr(y_fast, epsilon), decision_threshold(weights, costs))
