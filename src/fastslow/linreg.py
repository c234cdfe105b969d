"""Linear-regression instantiation: synthetic slow/fast model pairs coupled by
a per-coordinate multiplicative coreset-style guarantee, the closed-form loss
bound, and the matching selection rule.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

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
        return self.A @ x + self.b


@dataclass(frozen=True)
class CoresetPair:
    """Fast model = per-coordinate scaling of the slow model.

    Every scale lies in [1, 1+epsilon], so for any input with a non-negative
    slow output, y_fast is within [y_slow, (1+epsilon) * y_slow] coordinate
    by coordinate. Evaluation applies the scales to the slow output directly,
    which makes that sandwich exact in floating point as well.
    """

    slow: LinearModel
    fast: LinearModel
    epsilon: float
    per_coord_scales: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.per_coord_scales, dtype=float)
        object.__setattr__(self, "per_coord_scales", s)
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if np.any(s < 1.0) or np.any(s > 1.0 + self.epsilon):
            raise ValueError("per-coordinate scales must lie in [1, 1+epsilon]")

    @classmethod
    def from_slow(cls, slow: LinearModel, epsilon: float, scales: np.ndarray) -> "CoresetPair":
        scales = np.asarray(scales, dtype=float)
        fast = LinearModel(scales[:, None] * slow.A, scales * slow.b)
        return cls(slow, fast, epsilon, scales)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y_fast, y_slow) with the coupling applied pointwise."""
        y_slow = self.slow(x)
        return self.per_coord_scales * y_slow, y_slow

    def fast_output(self, x: np.ndarray) -> np.ndarray:
        return self.per_coord_scales * self.slow(x)

    def to_dict(self, seed: int | None = None) -> dict:
        doc = {
            "kind": "coreset_linreg_pair",
            "epsilon": self.epsilon,
            "slow": {"A": self.slow.A.tolist(), "b": self.slow.b.tolist()},
            "per_coord_scales": self.per_coord_scales.tolist(),
        }
        if seed is not None:
            doc["seed"] = int(seed)
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "CoresetPair":
        slow = LinearModel(np.array(d["slow"]["A"]), np.array(d["slow"]["b"]))
        return cls.from_slow(slow, float(d["epsilon"]), np.array(d["per_coord_scales"]))

    def save(self, path: str | Path, seed: int | None = None) -> None:
        Path(path).write_text(json.dumps(self.to_dict(seed=seed), sort_keys=True, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "CoresetPair":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class InputDistribution:
    """Non-negative inputs: coordinatewise |N(0, scale^2)| draws."""

    n: int
    scale: float = 1.0
    kind: str = "nonnegative-gaussian-magnitude"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind != "nonnegative-gaussian-magnitude":
            raise ValueError(f"unsupported input kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

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
    A = np.abs(rng.standard_normal((m, n)))
    b = np.abs(rng.standard_normal(m)) * bias_weight
    row_total = A.sum(axis=1) + b
    slow = LinearModel(A / row_total[:, None], b / row_total)
    scales = rng.uniform(1.0, 1.0 + epsilon, size=m)
    return CoresetPair.from_slow(slow, epsilon, scales)


def loss_l2(y1: np.ndarray, y2: np.ndarray) -> float:
    """Squared Euclidean distance."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != y2.shape:
        raise ValueError(f"shape mismatch {y1.shape} vs {y2.shape}")
    d = y1 - y2
    return float(d @ d)


def loss_bound_lr(y_fast: np.ndarray, epsilon: float) -> float:
    """Worst-case loss against the slow model given only the fast output:
    epsilon^2 * ||y_fast||^2 / (1 + epsilon)^2."""
    y_fast = np.asarray(y_fast, dtype=float)
    return float(epsilon * epsilon * (y_fast @ y_fast) / ((1.0 + epsilon) ** 2))


def select_lr(y_fast: np.ndarray, epsilon: float, weights: RewardWeights, costs: CostSchedule) -> Action:
    """Offload iff the closed-form bound exceeds the decision threshold."""
    return select_generic(loss_bound_lr(y_fast, epsilon), decision_threshold(weights, costs))


def bound_scale_lr(pair: CoresetPair, inputs: np.ndarray) -> float:
    """Realized loss over loss_bound_lr, each summed over a batch of inputs
    evaluated at once. The ratio lies in [0, 1]; times the bound, a worst case
    over scales up to 1 + epsilon, it estimates this pair's expected loss."""
    y_slow = inputs @ pair.slow.A.T + pair.slow.b
    y_fast = pair.per_coord_scales * y_slow
    loss = np.sum((y_fast - y_slow) ** 2, axis=1)
    bound = math.fsum(pair.epsilon**2 * np.sum(y_fast * y_fast, axis=1) / (1.0 + pair.epsilon) ** 2)
    return math.fsum(loss) / bound if bound > 0 else 0.0  # zero only for a pair with no outputs
