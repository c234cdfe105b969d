"""Probabilistic predictor pairs: a fixed smooth nonlinear reference predictor
plus a cheap companion whose output is, with probability 1-delta, a
per-coordinate rescaling within [1-eps, 1+eps] and otherwise an additive
corruption capped so the squared-norm loss never exceeds the configured cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .policy import Action, CostSchedule, RewardWeights, decision_threshold, select_generic
from .seeding import rng_for

MULTIPLICATIVE = "multiplicative"
TAIL = "tail"
# Inputs [b * CORRUPTION_BLOCK, (b + 1) * CORRUPTION_BLOCK) share the keyed
# corruption stream rng_for(corruption_seed, b). The value keys outputs.
CORRUPTION_BLOCK = 1024


@dataclass(frozen=True)
class ProbabilisticBound:
    """(epsilon, delta, loss cap) triple describing the fast/slow relation."""

    epsilon: float
    delta: float
    m_loss_cap: float

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not (self.m_loss_cap > 0 and math.isfinite(self.m_loss_cap)):
            raise ValueError(f"m_loss_cap must be positive and finite, got {self.m_loss_cap}")


@dataclass(frozen=True)
class ProxyPair:
    """Slow predictor y_i(x) = center + spread * sum_k C_ik cos(W_k . x + p_k),
    with sum_k |C_ik| = 1 so outputs stay inside [center - spread, center + spread],
    strictly positive. The fast companion corrupts the slow output; the branch
    and the perturbation are a pure function of (corruption_seed, input index),
    drawn from one keyed stream per block of CORRUPTION_BLOCK inputs, so any
    slice replays exactly and evaluation is safe to share across threads.
    """

    feature_weights: np.ndarray  # (K, n)
    feature_phases: np.ndarray  # (K,)
    coefs: np.ndarray  # (m, K), rows sum to 1 in absolute value
    out_center: float
    out_spread: float
    bound: ProbabilisticBound
    corruption_seed: int

    def __post_init__(self) -> None:
        if self.n_outputs < 1:
            raise ValueError(f"n_outputs must be >= 1, got {self.n_outputs}")
        if not self.out_center > self.out_spread > 0:
            raise ValueError(f"out_spread must be in (0, out_center {self.out_center}), got {self.out_spread}")

    @property
    def n_outputs(self) -> int:
        return self.coefs.shape[0]

    @property
    def tail_half_width(self) -> float:
        # Per-coordinate band making the worst-case squared-norm gap exactly the cap.
        return math.sqrt(self.bound.m_loss_cap / self.n_outputs)

    def slow_output(self, x: np.ndarray) -> np.ndarray:
        """One input (n,) or a batch (T, n), each row with the bits of a single input."""
        z = np.matmul(self.feature_weights, np.asarray(x, dtype=float)[..., None])  # not X @ W.T: row bits differ
        feats = np.cos(z + self.feature_phases[:, None])
        return self.out_center + self.out_spread * np.matmul(self.coefs, feats)[..., 0]

    def _corrupt(self, y_slow: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
        """Fast outputs of the (T, m) slow outputs of inputs first, first + 1, ...
        and which took the tail branch. Input i is row i % B of block b = i // B
        (B = CORRUPTION_BLOCK): rng_for(corruption_seed, b) draws B coins, then
        (B, m) uniforms u, and row i takes the tail branch iff its coin is below
        delta and draws lo + (hi - lo) * u in its branch's band [lo, hi)."""
        eps, delta, h = self.bound.epsilon, self.bound.delta, self.tail_half_width
        rows, m = y_slow.shape
        coins, u = np.empty(rows), np.empty((rows, m))
        done = 0
        while done < rows:
            block, offset = divmod(first + done, CORRUPTION_BLOCK)
            rng = rng_for(self.corruption_seed, block)
            take = min(CORRUPTION_BLOCK - offset, rows - done)
            coins[done : done + take] = rng.random(CORRUPTION_BLOCK)[offset : offset + take]
            u[done : done + take] = rng.random((CORRUPTION_BLOCK, m))[offset : offset + take]
            done += take
        tail = coins < delta
        lo = np.where(tail, -h, 1.0 - eps)[:, None]
        hi = np.where(tail, h, 1.0 + eps)[:, None]
        draws = lo + (hi - lo) * u
        return np.where(tail[:, None], y_slow + draws, draws * y_slow), tail

    def fast_with_branch(self, x: np.ndarray, index: int) -> tuple[np.ndarray, str]:
        """Fast output plus which branch fired for input number `index`."""
        y, tail = self._corrupt(self.slow_output(x)[None], index)
        return y[0], TAIL if tail[0] else MULTIPLICATIVE

    def fast_output(self, x: np.ndarray, index: int) -> np.ndarray:
        """Fast output of input number `index`, or of a (T, n) batch numbered from `index`."""
        y_slow = self.slow_output(x)
        return self._corrupt(np.atleast_2d(y_slow), index)[0].reshape(y_slow.shape)


def make_proxy_pair(
    rng: np.random.Generator,
    n: int,
    m: int,
    bound: ProbabilisticBound,
    n_features: int = 16,
    out_center: float = 1.0,
    out_spread: float = 0.5,
) -> ProxyPair:
    """Draw a fixed random smooth predictor, with unit-scale feature weights,
    and wrap it into a corrupted pair."""
    for field, size in (("n_inputs", n), ("n_features", n_features)):
        if size < 1:
            raise ValueError(f"{field} must be >= 1, got {size}")
    W = rng.standard_normal((n_features, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_features)
    C = rng.standard_normal((m, n_features))
    C /= np.sum(np.abs(C), axis=1, keepdims=True)
    corruption_seed = int(rng.integers(0, 2**63 - 1))
    return ProxyPair(W, phases, C, out_center, out_spread, bound, corruption_seed)


def expected_loss_bound_dnn(y_fast: np.ndarray, bound: ProbabilisticBound) -> float | np.ndarray:
    """delta * cap + (1 - delta) * eps^2 * ||y_fast||^2 / (1 - eps)^2, per
    row of a (T, m) batch."""
    y_fast = np.asarray(y_fast, dtype=float)
    eps, delta = bound.epsilon, bound.delta
    mult = eps * eps * np.vecdot(y_fast, y_fast) / ((1.0 - eps) ** 2)
    return delta * bound.m_loss_cap + (1.0 - delta) * mult


def select_dnn(y_fast: np.ndarray, bound: ProbabilisticBound, weights: RewardWeights, costs: CostSchedule) -> Action:
    """Offload iff the expected-loss bound exceeds the decision threshold."""
    return select_generic(expected_loss_bound_dnn(y_fast, bound), decision_threshold(weights, costs))
