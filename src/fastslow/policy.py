"""Reward accounting, the optimal threshold rule, benchmark policies, and the
episode runner shared by every scenario.

The decision problem: at each step a fast model output is already in hand and
the question is whether paying for the slow model is worth the accuracy gain.
Offloading is worth it exactly when the expected gain exceeds the threshold
(beta / alpha) * c_slow.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable

import numpy as np


class Action(IntEnum):
    USE_FAST = 0
    INVOKE_SLOW = 1


@dataclass(frozen=True)
class RewardWeights:
    """Emphasis on accuracy (alpha) vs compute cost (beta)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0 so the decision threshold is finite, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class CostSchedule:
    """Per-invocation costs of the two models, in caller-chosen units."""

    c_fast: float
    c_slow: float

    def __post_init__(self) -> None:
        for name, cost in (("c_fast", self.c_fast), ("c_slow", self.c_slow)):
            if cost < 0:
                raise ValueError(f"{name} must be non-negative, got {cost}")
        if not self.c_slow > self.c_fast:
            warnings.warn(
                "c_slow <= c_fast: the slow model is not the expensive one, "
                "the cost/accuracy trade-off is degenerate",
                stacklevel=2,
            )


@dataclass
class StepRecord:
    """Per-step decision log entry."""

    t: int
    action: Action
    loss_realized: float
    cost_incurred: float
    reward: float
    bound_used: float


@dataclass(frozen=True, eq=False)
class EpisodeLog:
    """The decision log of one episode, column by column: entry t of each
    array belongs to step t. Iterating yields the rows as StepRecords."""

    t: np.ndarray
    action: np.ndarray
    loss: np.ndarray
    cost: np.ndarray
    reward: np.ndarray
    bound: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.t, self.action, self.loss, self.cost, self.reward, self.bound

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        for t, action, *rest in zip(*(col.tolist() for col in self.columns())):
            yield StepRecord(t, Action(action), *rest)

    @classmethod
    def from_records(cls, records: Iterable[StepRecord]) -> "EpisodeLog":
        rows = [(r.t, int(r.action), r.loss_realized, r.cost_incurred, r.reward, r.bound_used) for r in records]
        cols = list(zip(*rows)) or [()] * 6
        return cls(*(np.array(col, dtype=int if i < 2 else float) for i, col in enumerate(cols)))


@dataclass(frozen=True)
class EpisodeSummary:
    cumulative_reward: float
    total_cost: float
    mean_loss: float
    slow_query_fraction: float
    n_steps: int


class EpisodeError(RuntimeError):
    """The fast or the slow model (`which`) failed on an input stream."""

    def __init__(self, which: str):
        super().__init__(f"{which} model evaluation failed on the input stream")
        self.which = which


def step_cost(action: Action, costs: CostSchedule) -> float:
    """The fast model always runs, so its cost is always paid; offloading
    adds c_slow on top."""
    return costs.c_fast + costs.c_slow if action == Action.INVOKE_SLOW else costs.c_fast


def step_reward(action: Action, loss: float, weights: RewardWeights, costs: CostSchedule) -> float:
    """-alpha * loss - beta * cost(action); an infinite loss yields -inf."""
    return -weights.alpha * loss - weights.beta * step_cost(action, costs)


def decision_threshold(weights: RewardWeights, costs: CostSchedule) -> float:
    """(beta / alpha) * c_slow: the accuracy gain needed to justify offloading.
    RewardWeights holds alpha > 0."""
    return (weights.beta / weights.alpha) * costs.c_slow


def select_generic(expected_gain: float, threshold: float) -> Action:
    """Offload iff the estimated gain strictly exceeds the threshold.

    Ties keep the cheap model: equality means the gain exactly pays for the
    extra compute, so there is nothing to win by offloading.
    """
    return Action.INVOKE_SLOW if threshold < expected_gain else Action.USE_FAST


@dataclass(frozen=True, eq=False)
class EvaluatedStream:
    """An input stream scored once: per input the selector's bound, computed
    from the fast output alone, and the losses of keeping the fast output and
    of offloading. In the prediction suites offloading loses 0 (the slow output
    is the ground truth); the rover's bound is its bloated fast sets' verdict."""

    bound: np.ndarray  # (T,)
    loss_fast: np.ndarray  # (T,)
    loss_slow: np.ndarray  # (T,)

    def __len__(self) -> int:
        return len(self.loss_fast)


def evaluate_stream(
    inputs, fast_model: Callable, slow_model: Callable, loss_fn: Callable, bound_fn: Callable
) -> EvaluatedStream:
    """Call each model once on the (T, n) input array, score the fast outputs
    against the slow ones and bound their loss from the fast outputs alone.
    The models, the loss and the bound map a batch row by row: (T, n) ->
    (T, m), two (T, m) -> (T,) and (T, m) -> (T,)."""
    inputs = np.asarray(inputs, dtype=float)
    outputs = []
    for which, model in (("fast", fast_model), ("slow", slow_model)):
        try:
            outputs.append(np.asarray(model(inputs), dtype=float))
        except Exception as exc:
            raise EpisodeError(which) from exc
    loss = np.asarray(loss_fn(*outputs), dtype=float)
    return EvaluatedStream(np.asarray(bound_fn(outputs[0]), dtype=float), loss, np.zeros_like(loss))


def bound_scale(stream: EvaluatedStream) -> float:
    """fsum(loss_fast) / fsum(bound), 0 if the bound sums to 0: it scales the bound to an expected loss."""
    bound = math.fsum(stream.bound.tolist())
    return math.fsum(stream.loss_fast.tolist()) / bound if bound > 0 else 0.0


# Each policy decides a whole stream at once: decide(stream, weights, costs)
# returns the action of every step and the figure it compared (0 if none).


class _ConstantPolicy:
    action: Action

    def decide(self, stream: EvaluatedStream, weights: RewardWeights, costs: CostSchedule):
        return np.full(len(stream), int(self.action)), np.zeros(len(stream))


class FastOnlyPolicy(_ConstantPolicy):
    name, action = "fast", Action.USE_FAST


class SlowOnlyPolicy(_ConstantPolicy):
    name, action = "slow", Action.INVOKE_SLOW


class RandomPolicy:
    """Fair coin per step; the stream continues across episodes."""

    name = "random"

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def decide(self, stream: EvaluatedStream, weights: RewardWeights, costs: CostSchedule):
        # T draws at once give the same coins as T one-step rng.integers(0, 2) draws.
        return self._rng.integers(0, 2, size=len(stream)), np.zeros(len(stream))


class OraclePolicy:
    """Privileged benchmark: offloads where the slow reward strictly beats the
    fast one, comparing the losses it may not see; both infinite is a tie, which
    keeps the fast model. The figure it logs is the loss that offloading saves,
    0 where it saves none."""

    name = "oracle"

    def decide(self, stream: EvaluatedStream, weights: RewardWeights, costs: CostSchedule):
        r_slow = step_reward(Action.INVOKE_SLOW, stream.loss_slow, weights, costs)
        r_fast = step_reward(Action.USE_FAST, stream.loss_fast, weights, costs)
        saves = stream.loss_slow < stream.loss_fast
        gain = np.subtract(stream.loss_fast, stream.loss_slow, out=np.zeros(len(stream)), where=saves)
        return (r_slow > r_fast).astype(int), gain


class BoundThresholdPolicy:
    """The realizable selector: offloads where the stream's bound, computed
    from the fast output alone, exceeds the threshold."""

    name = "our_selector"

    def decide(self, stream: EvaluatedStream, weights: RewardWeights, costs: CostSchedule):
        return (decision_threshold(weights, costs) < stream.bound).astype(int), stream.bound


def summarize(log: EpisodeLog) -> EpisodeSummary:
    n = len(log)
    if n == 0:
        return EpisodeSummary(0.0, 0.0, 0.0, 0.0, 0)
    cumulative = math.fsum(log.reward.tolist())
    total_cost = math.fsum(log.cost.tolist())
    mean_loss = math.fsum(log.loss.tolist()) / n
    n_slow = int(np.count_nonzero(log.action == Action.INVOKE_SLOW))
    return EpisodeSummary(cumulative, total_cost, mean_loss, n_slow / n, n)


def score_episode(
    stream: EvaluatedStream, action: np.ndarray, bound: np.ndarray, weights: RewardWeights, costs: CostSchedule
) -> EpisodeLog:
    """The log of one policy's decisions on an evaluated stream.

    The fast model ran at every step (the policy sees its output and its cost
    is always charged). An offloaded step realizes the slow loss and adds
    c_slow; a kept one realizes the fast loss.
    """
    slow = action == Action.INVOKE_SLOW
    return EpisodeLog(
        np.arange(len(stream)),
        action,
        np.where(slow, stream.loss_slow, stream.loss_fast),
        np.where(slow, step_cost(Action.INVOKE_SLOW, costs), step_cost(Action.USE_FAST, costs)),
        np.where(
            slow,
            step_reward(Action.INVOKE_SLOW, stream.loss_slow, weights, costs),
            step_reward(Action.USE_FAST, stream.loss_fast, weights, costs),
        ),
        bound,
    )


def run_episode(
    stream: EvaluatedStream, policy, weights: RewardWeights, costs: CostSchedule
) -> tuple[EpisodeLog, EpisodeSummary]:
    """Decide and score every step of an evaluated stream under one policy."""
    log = score_episode(stream, *policy.decide(stream, weights, costs), weights, costs)
    return log, summarize(log)
