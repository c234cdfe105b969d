"""Scalar, one-step forms of the benchmark policies: the references that the
batch policies in `fastslow.policy` are tested against."""
import numpy as np

from fastslow.policy import Action, CostSchedule, RewardWeights, step_reward


def policy_fast() -> Action:
    return Action.USE_FAST


def policy_slow() -> Action:
    return Action.INVOKE_SLOW


def policy_random(rng: np.random.Generator) -> Action:
    """Fair coin between the two models."""
    return Action(int(rng.integers(0, 2)))


def policy_oracle(loss_fast: float, loss_slow: float, weights: RewardWeights, costs: CostSchedule) -> Action:
    """Privileged benchmark: sees both realized losses before deciding.

    Offloads iff the slow-model reward strictly beats the fast-model reward,
    which is alpha * (loss_fast - loss_slow) > beta * c_slow for finite
    losses. Comparing rewards directly keeps infinite losses well defined
    (both infinite -> tie -> keep the cheap model).
    """
    r_slow = step_reward(Action.INVOKE_SLOW, loss_slow, weights, costs)
    r_fast = step_reward(Action.USE_FAST, loss_fast, weights, costs)
    return Action.INVOKE_SLOW if r_slow > r_fast else Action.USE_FAST
