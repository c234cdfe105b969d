"""Deterministic seed derivation for every stochastic component."""
from __future__ import annotations

import numpy as np

# Every tag of a derived stream, in one registry. Each value keys outputs,
# so none may change or be reused for another stream.
PAIR_TAG, INPUT_TAG, RANDOM_TAG, CALIB_SEED_TAG, LR_CALIB_TAG = 11, 12, 13, 14, 15
ROVER_CALIB_TAG = 7001
_ROLE_TAGS = {"policy": 2, "fast": 3, "slow": 4}


def derive_seed(root: int, *path: int) -> int:
    """Derive a 64-bit child seed from a root seed and an integer path.

    The same (root, path) always yields the same child, independent of
    platform and call order, so trials and policy sub-streams can be
    replayed exactly.
    """
    ss = np.random.SeedSequence([int(root), *[int(p) for p in path]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_for(root: int, *path: int) -> np.random.Generator:
    """A fresh generator keyed by (root, path)."""
    return np.random.default_rng(np.random.SeedSequence([int(root), *[int(p) for p in path]]))


def role_rng(root: int, step: int, role: str) -> np.random.Generator:
    """Per-step generator keyed by role name, so consuming one stream never
    shifts another (policies stay comparable across runs)."""
    return rng_for(root, step, _ROLE_TAGS[role])
