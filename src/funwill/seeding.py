"""Deterministic seed derivation for reproducible parallel experiments.

Every stochastic routine takes an explicit 64-bit seed; each unit of a run
(a sigma point, a block of replications) derives its own stream seed from
(seed, path...) via numpy's SeedSequence hashing, so units are
statistically independent, can execute in any order or concurrently, and
always replay byte-identically.
"""

from __future__ import annotations

import numpy as np

from .distributions import _count

MAX_SEED = 2**64 - 1


def validate_seed(seed: int) -> int:
    return _count(seed, "seed", least=0, most=MAX_SEED)


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a fresh 64-bit stream seed."""
    entropy = [validate_seed(seed), *(_count(p, "seed path entry", least=0) for p in path)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
