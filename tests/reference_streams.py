"""NumPy's own stream for shuffle i of a null seeded with ``seed``: the
reference that ``stats.shuffle_seeds`` and ``stats.shuffle_rng`` must
draw exactly, read from NumPy rather than from the code under test."""

import numpy as np

SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF


def reference_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & SEED_MASK, index])
