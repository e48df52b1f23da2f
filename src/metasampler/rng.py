"""Small helpers for seed handling.

Everything that draws randomness accepts either an int seed, a
``numpy.random.SeedSequence`` or a ready ``Generator``, so callers can wire
reproducible streams without the library ever touching global state.
"""
from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(int(seed))


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        raise TypeError("need an int or SeedSequence, not a Generator")
    return np.random.SeedSequence(int(seed))
