"""Seed handling and the integer and number checks.

Everything that draws randomness accepts an int seed, a
``numpy.random.SeedSequence`` or a ready ``Generator``, so callers can wire
reproducible streams without the library ever touching global state. A seed,
count or size that a Python caller passes goes through ``check_integer``: an
int or a numpy integer, never a bool, 2.0 or "7", and at least the count's
least value where it has one (0 for every int seed), or ValueError("<name> must
be at least <least>, got <value>") before any work. A real number that a Python
caller passes and the library keeps, and every sigma and ``score_arms``' mu,
go through ``check_float``, its twin: any real number, numpy's too, never a
bool, "0.2" or None. Only text and JSON that the CLI or a sampler file parses
go through ``strict_int``, which also casts 3.0, and ``strict_float``.
"""
from __future__ import annotations

import numbers

import numpy as np


def strict_int(value) -> int:
    """int(value) of an integer number or text; a boolean or a fraction raises ValueError."""
    if isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def check_integer(name: str, value, least: int | None = None) -> int:
    """int(value) of an integer (numpy's too) of at least `least`; else ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_float(name: str, value) -> float:
    """float(value) of any real number; ValueError naming `name` for a bool, text or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def strict_float(value) -> float:
    """float(value) of a number or number text; a boolean raises ValueError.

    Non-finite values pass; each caller's range check refuses them where it must.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(check_integer("seed", seed, least=0))


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        raise TypeError("need an int or SeedSequence, not a Generator")
    return np.random.SeedSequence(check_integer("seed", seed, least=0))
