"""Seed handling and the integer and real-number checks.

Everything that draws randomness takes an int seed, a ``SeedSequence`` or a
``Generator`` and never touches global state. ``check_integer`` and
``check_float`` check each number a Python caller passes, before any work;
``strict_int`` and ``strict_float`` parse the CLI's and sampler files' values.
"""
from __future__ import annotations

import numbers

import numpy as np


def strict_int(value) -> int:
    """int(value) of an integral number or number text; a bool or a fraction raises ValueError.

    Text reads as int(text), or else as float(text) when that is integral, so
    "3.0" and "1e3" pass, while "2.9", "inf", "nan" and "" raise ValueError.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def check_integer(name: str, value, least: int | None = None) -> int:
    """int(value) of an integer (numpy's too) of at least `least`; else ValueError naming `name`.

    A bool, 2.0 or "7" is no integer. Below `least`: "<name> must be at least
    <least>, got <value>".
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_float(name: str, value, within: str | None = None) -> float:
    """float(value) of a real number (numpy's too, no bool) in `within`; else ValueError.

    `within` is interval text such as "(0, 1]": a bracket includes its end, a
    parenthesis excludes it, NaN is in no interval and None means no bound.
    Outside it: "<name> must be in <within>, got <value>".
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if within is not None:
        low, high = (float(end) for end in within[1:-1].split(","))
        if not ((low <= value if within[0] == "[" else low < value)
                and (value <= high if within[-1] == "]" else value < high)):
            raise ValueError(f"{name} must be in {within}, got {value}")
    return value


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
