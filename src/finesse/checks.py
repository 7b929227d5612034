"""One rule for every number that crosses the API, and one seeded stream.

An integer is any `numbers.Integral` but a bool (numpy integers pass); a real
is a finite `numbers.Real` but a bool.  Each rule raises the caller's own
typed error as ``<what> must be <rule>, not <value!r>`` and returns the value
as it was given.  A plain int or float skips the ABC test, which costs about
ten times the rest of a check.
"""
from __future__ import annotations

import numbers
from math import inf

import numpy as np


def integer(value, what: str, error: type[Exception], least: int, most: float = inf):
    """``value``, if it is an integer in least..most."""
    if not (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)) \
            or not least <= value <= most:
        bound = f">= {least}" if most == inf else f"in {least}..{most}"
        raise error(f"{what} must be an integer {bound}, not {value!r}")
    return value


def real(value, what: str, error: type[Exception], positive: bool = False):
    """``value``, if it is a finite real >= 0 (> 0 when ``positive``)."""
    if not (type(value) in (float, int) or isinstance(value, numbers.Real) and not isinstance(value, bool)) \
            or not (0 < value < inf if positive else 0 <= value < inf):
        raise error(f"{what} must be a finite real {'>' if positive else '>='} 0, not {value!r}")
    return value


def seeded_stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream that ``key`` splits off ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
