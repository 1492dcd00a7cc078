"""Typed checks of settings, shared by the experiment config, the CLI
flags, the grid, the streams, the effects law and the H estimator.
Each takes the name to print and a value, accepts only values of its
type (numpy scalars included; a bool is not a number and a string is
never parsed), returns it as a Python value, and raises ``ValueError``
naming the setting.  ``held`` guards an allocation the settings size."""

import contextlib
import math
import numbers
import operator

import numpy as np

from .errors import GridError


def integer_value(name: str, v, error=ValueError) -> int:
    """v as an int: a bool, or anything without ``__index__`` (2.5 and
    5.0 alike), raises ``error``."""
    if not isinstance(v, bool):
        with contextlib.suppress(TypeError):
            return operator.index(v)
    raise error(f"{name}: expected an integer, got {v!r}")


def real_value(name: str, v, error=ValueError) -> float:
    """v as a float: an int or a float of any kind, but not a bool (else
    ``error``); an int past the double range becomes an infinity of its
    sign."""
    # float and int first: they pass without the slower abstract-class check
    if isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            return math.inf if v > 0 else -math.inf
    raise error(f"{name}: expected a real number, got {v!r}")


def bool_value(name: str, v) -> bool:
    """v as a bool: ``True``, ``False`` or a numpy bool, not 0 or 1."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    raise ValueError(f"{name}: expected a bool, got {v!r}")


def _real_check(test, rule: str):
    """The check of a real number x that holds when ``test(x)`` does."""

    def check(name: str, v) -> float:
        if not test(x := real_value(name, v)):
            raise ValueError(f"{name} must be {rule}, got {v}")
        return x

    return check


horizon_value = _real_check(lambda x: 0.0 < x < math.inf, "positive and finite")
mean_value = _real_check(math.isfinite, "finite")
variance_value = _real_check(lambda x: 0.0 <= x < math.inf, "finite and >= 0")


def seed_value(name: str, v) -> int:
    """An RNG seed: a 64-bit unsigned integer."""
    if not 0 <= (x := integer_value(name, v)) < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {x}")
    return x


def held(make, shape: tuple[int, ...], what: str) -> np.ndarray:
    """make(shape), an array of the given shape.  Raises ``GridError``
    when numpy cannot size or allocate it."""
    try:
        return make(shape)
    except (ValueError, MemoryError) as exc:
        raise GridError(f"cannot hold {' x '.join(map(str, shape))} {what}: {exc}") from None
