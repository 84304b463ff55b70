"""Argument-validation helpers shared by public entry points.

These raise library-specific exceptions with actionable messages instead of
letting malformed input surface as cryptic numpy errors deep in a solver.
"""

from __future__ import annotations

import math
import numbers

from repro.errors import KnowledgeError, ReproError


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise KnowledgeError(f"{name} must be a number, got {value!r}") from exc
    if not 0.0 <= number <= 1.0:
        raise KnowledgeError(f"{name} must be in [0, 1], got {number}")
    return number


def check_positive_int(value: int, *, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ReproError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ReproError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: int, *, name: str = "value") -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ReproError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ReproError(f"{name} must be non-negative, got {value}")
    return value


def check_finite_real(value: float, *, name: str = "value") -> float:
    """Validate that ``value`` is a finite real number and return it.

    Booleans are rejected even though Python counts them as integers.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ReproError(
            f"{name} must be a real number, got {type(value).__name__}"
        )
    number = float(value)
    if not math.isfinite(number):
        raise ReproError(f"{name} must be finite, got {number}")
    return number


def check_flag(value: bool, *, name: str = "flag") -> bool:
    """Validate that ``value`` is a ``bool`` and return it."""
    if not isinstance(value, bool):
        raise ReproError(f"{name} must be a bool, got {type(value).__name__}")
    return value


def check_fraction(value: float, *, name: str = "fraction") -> float:
    """Validate a strictly positive fraction ``(0, 1]`` and return it."""
    number = float(value)
    if not 0.0 < number <= 1.0:
        raise ReproError(f"{name} must be in (0, 1], got {number}")
    return number
