"""Internal argument- and array-validation helpers.

These helpers centralise the defensive checks used across the package so the
individual algorithms stay focused on the mathematics.  They always raise
exceptions from :mod:`repro.exceptions`, never bare ``ValueError``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .exceptions import ConfigurationError, DataError

__all__ = [
    "as_float_matrix",
    "as_float_vector",
    "check_consistent_length",
    "check_positive_int",
    "check_non_negative_int",
    "check_positive_float",
    "check_fraction",
    "check_in_choices",
    "check_bool",
    "check_random_state",
]


def as_float_matrix(data, name: str = "X", allow_nan: bool = False) -> np.ndarray:
    """Convert ``data`` to a 2-D float64 array, validating its contents.

    Parameters
    ----------
    data:
        Array-like of shape ``(n, m)``.
    name:
        Name used in error messages.
    allow_nan:
        Whether NaN entries (missing values) are permitted.

    Returns
    -------
    numpy.ndarray
        A C-contiguous float64 matrix.
    """
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} could not be converted to a float array: {exc}") from exc
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {array.shape}")
    if array.shape[0] == 0:
        raise DataError(f"{name} must contain at least one row")
    if array.shape[1] == 0:
        raise DataError(f"{name} must contain at least one column")
    if not allow_nan and not np.all(np.isfinite(array)):
        raise DataError(f"{name} contains NaN or infinite values")
    if allow_nan and np.any(np.isinf(array)):
        raise DataError(f"{name} contains infinite values")
    return np.ascontiguousarray(array)


def as_float_vector(data, name: str = "y", allow_nan: bool = False) -> np.ndarray:
    """Convert ``data`` to a 1-D float64 array, validating its contents."""
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} could not be converted to a float array: {exc}") from exc
    array = np.ravel(array)
    if array.shape[0] == 0:
        raise DataError(f"{name} must contain at least one element")
    if not allow_nan and not np.all(np.isfinite(array)):
        raise DataError(f"{name} contains NaN or infinite values")
    if allow_nan and np.any(np.isinf(array)):
        raise DataError(f"{name} contains infinite values")
    return array


def check_consistent_length(*arrays, names: Optional[Sequence[str]] = None) -> None:
    """Raise :class:`DataError` unless all arrays share the same first dimension."""
    lengths = [np.asarray(a).shape[0] for a in arrays]
    if len(set(lengths)) > 1:
        if names is None:
            names = [f"array{i}" for i in range(len(arrays))]
        described = ", ".join(f"{n}={length}" for n, length in zip(names, lengths))
        raise DataError(f"inconsistent first dimensions: {described}")


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_non_negative_int(value, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_positive_float(value, name: str, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a finite float > 0 (or >= 0) and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    if allow_zero:
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")
    elif value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_fraction(value, name: str, inclusive: bool = False) -> float:
    """Validate that ``value`` lies in ``(0, 1)`` (or ``[0, 1]``) and return it."""
    value = check_positive_float(value, name, allow_zero=inclusive)
    if inclusive:
        if value > 1:
            raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    elif value >= 1:
        raise ConfigurationError(f"{name} must be in (0, 1), got {value}")
    return value


def check_in_choices(value, name: str, choices: Iterable) -> object:
    """Validate that ``value`` is one of ``choices`` and return it unchanged."""
    choices = tuple(choices)
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_bool(value, name: str) -> bool:
    """Validate that ``value`` is a Python or numpy bool and return it as ``bool``.

    Strings such as ``"false"`` are refused rather than coerced: ``bool``
    of any non-empty string is ``True``.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
    return bool(value)


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    ``Generator`` which is returned unchanged.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    raise ConfigurationError(
        f"random_state must be None, an int, or a numpy Generator, got {seed!r}"
    )
