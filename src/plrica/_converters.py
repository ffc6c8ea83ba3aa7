"""Value converters shared by the process specs and the config parser.

Each converter returns its value in canonical form or raises a plain
TypeError/ValueError (OverflowError for an integer past float range);
_convert names the field and picks the error class.
"""
from __future__ import annotations

import numpy as np


def _as_int(value) -> int:
    """An integer value; floats such as 500.7 and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value) -> float:
    """A finite real value; integers are taken, booleans, strings, nan and inf refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _as_bool(value) -> bool:
    """A boolean value: the parsed words true and false, nothing else."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return bool(value)


def _as_name(value) -> str:
    """A non-empty name; numbers, flags and None are refused."""
    if not isinstance(value, str) or not value:
        raise TypeError(f"expected a non-empty name, got {value!r}")
    return str(value)


def _one_of(names):
    """Converter to a name in names."""
    def convert(value):
        if _as_name(value) not in names:
            raise ValueError(f"expected one of {tuple(names)}, got {value!r}")
        return str(value)
    return convert


def _instance_of(cls):
    """Converter that passes an instance of cls through and refuses anything else."""
    def convert(value):
        if not isinstance(value, cls):
            raise TypeError(f"expected a {cls.__name__}, got {value!r}")
        return value
    return convert


def _each(convert):
    """Converter of a list value: every item through convert, a bare value as one item."""
    return lambda v: tuple(map(convert, v if isinstance(v, (list, tuple, np.ndarray)) else (v,)))


def _convert(key: str, convert, value, error: type[Exception]):
    """convert(value), or error naming key when convert refuses the value."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"bad value for {key!r}: {exc}") from None
