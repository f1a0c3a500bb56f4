"""Decibel/linear conversions.

Everything inside the library runs on radians and linear power; degrees
and dB/dBi exist only at input/output boundaries.
"""

from __future__ import annotations

import math


def db_to_linear(value_db: float) -> float:
    """Decibels to a linear power ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power ratio to decibels. Requires a positive value."""
    if value <= 0.0:
        raise ValueError(f"cannot express {value!r} in dB, need a positive ratio")
    return 10.0 * math.log10(value)
