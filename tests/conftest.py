"""Let the CLI tests' `python -m arraygain` children import the sources
under test, with or without PYTHONPATH set by the caller; and share the
contract every public value type keeps, spreads given in degrees, and the
brute-force reference of the integer optimum."""

import copy
import math
import os
import pickle
import re
from pathlib import Path

import pytest

from arraygain import AngularSpread, effective_gain_value

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)


def _check_value_type(cls, fields: dict, text: str, bad: dict, message: str) -> None:
    # fields: every field in declaration order; text: the repr they give;
    # bad: keyword arguments the class refuses with a ValueError, message
    value = cls(*fields.values())
    same = cls(**fields)
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert repr(value) == text
    for name, field in fields.items():
        assert getattr(value, name) is field
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    # equality goes by type as well as fields
    lookalike = type("Lookalike", (cls,), {})
    assert value != lookalike(**fields)
    assert value != tuple(fields.values())
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**bad)


@pytest.fixture
def check_value_type():
    """Construction, repr, immutability, equality and validation of one
    public value type."""
    return _check_value_type


def _spread_deg(zsd: float, asd: float) -> AngularSpread:
    return AngularSpread(zsd_rad=math.radians(zsd), asd_rad=math.radians(asd))


@pytest.fixture
def spread_deg():
    """An AngularSpread from its elevation and azimuth spreads in degrees."""
    return _spread_deg


def _brute_force_best(n, element, spread):
    # every feasible pair: the tallest within 1e-12 of the best gain, the
    # fewest cols among equal rows
    scored = [
        (effective_gain_value(element, rows, cols, spread), rows, cols)
        for cols in range(1, n + 1)
        for rows in range(1, n // cols + 1)
    ]
    bar = max(gain for gain, _, _ in scored) * (1 - 1e-12)
    return min((c for c in scored if c[0] >= bar), key=lambda c: (-c[1], c[2]))


@pytest.fixture
def brute_force_best():
    """(gain, rows, cols) of the integer optimum within budget n, from an
    independent scan over every feasible (rows, cols) pair."""
    return _brute_force_best
