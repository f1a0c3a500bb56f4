"""Let the CLI tests' `python -m arraygain` children import the sources
under test, with or without PYTHONPATH set by the caller; and share the
contract every public value type keeps."""

import copy
import os
import pickle
import re
from pathlib import Path

import pytest

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
