"""Unit-conversion helpers."""

from __future__ import annotations

import numpy as np
import pytest

from arraygain.units import db_to_linear, linear_to_db


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)
    assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-15)


def test_round_trips_within_1e12():
    rng = np.random.default_rng(3)
    for _ in range(200):
        db = float(rng.uniform(-120.0, 120.0))
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, rel=1e-12, abs=1e-12)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-3.0)
