"""Let the CLI tests' `python -m arraygain` children import the sources
under test, with or without PYTHONPATH set by the caller."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
