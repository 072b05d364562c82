"""Shared set-up: every test runs this checkout's geodisc.

pytest itself imports it from `src/` (`pythonpath` in pyproject.toml); the
CLI tests that start `python -m geodisc.cli` as a subprocess get the same
`src/` through PYTHONPATH, so a plain `python -m pytest` works from a
checkout.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
