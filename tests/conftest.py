"""Shared set-up: every test runs this checkout's geodisc.

pytest itself imports it from `src/` (`pythonpath` in pyproject.toml).  The
CLI tests call `cli.main` in-process; the few that start
`python -m geodisc.cli` or a fresh interpreter as a subprocess get the same
`src/` through PYTHONPATH, so a plain `python -m pytest` works from a
checkout.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
