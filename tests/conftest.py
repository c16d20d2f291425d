"""Let subprocesses started by the tests (`python -m bordcalc.cli`) import
the package from src/ as the test process does."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p and p != SRC])
