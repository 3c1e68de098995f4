"""Importing the package loads numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

import tlsphot


def test_import_loads_no_scipy():
    # a fresh interpreter, so that what the test session imported
    # does not count
    src = str(Path(tlsphot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, tlsphot; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
