"""Importing the package loads numpy and the standard library only, and
binds every name the benchmark's tracer wraps."""

import importlib
import importlib.util
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


def test_traced_bindings_resolve():
    # the benchmark's tracer wraps each (module, attribute) it lists, and a
    # name that no longer resolves stops every benchmark run; read the list
    # without importing the benchmark package
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = {(modname, attr) for _, modname, attr in spans.TRACED}
    assert ("tlsphot.grid", "require_symmetric") in targets
    assert ("tlsphot.states", "FewPhotonState.norm2_sq") in targets
    for modname, attr in sorted(targets):
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr} is not callable"
