"""bpcam runs without scipy: no module of the package imports it."""

import os
import subprocess
import sys

import bpcam

IMPORT_ALL = """
import importlib, pkgutil, sys
import bpcam
names = [m.name for m in pkgutil.iter_modules(bpcam.__path__, "bpcam.")]
assert "bpcam.cli" in names, names
for name in names:
    importlib.import_module(name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_bpcam_module_imports_scipy():
    src = os.path.dirname(os.path.dirname(bpcam.__file__))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
