"""What a fresh process imports to serve a command.

PDE commands take their LAPACK routines from scipy's extension module,
loaded alone, and closed forms import scipy.special on first use, so a
PDE-only request never pays for importing the scipy packages.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fva_pricer
from fva_pricer import pde

SRC = Path(fva_pricer.__file__).resolve().parents[1]

# runs the CLI requests given as JSON argument lists, then prints the loaded
# scipy modules
PROBE = """
import contextlib, io, json, sys
from fva_pricer.cli import main
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main.main(args=args, prog_name="fva-pricer", standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

PDE_REQUESTS = [
    ["price", "--kind", "put", "--borrow-spread", "0.03", "--repo-haircut", "0.25",
     "--nodes", "200", "--dt", "0.05"],
    ["fva-curve", "--engine", "pde", "--nodes", "200", "--dt", "0.05", "--spread-step", "0.02"],
    ["netting", "--strategy", "bull", "--strikes", "95,105", "--expiries", "0.5,1",
     "--borrow-spread", "0.03", "--repo-haircut", "0.25", "--nodes", "200", "--dt", "0.05"],
]
ANALYTIC_SIMULATE = ["simulate", "--kind", "put", "--paths", "200", "--steps", "20",
                     "--seed", "1"]


def scipy_modules_after(requests):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(requests)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_pde_requests_import_no_scipy_package():
    assert scipy_modules_after(PDE_REQUESTS) == []


def test_a_closed_form_imports_scipy_special_but_not_linalg():
    loaded = scipy_modules_after([ANALYTIC_SIMULATE])
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m == "scipy.linalg" or m.startswith("scipy.linalg.")]


def test_lapack_routines_are_scipys(monkeypatch):
    from scipy.linalg import lapack
    assert pde._load_flapack() is sys.modules[pde._FLAPACK]
    for name in ("dgtsv", "dgttrf", "dgttrs"):
        assert getattr(pde, name) is getattr(lapack, name)
    # loaded from its file, the module is the same extension and is not registered
    monkeypatch.delitem(sys.modules, pde._FLAPACK)
    module = pde._load_flapack()
    assert pde._FLAPACK not in sys.modules
    assert module.__file__ == lapack._flapack.__file__
    assert module.dgtsv is lapack.dgtsv


def test_missing_scipy_raises_module_not_found(monkeypatch):
    monkeypatch.delitem(sys.modules, pde._FLAPACK, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: None)
    with pytest.raises(ModuleNotFoundError, match="scipy") as info:
        pde._load_flapack()
    assert info.value.name == "scipy"
