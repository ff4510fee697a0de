"""What a fresh process imports to serve a command.

The package reaches scipy through `extensions.load_scipy_extension` alone:
PDE commands take their LAPACK routines from scipy's LAPACK extension and
closed forms take erfc from the extension that defines it, each loaded from
its file, so no request pays for importing a scipy package.
"""

import importlib
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.special
from hypothesis import example, given, settings, strategies as st

import fva_pricer
from fva_pricer import analytic, pde
from fva_pricer.extensions import load_scipy_extension
from test_readme_golden import CASES, GOLDEN

SRC = Path(fva_pricer.__file__).resolve().parents[1]

# runs the CLI requests given as JSON argument lists, then prints their
# stdout and the loaded scipy modules
PROBE = """
import json, sys
from click.testing import CliRunner
from fva_pricer.cli import main
outputs = []
for args in json.loads(sys.argv[1]):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    outputs.append(result.stdout_bytes.decode("utf-8"))
print(json.dumps({"stdout": outputs,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
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
# the README commands that evaluate a closed form
README_CLOSED_FORM = ["simulate", "price_riskfree_analytic", "fva_curve", "table1",
                      "spread_demo"]

EXTENSIONS = [
    ("linalg", "_flapack", "scipy.linalg.lapack", ("dgtsv", "dgttrf", "dgttrs")),
    ("special", "_special_ufuncs", "scipy.special", ("erfc",)),
]


def run_fresh(requests):
    """(stdout of each request, loaded scipy modules) from one fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(requests)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["stdout"], report["scipy"]


def test_pde_requests_import_no_scipy_package():
    assert run_fresh(PDE_REQUESTS)[1] == []


def test_a_closed_form_request_imports_no_scipy_package():
    assert run_fresh([ANALYTIC_SIMULATE])[1] == []


def test_closed_forms_in_a_fresh_process_match_the_goldens():
    outputs, loaded = run_fresh([CASES[name] for name in README_CLOSED_FORM])
    assert loaded == []
    for name, stdout in zip(README_CLOSED_FORM, outputs):
        assert stdout.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name


def test_the_package_uses_scipys_kernels():
    for name in ("dgtsv", "dgttrf", "dgttrs"):
        assert getattr(pde, name) is getattr(scipy.linalg.lapack, name)
    analytic.norm_cdf(0.0)
    assert analytic._erfc is scipy.special.erfc


@pytest.mark.parametrize("subpackage, module, public, names", EXTENSIONS)
def test_loaded_kernels_are_scipys(monkeypatch, subpackage, module, public, names):
    public = importlib.import_module(public)
    name = f"scipy.{subpackage}.{module}"
    registered = sys.modules[name]
    assert load_scipy_extension(subpackage, module) is registered
    # loaded from its file, the module is the same extension and is not registered
    monkeypatch.delitem(sys.modules, name)
    extension = load_scipy_extension(subpackage, module)
    assert name not in sys.modules
    assert extension.__file__ == registered.__file__
    for attr in names:
        assert getattr(extension, attr) is getattr(public, attr)


@pytest.mark.parametrize("subpackage, module", [ext[:2] for ext in EXTENSIONS])
def test_missing_scipy_raises_module_not_found(monkeypatch, subpackage, module):
    monkeypatch.delitem(sys.modules, f"scipy.{subpackage}.{module}", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: None)
    with pytest.raises(ModuleNotFoundError, match="scipy") as info:
        load_scipy_extension(subpackage, module)
    assert info.value.name == "scipy"


def test_norm_cdf_falls_back_to_scipy_special(monkeypatch):
    name = "scipy.special._special_ufuncs"
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.machinery.FileFinder, "find_spec",
                        lambda self, fullname, target=None: None)
    with pytest.raises(ModuleNotFoundError) as info:
        load_scipy_extension("special", "_special_ufuncs")
    assert info.value.name == name
    monkeypatch.setattr(analytic, "_erfc", None)
    x = np.linspace(-9.0, 9.0, 181)
    expected = 0.5 * scipy.special.erfc(-x / analytic.SQRT2)
    assert analytic.norm_cdf(x).tobytes() == expected.tobytes()
    assert analytic._erfc is scipy.special.erfc


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=20))
@example(xs=[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 41.0, -41.0,
             1e300, -1e300])
def test_norm_cdf_is_scipys_bit_for_bit(xs):
    name = "scipy.special._special_ufuncs"
    registered = sys.modules.pop(name)
    try:
        erfc = load_scipy_extension("special", "_special_ufuncs").erfc
    finally:
        sys.modules[name] = registered
    x = np.array(xs)
    expected = 0.5 * scipy.special.erfc(-x / analytic.SQRT2)
    saved, analytic._erfc = analytic._erfc, erfc
    try:
        assert analytic.norm_cdf(x).tobytes() == expected.tobytes()
        for value, want in zip(xs, expected):
            assert np.float64(analytic.norm_cdf(value)).tobytes() == want.tobytes()
    finally:
        analytic._erfc = saved
