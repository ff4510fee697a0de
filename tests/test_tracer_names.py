"""The benchmark tracer's names stay bound in the package.

`perfbench/tracing.py` wraps functions by name and refuses to run when one
is missing, so a binding that looks unused (an import kept only for the
tracer) must fail here, not first in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer,name", [(layer, name) for layer, names in
                                        tracing.SPANNED.items() for name in names])
def test_spanned_names_are_callables(layer, name):
    assert callable(getattr(importlib.import_module(f"fva_pricer.{layer}"), name, None))


@pytest.mark.parametrize("name", tracing.ORACLES)
def test_oracles_define_value_and_slope(name):
    cls = getattr(importlib.import_module("fva_pricer.replication"), name)
    assert callable(vars(cls).get("value_and_slope"))


@pytest.mark.parametrize("name", sorted(tracing.INLINE))
def test_inline_names_are_bound_in_pde(name):
    assert callable(getattr(importlib.import_module("fva_pricer.pde"), name, None))
