"""The package's public names: `fva_pricer.__all__` binds what it lists.

A name dropped from the package but left in `__all__` would first fail in a
user's `from fva_pricer import *`; here it fails in the test suite.
"""

import fva_pricer


def test_every_exported_name_is_bound():
    assert [name for name in fva_pricer.__all__ if not hasattr(fva_pricer, name)] == []


def test_exports_are_sorted_and_unique():
    names = fva_pricer.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
