"""scipy's compiled kernels, loaded from their files without importing scipy.

The package needs only a few routines from two of scipy's extension modules:
LAPACK's gtsv, gttrf and gttrs (`scipy/linalg/_flapack`) and the erfc ufunc
(`scipy/special/_special_ufuncs`).  Each file loads on its own with nothing
but numpy in a few milliseconds, while importing `scipy.linalg` or
`scipy.special` also imports the shared `scipy._lib` layer and costs a
fresh process 0.1-0.3 s.  Both are single-phase extensions, so a later
`import scipy.linalg` or `import scipy.special` gets the very objects
loaded here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def load_scipy_extension(subpackage: str, module: str) -> ModuleType:
    """The extension module `scipy.<subpackage>.<module>`, loaded from its file.

    The copy in sys.modules is used when there is one.  A module loaded here
    is not left in sys.modules, so a later import of its package loads it
    the usual way.

    Raises:
        ModuleNotFoundError: scipy or that extension module is not installed
    """
    name = f"scipy.{subpackage}.{module}"
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], subpackage),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    extension = importlib.util.module_from_spec(spec)
    # creating a single-phase extension registers it under its name
    if sys.modules.get(name) is extension:
        del sys.modules[name]
    spec.loader.exec_module(extension)
    return extension
