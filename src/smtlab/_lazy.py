"""numpy and mpmath, imported on first use.

The two libraries take most of a fresh process's start-up, yet the exact
algebra never touches them.  ``lazy_import`` follows the
``importlib.util.LazyLoader`` recipe of the standard library
documentation.  ``LazyLoader`` is not thread-safe on Python 3.10 and
3.11 (two threads touching a module first at once can both run its
body); smtlab is single-threaded.
"""

import importlib.util
import sys


def lazy_import(name: str):
    """The module called name, its body run on first attribute access
    (from then on it is the plain module); one loaded already as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
mpmath = lazy_import("mpmath")
