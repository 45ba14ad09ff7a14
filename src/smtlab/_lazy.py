"""Modules imported on first use: numpy, mpmath and smtlab's own.

numpy and mpmath take most of a fresh process's start-up, yet the exact
algebra never touches them.  smtlab's analytic and verification modules
(``nevanlinna``, ``position_geometry``, ``smt_verifier``, ``weights``)
are bound the same way in ``cli`` and ``scenario``, so loading a scenario
runs only the loader's modules and each report adds the ones it calls.
A bound module is in ``sys.modules`` at once and runs its body on the
first attribute access.

``lazy_import`` follows the ``importlib.util.LazyLoader`` recipe of the
standard library documentation, and binds a submodule on its package as
the import statement does.  ``LazyLoader`` is not thread-safe on Python
3.10 and 3.11 (two threads touching a module first at once can both run
its body); smtlab is single-threaded.
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
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


np = lazy_import("numpy")
mpmath = lazy_import("mpmath")
