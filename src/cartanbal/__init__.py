"""Balancedness and projective-inducedness of canonical metrics.

The package decides, in exact rational arithmetic, whether the scaled
Bergman metrics on the bounded symmetric (Cartan) domains and the canonical
metrics on the Hartogs domains built over them are balanced or projectively
induced, and backs the symbolic verdicts with independent numeric evidence
(power-series immersions checked against closed forms, and epsilon-function
evaluation from closed-form Beta norms on the rank-one cases).

The package namespace is the union of the modules' __all__ lists, so each
public name is listed once, in the module that defines it.

Importing the package loads only the exact modules (catalog, exactnum,
wallach, moments, balanced, errors).  The numeric modules, calabi and
epsilon, load on the first lookup of a name the package does not hold yet
(a numeric name, the calabi or epsilon module, __all__, a star import or
dir()): the module __getattr__ below imports both, copies their public
names into the package and sets __all__ to the union of every module's
__all__, so later lookups find them without calling it again.
"""

__version__ = "0.1.0"

from .catalog import *
from .exactnum import *
from .wallach import *
from .moments import *
from .balanced import *
from .errors import *

from . import catalog, exactnum, wallach, moments, balanced, errors


def _load_numeric() -> None:
    import importlib

    # import_module, not "from . import calabi": the from-import looks the
    # name up on the package first, which would call __getattr__ again
    calabi = importlib.import_module(".calabi", __name__)
    epsilon = importlib.import_module(".epsilon", __name__)
    namespace = globals()
    for module in (calabi, epsilon):
        namespace.update((name, getattr(module, name)) for name in module.__all__)
    modules = (catalog, exactnum, wallach, moments, balanced, calabi, epsilon, errors)
    namespace["__all__"] = ["__version__"] + [name for module in modules for name in module.__all__]


def __getattr__(name: str):
    if "__all__" not in globals():
        _load_numeric()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load_numeric()
    return sorted(globals())
