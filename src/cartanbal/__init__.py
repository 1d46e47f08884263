"""Balancedness and projective-inducedness of canonical metrics.

The package decides, in exact rational arithmetic, whether the scaled
Bergman metrics on the bounded symmetric (Cartan) domains and the canonical
metrics on the Hartogs domains built over them are balanced or projectively
induced, and backs the symbolic verdicts with independent numeric evidence
(power-series immersions checked against closed forms, and epsilon-function
evaluation from closed-form Beta norms on the rank-one cases).

The package namespace is the union of the modules' __all__ lists, so each
public name is listed once, in the module that defines it.
"""

__version__ = "0.1.0"

from .catalog import *
from .exactnum import *
from .wallach import *
from .moments import *
from .balanced import *
from .calabi import *
from .epsilon import *
from .errors import *

from . import catalog, exactnum, wallach, moments, balanced, calabi, epsilon, errors

__all__ = ["__version__"]
__all__ += catalog.__all__
__all__ += exactnum.__all__
__all__ += wallach.__all__
__all__ += moments.__all__
__all__ += balanced.__all__
__all__ += calabi.__all__
__all__ += epsilon.__all__
__all__ += errors.__all__
