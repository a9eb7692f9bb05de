"""Solver and oracle for the totient equation phi(n) = (2/3)(n+1).

The package re-exports every public name of its modules, as each module's
``__all__`` lists them.
"""

from . import arith, equation, oracle, search
from .arith import *  # noqa: F403
from .equation import *  # noqa: F403
from .oracle import *  # noqa: F403
from .search import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*arith.__all__, *equation.__all__, *oracle.__all__, *search.__all__, "__version__"]
