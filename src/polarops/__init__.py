"""Numerical toolkit for polar decompositions of dense complex matrices.

Computes canonical polar factors (partial isometries vanishing on the null
space), Moore-Penrose inverses, and Aluthge-type transforms; classifies
operators as binormal or n-centered through commutator criteria with a
definitional cross-check; and generates the paper's truncated block
weighted shifts of centered order n, whose matrices hold them rounded to
doubles: binormal, and n-centered only to within the tolerance.

The package exports every name of the ``__all__`` of ``core``, ``decomp``,
``classify``, ``shifts`` and ``matrixio``, which are the one list of them.
"""

from . import classify, core, decomp, matrixio, shifts
from .classify import *
from .core import *
from .decomp import *
from .matrixio import *
from .shifts import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *decomp.__all__,
    *classify.__all__,
    *shifts.__all__,
    *matrixio.__all__,
]
