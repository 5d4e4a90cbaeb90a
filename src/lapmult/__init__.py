"""Spectral multipliers of Laplace-transform type on finite reversible Markov chains.

The package provides weighted spaces and norms, reversible generators and heat
semigroups, spectral calculus, multiplier symbols and operators, the product
path-space dilation with its reverse martingales, and the inequality checks
tying these together.  Everything is deterministic given the seeds it is
handed.  The public names are those in the ``__all__`` of the six layers.
"""

from .space import *
from .spectral import *
from .semigroup import *
from .multiplier import *
from .dilation import *
from .inequalities import *

__version__ = "0.1.0"
