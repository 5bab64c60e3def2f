"""Simulation laboratory for scalar conservation laws with degenerate,
possibly anisotropic diffusion on periodic boxes.

The package covers the full loop: describe a model (flux, diffusion
matrix, square-root factor, primitives), check the nondegeneracy condition
that governs decay to the mean, evolve the equation with a monotone
finite-volume scheme, and audit the structural guarantees (maximum
principle, L1 contraction, energy monotonicity, dissipation budget) along
the way. Each module's ``__all__`` declares its public names, and the
package re-exports them all.
"""

from . import config, diagnostics, kinetic, model, quadrature, solver
from .config import *
from .diagnostics import *
from .kinetic import *
from .model import *
from .quadrature import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["__version__", *config.__all__, *diagnostics.__all__, *kinetic.__all__,
           *model.__all__, *quadrature.__all__, *solver.__all__]
