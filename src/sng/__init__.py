"""Self-gravitating Schrödinger solver: universal bound states by shooting,
physical-unit rescaling, an independent self-consistent-field cross-check,
and Crank–Nicolson time evolution with pluggable nonlinearities.

The package exports the ``__all__`` of :mod:`~sng.errors`,
:mod:`~sng.grids`, :mod:`~sng.shooting`, :mod:`~sng.physical`,
:mod:`~sng.scf` and :mod:`~sng.evolution`, each declared in its module."""

from . import errors, evolution, grids, physical, scf, shooting
from .errors import *
from .evolution import *
from .grids import *
from .physical import *
from .scf import *
from .shooting import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *grids.__all__, *shooting.__all__,
           *physical.__all__, *scf.__all__, *evolution.__all__]
