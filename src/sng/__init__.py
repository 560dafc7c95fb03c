"""Self-gravitating Schrödinger solver: universal bound states by shooting,
physical-unit rescaling, an independent self-consistent-field cross-check,
and Crank–Nicolson time evolution with pluggable nonlinearities."""

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidBracketError,
    InvalidFieldError,
    SngError,
    StepRejectedError,
    WrongStateError,
)
from .evolution import (
    NonlinearityKind,
    ObservableSeries,
    RadialState,
    continuity_residual,
    evolve,
    gaussian_state,
    rms_width,
    scheme_energy,
    state_from_profile,
    state_norm,
    step,
)
from .grids import (
    RadialField,
    RadialGrid,
    integrate_line,
    make_grid,
    radial_laplacian,
    solve_radial_poisson,
)
from .physical import (
    EnergyBreakdown,
    PhysicalProfile,
    UnitScales,
    energy_breakdown,
    half_max_radius,
    rescale_to_physical,
    rms_radius,
)
from .scf import SCFResult, scf_solve
from .shooting import (
    UniversalSolution,
    default_grid,
    shoot_gamma0,
    solve_states,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SngError",
    "InvalidArgumentError",
    "InvalidFieldError",
    "InvalidBracketError",
    "WrongStateError",
    "ConvergenceError",
    "StepRejectedError",
    # grids
    "RadialGrid",
    "RadialField",
    "make_grid",
    "integrate_line",
    "solve_radial_poisson",
    "radial_laplacian",
    # shooting
    "UniversalSolution",
    "default_grid",
    "shoot_gamma0",
    "solve_states",
    # physical
    "PhysicalProfile",
    "UnitScales",
    "EnergyBreakdown",
    "rescale_to_physical",
    "half_max_radius",
    "rms_radius",
    "energy_breakdown",
    # scf
    "SCFResult",
    "scf_solve",
    # evolution
    "RadialState",
    "NonlinearityKind",
    "ObservableSeries",
    "state_from_profile",
    "gaussian_state",
    "state_norm",
    "rms_width",
    "scheme_energy",
    "step",
    "evolve",
    "continuity_residual",
]
