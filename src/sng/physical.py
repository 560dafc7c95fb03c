"""Homology rescaling of universal solutions to physical units, and the
energy functionals of the self-gravitating condensate.

A universal solution (f*, g*) maps onto a physical one-particle wavefunction
and potential through the gravitational Bohr radius a_g = hbar^2/(G N m^3):

    f(r)   = sqrt(2/pi) / (gamma1^2 a_g^(3/2)) * f*(beta r),
    Phi(r) = (2/gamma1^2) (G^2 N^2 m^4 / hbar^2) * { g*(beta r) + eps* },

with beta = 2/(gamma1 a_g).  The amplitude prefactor yields unit norm
int 4 pi r^2 f^2 dr = 1 identically under this gamma1 convention (checked at
construction; a renormalization branch exists and flags itself).  Energies
are per particle throughout: E_kin = (hbar^2/2m) int 4 pi r^2 (df/dr)^2 dr,
E_grav = (1/2) int 4 pi r^2 m f^2 Phi dr (the 1/2 avoids double counting),
and the eigenparameter obeys eps = (3/2) E_grav with single-particle
eigenvalue E = eps/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidArgumentError
from .grids import (RadialField, RadialGrid, integrate_line, integrate_radial, make_grid,
                    rms_from_u, solve_radial_poisson)
from .shooting import UniversalSolution

if TYPE_CHECKING:  # pragma: no cover
    from .evolution import RadialState

__all__ = [
    "HBAR",
    "NEWTON_G",
    "NUCLEON_MASS",
    "PhysicalParams",
    "PhysicalProfile",
    "EnergyBreakdown",
    "gravitational_bohr_radius",
    "rescale_to_physical",
    "energy_breakdown",
    "hamiltonian_functional",
    "half_max_radius",
    "rms_radius",
]

HBAR = 1.054571817e-34          # J s
NEWTON_G = 6.67430e-11          # m^3 kg^-1 s^-2
NUCLEON_MASS = 1.67262192369e-27  # kg


@dataclass(frozen=True)
class PhysicalParams:
    """Particle mass, particle number, and the two fundamental constants."""

    mass: float
    n_particles: float
    hbar: float = HBAR
    G: float = NEWTON_G

    def __post_init__(self):
        for name in ("mass", "n_particles", "hbar", "G"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidArgumentError(f"{name} must be positive and finite, got {v}")

    @classmethod
    def natural_units(cls) -> "PhysicalParams":
        """hbar = G = m = N = 1."""
        return cls(mass=1.0, n_particles=1.0, hbar=1.0, G=1.0)


def gravitational_bohr_radius(params: PhysicalParams) -> float:
    """a_g = hbar^2 / (G N m^3), the natural length of the rescaling."""
    return params.hbar**2 / (params.G * params.n_particles * params.mass**3)


@dataclass(frozen=True)
class PhysicalProfile:
    """A bound state in physical units.

    ``phi`` is the closed-form potential shifted by ``phi_tail_shift`` so it
    meets -G M_total/r at the outer edge (and hence tends to zero at
    infinity); the shift is recorded rather than hidden.
    """

    params: PhysicalParams
    f: RadialField
    phi: RadialField
    bohr_radius: float
    beta: float
    epsilon: float
    norm: float
    renormalized: bool
    phi_tail_shift: float

    def __post_init__(self):
        if abs(self.norm - 1.0) > 1e-6:
            raise InvalidArgumentError(f"profile norm {self.norm} is not 1 within 1e-6")
        f = self.f.values
        core = np.abs(f) >= 0.1 * np.max(np.abs(f))
        if not np.all(self.phi.values[core] < 0.0):
            raise InvalidArgumentError("potential must be negative where f is appreciable")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-particle energy bookkeeping of a stationary profile."""

    e_kinetic: float
    e_gravity: float
    e_total: float
    epsilon: float
    e_single: float

    def __post_init__(self):
        if not self.e_kinetic > 0.0:
            raise InvalidArgumentError(f"kinetic energy must be positive, got {self.e_kinetic}")
        if not self.e_gravity < 0.0:
            raise InvalidArgumentError(f"bound profiles have negative e_gravity, got {self.e_gravity}")
        if abs(self.e_total - (self.e_kinetic + self.e_gravity)) > 1e-9 * abs(self.e_total):
            raise InvalidArgumentError("e_total must equal e_kinetic + e_gravity")


# ---------------------------------------------------------------------------
# shared quadrature paths (energy_breakdown and hamiltonian_functional MUST
# run through the same float paths for their cross-agreement to hold)
# ---------------------------------------------------------------------------

def _kinetic_energy(psi: np.ndarray, grid: RadialGrid, mass: float, hbar: float) -> float:
    dpsi = np.gradient(psi, grid.nodes)
    density = np.abs(dpsi) ** 2
    return hbar**2 / (2.0 * mass) * 4.0 * np.pi * integrate_radial(RadialField(grid, density))


def _self_energy_raw(density: np.ndarray, grid: RadialGrid, params: PhysicalParams) -> float:
    """(1/2) int 4 pi r^2 m rho Phi[rho] dr with Phi sourced by
    coupling 4 pi G m N; degree 2 in the density (degree 4 in psi)."""
    coupling = 4.0 * np.pi * params.G * params.mass * params.n_particles
    phi = solve_radial_poisson(RadialField(grid, density), coupling)
    integrand = density * phi.values
    return 0.5 * params.mass * 4.0 * np.pi * integrate_radial(RadialField(grid, integrand))


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------

def rescale_to_physical(sol: UniversalSolution, params: PhysicalParams) -> PhysicalProfile:
    """Map a universal solution onto physical units via homology scaling.

    The radial coordinate stretches by 1/beta = gamma1 a_g / 2; the
    amplitude prefactor sqrt(2/pi)/(gamma1^2 a_g^(3/2)) is verified to give
    unit norm and only replaced by explicit renormalization (flagged on the
    profile) if it misses by more than 1e-6.  The closed-form potential is
    shifted to meet -G M/r at the grid edge; the shift is stored.

    Raises
    ------
    InvalidArgumentError
        If the input solution or parameters are malformed.
    """
    if not isinstance(sol, UniversalSolution):
        raise InvalidArgumentError("rescale_to_physical needs a UniversalSolution")
    a_g = gravitational_bohr_radius(params)
    gamma1 = sol.gamma1
    beta = 2.0 / (gamma1 * a_g)
    grid = make_grid(sol.grid.rho_max / beta, sol.grid.n_points)

    amplitude = np.sqrt(2.0 / np.pi) / (gamma1**2 * a_g**1.5)
    f_vals = amplitude * sol.f_star.values
    norm = 4.0 * np.pi * integrate_radial(RadialField(grid, f_vals * f_vals))
    renormalized = abs(norm - 1.0) > 1e-6
    if renormalized:
        f_vals = f_vals / np.sqrt(norm)
        norm = 4.0 * np.pi * integrate_radial(RadialField(grid, f_vals * f_vals))

    m, N, hbar, G = params.mass, params.n_particles, params.hbar, params.G
    phi_prefactor = (2.0 / gamma1**2) * (G**2 * N**2 * m**4 / hbar**2)
    phi_raw = phi_prefactor * (sol.g_star.values + sol.epsilon_star)
    mass_total = N * m * norm
    shift = phi_raw[-1] - (-G * mass_total / grid.nodes[-1])
    phi_vals = phi_raw - shift

    epsilon = (2.0 / gamma1**2) * (G**2 * N**2 * m**5 / hbar**2) * sol.epsilon_star
    return PhysicalProfile(
        params=params,
        f=RadialField(grid, f_vals),
        phi=RadialField(grid, phi_vals),
        bohr_radius=a_g,
        beta=beta,
        epsilon=epsilon,
        norm=norm,
        renormalized=renormalized,
        phi_tail_shift=shift,
    )


def half_max_radius(profile: PhysicalProfile) -> float:
    """First radius where f drops through half its central value
    (linear interpolation between the bracketing samples)."""
    f = profile.f.values
    r = profile.f.grid.nodes
    target = 0.5 * f[0]
    below = np.nonzero(f < target)[0]
    if below.size == 0:
        raise InvalidArgumentError("profile never falls below half maximum on the grid")
    i = int(below[0])
    return float(r[i - 1] + (r[i] - r[i - 1]) * (f[i - 1] - target) / (f[i - 1] - f[i]))


def rms_radius(profile: PhysicalProfile) -> float:
    """Root-mean-square radius of the density |f|^2, by the body of rms_width."""
    grid = profile.f.grid
    return rms_from_u(grid.nodes * profile.f.values, grid)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_breakdown(profile: PhysicalProfile) -> EnergyBreakdown:
    """Kinetic/gravitational split of a normalized profile, per particle.

    The gravitational term re-solves the Poisson problem for the profile's
    own density (one inner solve), so it is the self-consistent potential of
    the same f; eps = (3/2) e_gravity and e_single = eps/3 close the
    eigenvalue bookkeeping.
    """
    if abs(profile.norm - 1.0) > 1e-6:
        raise InvalidArgumentError("energy_breakdown needs a unit-norm profile")
    grid = profile.f.grid
    p = profile.params
    e_kin = _kinetic_energy(profile.f.values, grid, p.mass, p.hbar)
    e_grav = _self_energy_raw(profile.f.values**2, grid, p)
    epsilon = 1.5 * e_grav
    return EnergyBreakdown(
        e_kinetic=e_kin,
        e_gravity=e_grav,
        e_total=e_kin + e_grav,
        epsilon=epsilon,
        e_single=epsilon / 3.0,
    )


def hamiltonian_functional(state: "RadialState", params: PhysicalParams) -> float:
    """H[psi] = E_kin[psi] + E_grav[psi]/norm — the degree-2 homogeneous
    energy of the one-body nonlinear equation; valid for unnormalized states.

    Raises
    ------
    InvalidArgumentError
        For a zero-norm state.
    """
    grid = state.grid
    norm = 4.0 * np.pi * integrate_line(np.abs(state.u) ** 2, grid)
    if not norm > 0.0:
        raise InvalidArgumentError("hamiltonian_functional needs a state with positive norm")
    psi = state.psi()
    e_kin = _kinetic_energy(psi, grid, state.mass, state.hbar)
    e_grav_raw = _self_energy_raw(np.abs(psi) ** 2, grid, params)
    return e_kin + e_grav_raw / norm
