"""Homology rescaling of universal solutions to a_g units, and the energy
breakdown of a stationary profile (a state's is ``scheme_energy``).

Every (m, N) is one dimensionless problem in units of the gravitational
Bohr radius a_g = hbar^2/(G N m^3): lengths in a_g, energies in
hbar^2/(m a_g^2), times in m a_g^2/hbar.  In these units a universal
solution (f*, g*) maps onto the one-particle wavefunction and potential

    f(x)     = sqrt(2/pi) / gamma1^2 * f*(beta x),
    m Phi(x) = (2/gamma1^2) * { g*(beta x) + eps* },

with beta = 2/gamma1 and lap(m Phi) = 4 pi f^2.  The amplitude prefactor
yields unit norm int 4 pi x^2 f^2 dx = 1 identically under this gamma1
convention, gamma1 being f*'s own norm integral (checked at
construction).  Energies are per particle throughout:
E_kin = (1/2) int 4 pi x^2 (df/dx)^2 dx, E_grav = (1/2) int 4 pi x^2 f^2 m Phi dx
(the 1/2 avoids double counting).  A stationary state's eps is ``epsilon_ag``;
the virial identities give E_kin = -eps/3, E_grav = 2 eps/3 and E = eps/3,
which ``energy_breakdown`` checks by quadrature.  Every function here returns a_g
units; ``UnitScales.of(m, N)`` holds the SI size of each unit for one
(m, N), a_g being its ``length``, and only the CLI multiplies by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, check_normal
from .evolution import rms_width, state_from_profile
from .grids import RadialField, RadialGrid, integrate_line, make_grid, solve_radial_poisson
from .shooting import UniversalSolution

__all__ = [
    "HBAR",
    "NEWTON_G",
    "NUCLEON_MASS",
    "UnitScales",
    "PhysicalProfile",
    "EnergyBreakdown",
    "rescale_to_physical",
    "energy_breakdown",
    "half_max_radius",
    "rms_radius",
]

HBAR = 1.054571817e-34          # J s
NEWTON_G = 6.67430e-11          # m^3 kg^-1 s^-2
NUCLEON_MASS = 1.67262192369e-27  # kg


@dataclass(frozen=True)
class UnitScales:
    """SI size of the units the library computes in, for one (m, N): length
    a_g = hbar^2/(G N m^3), energy hbar^2/(m a_g^2), time m a_g^2/hbar and
    potential Phi = V/m, each from a_g rather than powers such as
    G^2 N^2 m^5 (subnormal at m = 1e-60 kg).  ``UnitScales.of(m, N)`` is
    the one way to name a particle mass and count; natural units
    (hbar = G = m = N = 1) are ``UnitScales(1.0, 1.0, 1.0, 1.0)``.  The
    properties are checked when read: a_g^-3 underflows at 1e-60 kg."""

    length: float
    energy: float
    time: float
    potential: float

    @classmethod
    def of(cls, mass: float, n_particles: float) -> "UnitScales":
        """The units of ``n_particles`` particles of ``mass`` kg; InvalidArgumentError
        naming an input, G N m^3 or a unit that is not a finite normal double."""
        m = float(check_normal("mass", mass))
        check_normal("n_particles", n_particles)
        # m * m * m overflows to inf where m**3 raises
        gnm3 = check_normal("G N m^3", NEWTON_G * n_particles * (m * m * m))
        a_g = float(check_normal("a_g", HBAR**2 / gnm3))
        energy = check_normal("energy unit hbar^2/(m a_g^2)", HBAR * HBAR / m / a_g / a_g)
        return cls(a_g, energy, check_normal("time unit m a_g^2/hbar", HBAR / energy),
                   check_normal("potential unit hbar^2/(m a_g)^2", energy / m))

    @property
    def amplitude(self) -> float:  # of psi
        return check_normal("amplitude unit a_g^-1.5", 1.0 / self.length / math.sqrt(self.length))

    @property
    def density(self) -> float:  # of |psi|^2
        return check_normal("density unit a_g^-3", 1.0 / self.length / self.length / self.length)

    @property
    def coupling(self) -> float:  # of kappa in V = kappa |psi|^2
        return check_normal("coupling unit hbar^2 a_g/m",
                            self.energy * self.length * self.length * self.length)


@dataclass(frozen=True)
class PhysicalProfile:
    """A bound state in a_g units, the same for every (m, N).

    ``f_ag`` and ``phi_ag`` (= m Phi) live on the a_g-unit grid.  The
    potential is the closed form shifted by ``phi_tail_shift_ag`` so it
    meets -G M_total/r at the outer edge (and hence tends to zero at
    infinity); the shift is recorded rather than hidden.  ``norm`` is read
    off ``f_ag`` and must be 1 within 1e-6.
    """

    f_ag: RadialField
    phi_ag: RadialField
    epsilon_ag: float
    phi_tail_shift_ag: float

    def __post_init__(self):
        if not abs(self.norm - 1.0) <= 1e-6:
            raise InvalidArgumentError(f"profile norm {self.norm} is not 1 within 1e-6")
        f = self.f_ag.values
        core = np.abs(f) >= 0.1 * np.max(np.abs(f))
        if not np.all(self.phi_ag.values[core] < 0.0):
            raise InvalidArgumentError("potential must be negative where f is appreciable")

    @cached_property
    def norm(self) -> float:
        """int 4 pi x^2 f^2 dx; one that overflows is refused as not 1."""
        f, x = self.f_ag.values, self.f_ag.grid.nodes
        with np.errstate(over="ignore", invalid="ignore"):
            return 4.0 * np.pi * integrate_line(f * f * x * x, self.f_ag.grid)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-particle kinetic and gravitational energies of a stationary
    profile, as measured by quadrature."""

    e_kinetic: float
    e_gravity: float

    def __post_init__(self):
        if not self.e_kinetic > 0.0:
            raise InvalidArgumentError(f"kinetic energy must be positive, got {self.e_kinetic}")
        if not self.e_gravity < 0.0:
            raise InvalidArgumentError(f"bound profiles have negative e_gravity, got {self.e_gravity}")

    @property
    def virial_residual(self) -> float:
        """|2 e_kinetic/|e_gravity| - 1|, zero where 2T + W = 0 holds."""
        return abs(2.0 * self.e_kinetic / abs(self.e_gravity) - 1.0)


# ---------------------------------------------------------------------------
# unit-free kernels
# ---------------------------------------------------------------------------

def _kinetic_energy(psi: np.ndarray, grid: RadialGrid) -> float:
    """(1/2) int 4 pi r^2 |dpsi/dr|^2 dr."""
    r = grid.nodes
    return 0.5 * 4.0 * np.pi * integrate_line(np.abs(np.gradient(psi, r)) ** 2 * r * r, grid)


def _self_energy_raw(density: np.ndarray, grid: RadialGrid) -> float:
    """(1/2) int 4 pi r^2 rho Phi[rho] dr with Phi sourced by coupling 4 pi;
    degree 2 in the density (degree 4 in psi)."""
    r = grid.nodes
    phi = solve_radial_poisson(density, grid, 4.0 * np.pi)
    return 0.5 * 4.0 * np.pi * integrate_line(density * phi * r * r, grid)


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------

def rescale_to_physical(sol: UniversalSolution) -> PhysicalProfile:
    """Map a universal solution onto a_g units via homology scaling.

    The radial coordinate stretches by 1/beta = gamma1/2 in a_g units, and
    the amplitude prefactor sqrt(2/pi)/gamma1^2 gives unit norm up to
    rounding, since gamma1 is read off f* itself; the profile checks it.
    The closed-form potential is shifted to meet -G M/r (-norm/x in a_g
    units) at the grid edge; the shift is stored.  InvalidArgumentError for
    a malformed solution, and for one whose rescaled profile or potential
    does not fit in doubles.
    """
    if not isinstance(sol, UniversalSolution):
        raise InvalidArgumentError("rescale_to_physical needs a UniversalSolution")
    gamma1 = sol.gamma1
    square = gamma1 * gamma1
    if not (0.0 < square < math.inf and 2.0 / square < math.inf):
        raise InvalidArgumentError(f"gamma1 {gamma1!r} is out of range: 2/gamma1^2 is not "
                                   "a finite, nonzero double")
    beta = 2.0 / gamma1
    grid = make_grid(sol.grid.rho_max / beta, sol.grid.n_points)

    # overflows are refused below, so numpy's warnings about them are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = np.sqrt(2.0 / np.pi) / gamma1**2
        f_vals = amplitude * sol.f_star.values
        x = grid.nodes
        norm = 4.0 * np.pi * integrate_line(f_vals * f_vals * x * x, grid)
        if not 0.0 < norm < math.inf:
            raise InvalidArgumentError(f"gamma1 {gamma1!r} rescales f* to a norm of {norm}, "
                                       "not a finite, nonzero double")
        phi_raw = (2.0 / gamma1**2) * (sol.g_star.values + sol.epsilon_star)
        shift = phi_raw[-1] - (-norm / grid.nodes[-1])
        phi = phi_raw - shift
    if not np.isfinite(phi).all():
        raise InvalidArgumentError("epsilon_star and g* rescale to a potential that "
                                   "overflows a double")
    return PhysicalProfile(
        f_ag=RadialField(grid, f_vals),
        phi_ag=RadialField(grid, phi),
        epsilon_ag=(2.0 / gamma1**2) * sol.epsilon_star,
        phi_tail_shift_ag=shift,
    )


def half_max_radius(profile: PhysicalProfile) -> float:
    """First radius where f drops through half its central value
    (linear interpolation between the bracketing samples), in a_g."""
    f = profile.f_ag.values
    r = profile.f_ag.grid.nodes
    target = 0.5 * f[0]
    below = np.nonzero(f < target)[0]
    if below.size == 0:
        raise InvalidArgumentError("profile never falls below half maximum on the grid")
    i = int(below[0])
    return float(r[i - 1] + (r[i] - r[i - 1]) * (f[i - 1] - target) / (f[i - 1] - f[i]))


def rms_radius(profile: PhysicalProfile) -> float:
    """Root-mean-square radius of the density |f|^2 in a_g: the rms_width
    of the profile's state."""
    return rms_width(state_from_profile(profile))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_breakdown(profile: PhysicalProfile) -> EnergyBreakdown:
    """Kinetic/gravitational split of a normalized profile, per particle,
    in units of hbar^2/(m a_g^2).

    The gravitational term re-solves the Poisson problem for the profile's
    own density (one inner solve), so it is the self-consistent potential of
    the same f.  It is a second-order route independent of the shot, behind
    the virial residual; a profile's eigenvalue is its ``epsilon_ag``.
    """
    grid = profile.f_ag.grid
    return EnergyBreakdown(_kinetic_energy(profile.f_ag.values, grid),
                           _self_energy_raw(profile.f_ag.values**2, grid))

