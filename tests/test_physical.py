"""Physical rescaling, energy bookkeeping, and analytic energy anchors.

Frozen numbers: natural-units (hbar = G = m = N = 1) ground-state values on
the (40, 4001) working grid, computed by this package and cross-checked
against the self-consistent-field route; the Gaussian self-energy and
kinetic anchors are closed forms, independent of any solver here.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import numpy as np
import pytest

from sng.errors import InvalidArgumentError
from sng.evolution import (
    NonlinearityKind,
    gaussian_state,
    rms_width,
    scheme_energy,
    state_from_profile,
)
from sng.grids import RadialField, make_grid
from sng.physical import (
    HBAR,
    NEWTON_G,
    NUCLEON_MASS,
    EnergyBreakdown,
    PhysicalProfile,
    UnitScales,
    _kinetic_energy,
    _self_energy_raw,
    energy_breakdown,
    half_max_radius,
    rescale_to_physical,
    rms_radius,
)
from sng.shooting import UniversalSolution

# ground state, natural units, (40, 4001) grid; rms_radius re-recorded when
# the shooting kernel moved to u = rho f, v = rho g, 2.4e-9 below its value
# on 40/32001 at tol 1e-13 (3.6e-9 below before)
FROZEN = {
    "e_kinetic": 0.0542562746478107,
    "e_gravity": -0.108513508437768,
    "half_max_radius": 3.8882204049888958,
    "rms_radius": 4.635213661563465,
}


# --- parameters --------------------------------------------------------------

def test_natural_units_are_all_ones():
    units = UnitScales(1.0, 1.0, 1.0, 1.0)
    assert (units.amplitude, units.density, units.coupling) == (1.0, 1.0, 1.0)
    # hbar and G are constants, not parameters
    assert list(inspect.signature(UnitScales.of).parameters) == ["mass", "n_particles"]


def test_params_reject_nonpositive_values():
    with pytest.raises(InvalidArgumentError):
        UnitScales.of(mass=-1.0, n_particles=1.0)
    with pytest.raises(InvalidArgumentError):
        UnitScales.of(mass=1.0, n_particles=0.0)


def test_bohr_radius_scales_as_inverse_cube_of_mass():
    a_g = lambda mass: UnitScales.of(mass, 1.0).length  # noqa: E731
    ratio = a_g(NUCLEON_MASS) / a_g(2.0 * NUCLEON_MASS)
    assert ratio == pytest.approx(8.0, rel=1e-12)


# --- frozen ground-state numbers ---------------------------------------------

def test_frozen_natural_energies(natural_ground_profile):
    eb = energy_breakdown(natural_ground_profile)
    assert eb.e_kinetic == pytest.approx(FROZEN["e_kinetic"], rel=1e-6)
    assert eb.e_gravity == pytest.approx(FROZEN["e_gravity"], rel=1e-6)


def test_frozen_geometry(natural_ground_profile):
    assert half_max_radius(natural_ground_profile) == pytest.approx(
        FROZEN["half_max_radius"], rel=1e-9)
    assert rms_radius(natural_ground_profile) == pytest.approx(
        FROZEN["rms_radius"], rel=1e-9)


def test_rms_radius_is_the_rms_width_of_the_profile_state(natural_ground_profile):
    state = state_from_profile(natural_ground_profile)
    assert rms_radius(natural_ground_profile) == rms_width(state)


def test_profile_is_normalized_without_renormalization(natural_ground_profile):
    # gamma1 is f*'s own norm integral, so the amplitude prefactor needs no repair
    assert "renormalized" not in {f.name for f in fields(PhysicalProfile)}
    assert natural_ground_profile.norm == pytest.approx(1.0, abs=1e-12)


def _flat_profile(norm=1.0, phi=-1.0):
    """A profile of constant f and potential on 10/11, f of norm ``norm``."""
    grid = make_grid(10.0, 11)
    f = np.full(11, np.sqrt(3.0 * norm / (4.0 * np.pi * 1000.0)))
    return PhysicalProfile(RadialField(grid, f), RadialField(grid, np.full(11, phi)),
                           epsilon_ag=-1.0, phi_tail_shift_ag=0.0)


@pytest.mark.parametrize("changes, refusal", [
    ({"norm": 1.001}, r"profile norm 1\.001\d* is not 1 within 1e-6"),
    ({"phi": 1.0}, "potential must be negative where f is appreciable"),
])
def test_profile_refuses_a_norm_or_potential_off_its_contract(changes, refusal):
    with pytest.raises(InvalidArgumentError, match=refusal):
        _flat_profile(**changes)


def test_profile_reads_its_norm_off_f():
    # the norm is no field a caller can set: an f of norm 4 is refused, and
    # so is one whose square overflows (inf times x = 0 makes the norm NaN,
    # which the check passed), without numpy's warning
    assert "norm" not in {f.name for f in fields(PhysicalProfile)}
    assert _flat_profile().norm == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidArgumentError, match=r"profile norm 4\.0\d* is not 1"):
        _flat_profile(norm=4.0)
    grid = make_grid(10.0, 11)
    with pytest.raises(InvalidArgumentError, match="profile norm nan is not 1"):
        PhysicalProfile(RadialField(grid, np.full(11, 1e200)), RadialField(grid, np.full(11, -1.0)),
                        epsilon_ag=-1.0, phi_tail_shift_ag=0.0)


def test_half_max_radius_refuses_a_profile_that_never_halves():
    with pytest.raises(InvalidArgumentError, match="never falls below half maximum"):
        half_max_radius(_flat_profile())


def test_rescale_refuses_what_is_not_a_solution(natural_ground_profile):
    with pytest.raises(InvalidArgumentError, match="needs a UniversalSolution"):
        rescale_to_physical(natural_ground_profile)


def test_rescale_refuses_a_potential_that_overflows():
    # f* = 1e-25 and g* = 1e209 at rho = 1, and f* = 10^-(24 + i) at rho = i
    # past it, give gamma1 = 1.36e-50 and epsilon_star = 2.9e209, so
    # 2/gamma1^2 (g* + epsilon_star) overflows while the profile's norm stays 1
    grid = make_grid(10.0, 11)
    f, g = 10.0 ** -(24.0 + np.arange(11)), np.full(11, -1.0)
    f[0], g[1] = 1.0, 1e209
    sol = UniversalSolution(RadialField(grid, f), RadialField(grid, g), 1e-10)
    assert np.isfinite(sol.epsilon_star)
    with pytest.raises(InvalidArgumentError, match="rescale to a potential that overflows"):
        rescale_to_physical(sol)


def test_profile_carries_no_si_values(natural_ground_profile):
    # an old caller of the SI properties gets an AttributeError, not a_g numbers
    for name in ("units", "f", "phi", "epsilon", "phi_tail_shift"):
        assert not hasattr(natural_ground_profile, name), name


def test_virial_residual_small(natural_ground_profile):
    eb = energy_breakdown(natural_ground_profile)
    assert eb.virial_residual < 1e-4


def test_eigenvalue_routes_agree(natural_ground_profile):
    eb = energy_breakdown(natural_ground_profile)
    # the independent route: eigenvalue carried through the homology rescale
    assert natural_ground_profile.epsilon_ag == pytest.approx(1.5 * eb.e_gravity, rel=1e-4)


# --- physical-unit scaling ---------------------------------------------------

def test_rescaled_lengths_scale_with_bohr_radius(ground_state):
    a_g = HBAR**2 / (NEWTON_G * NUCLEON_MASS**3)
    length = UnitScales.of(NUCLEON_MASS, 1.0).length
    prof = rescale_to_physical(ground_state)
    assert half_max_radius(prof) * length / a_g == pytest.approx(
        FROZEN["half_max_radius"], rel=1e-4)
    assert rms_radius(prof) * length / a_g == pytest.approx(FROZEN["rms_radius"], rel=1e-4)


def test_rescaled_energy_scales_with_n_squared_m_to_fifth(ground_state):
    # epsilon proportional to G^2 N^2 m^5: check both exponents by ratio
    base = (NUCLEON_MASS, 1.0)
    heavier = (2.0 * NUCLEON_MASS, 1.0)
    more = (NUCLEON_MASS, 3.0)
    epsilon_ag = rescale_to_physical(ground_state).epsilon_ag
    eps = lambda p: epsilon_ag * UnitScales.of(*p).energy  # noqa: E731
    assert eps(heavier) / eps(base) == pytest.approx(32.0, rel=1e-9)
    assert eps(more) / eps(base) == pytest.approx(9.0, rel=1e-9)


def test_potential_satisfies_its_own_field_equation(ground_state):
    # the stored closed-form potential must obey the same Poisson relation
    # the quadrature route uses: compare the two potentials directly
    from sng.grids import solve_radial_poisson

    prof = rescale_to_physical(ground_state)
    density = prof.f_ag.values**2
    phi_q = solve_radial_poisson(density, prof.f_ag.grid, 4.0 * np.pi)
    scale = np.abs(prof.phi_ag.values).max()
    assert np.abs(prof.phi_ag.values - phi_q).max() / scale < 1e-4


# --- energy breakdown validation --------------------------------------------

def test_energy_breakdown_rejects_inconsistent_totals():
    # only the signs of the two energies can be wrong
    with pytest.raises(InvalidArgumentError):
        EnergyBreakdown(e_kinetic=-1.0, e_gravity=-2.0)
    with pytest.raises(InvalidArgumentError):
        EnergyBreakdown(e_kinetic=1.0, e_gravity=0.0)
    eb = EnergyBreakdown(e_kinetic=1.0, e_gravity=-2.0)
    assert eb.virial_residual == 0.0


# --- analytic anchors --------------------------------------------------------

def _gaussian_density(grid, sigma=1.0):
    r = grid.nodes
    return (2.0 * np.pi * sigma**2) ** -1.5 * np.exp(-r * r / (2.0 * sigma**2))


def test_self_energy_matches_gaussian_closed_form():
    # E = -G m^2 N / (2 sigma sqrt(pi)) for a unit-norm Gaussian cloud, in
    # a_g units -1/(2 sigma sqrt(pi)); Richardson extrapolation over a 2x
    # grid pair cancels the O(dr^2) bias
    exact = -1.0 / (2.0 * np.sqrt(np.pi))
    coarse_grid, fine_grid = make_grid(16.0, 2001), make_grid(16.0, 4001)
    coarse = _self_energy_raw(_gaussian_density(coarse_grid), coarse_grid)
    fine = _self_energy_raw(_gaussian_density(fine_grid), fine_grid)
    assert abs(fine / exact - 1.0) < 1e-5
    richardson = (4.0 * fine - coarse) / 3.0
    assert abs(richardson / exact - 1.0) < 1e-8


def test_self_energy_matches_literal_double_integral():
    # O(M^2) pair sum over the 1/max(r, s) kernel on a coarse grid;
    # trapezoid weights, kink on-node; agreement limited by the kink's
    # O(dr^2) quadrature error
    grid = make_grid(16.0, 401)
    r = grid.nodes
    density = _gaussian_density(grid)
    w = np.full(grid.n_points, grid.spacing)
    w[0] = w[-1] = grid.spacing / 2.0
    rmax = np.maximum.outer(r, r)
    rmax[0, 0] = 1.0  # weighted by r^2 = 0 either way
    src = w * r * r * density
    pair_sum = float(src @ (1.0 / rmax) @ src)
    e_double = -8.0 * np.pi**2 * pair_sum
    e_green = _self_energy_raw(density, grid)
    assert abs(e_double / e_green - 1.0) < 5e-4


def test_kinetic_energy_matches_gaussian_closed_form():
    # E_kin = 3 hbar^2 / (8 m sigma^2), 3/8 in a_g units, at second order
    # in the spacing
    errs = []
    for pts in (2001, 4001):
        grid = make_grid(60.0, pts)
        psi = gaussian_state(grid, sigma=1.0).psi()
        e = _kinetic_energy(psi, grid)
        errs.append(abs(e / 0.375 - 1.0))
    assert errs[0] < 2e-4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_scheme_energy_matches_gaussian_closed_form():
    # a unit-norm Gaussian of per-axis sigma has E = 3/(8 sigma^2) -
    # 1/(2 sqrt(pi) sigma) in a_g units; the scheme energy meets it at
    # second order (1.9e-4 - 1.7e-5 at spacing 0.05, four times less at
    # 0.025), and changes sign at sigma_c = 3 sqrt(pi)/4 = 1.33 as it does
    gravity = NonlinearityKind.gravity()
    sigmas = (1.0, 1.25, 1.5, 2.0)
    exact = np.array([3.0 / (8.0 * s * s) - 1.0 / (2.0 * np.sqrt(np.pi) * s) for s in sigmas])
    errs = []
    for points in (2401, 4801):
        grid = make_grid(120.0, points)
        energies = np.array([scheme_energy(gaussian_state(grid, s), gravity) for s in sigmas])
        errs.append(np.abs(energies - exact))
        assert energies[1] > 0.0 > energies[2]
    assert errs[0].max() <= 2.5e-4
    assert np.all((3.5 <= errs[0] / errs[1]) & (errs[0] / errs[1] <= 4.5))


# --- homogeneity -------------------------------------------------------------

def test_hamiltonian_functional_is_degree_two(natural_ground_profile):
    # the gravitational scheme energy divides its potential by the norm
    from dataclasses import replace

    state = state_from_profile(natural_ground_profile)
    gravity = NonlinearityKind.gravity()
    base = scheme_energy(state, gravity)
    rng = np.random.default_rng(20260822)
    for lam in (*rng.uniform(0.05, 20.0, size=4), 0.1, 2.5, 10.0):
        scaled = scheme_energy(replace(state, u=lam * state.u), gravity)
        assert abs(scaled - lam * lam * base) <= 1e-12 * abs(base) * max(1.0, lam * lam)


def test_weak_field_limit_is_kinetic_dominated():
    # narrow packets barely feel self-gravity: for sigma = 0.01 a_g the
    # interaction term is below one percent of the kinetic term
    grid = make_grid(0.6, 2001)
    state = gaussian_state(grid, sigma=0.01)
    h = scheme_energy(state, NonlinearityKind.gravity())
    e_kin = scheme_energy(state, NonlinearityKind.free())
    assert abs(h - e_kin) / e_kin < 0.01
