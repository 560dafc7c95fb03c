"""Release-gate check suites.

Six named suites — virial, homogeneity, poisson, oracle, evolution,
continuity — each returning a list of CheckResult rows.  The CLI ``check``
command renders them as a PASS/FAIL table and the acceptance tests assert
on the same rows, so there is exactly one implementation of every gate.

Regression bounds marked "frozen" were measured once on the reference
build and fixed with a safety margin; they guard against silent accuracy
loss, not against floating-point jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .evolution import (
    NonlinearityKind,
    RadialState,
    continuity_residual,
    evolve,
    gaussian_state,
    scheme_energy,
    state_from_profile,
    step,
)
from .grids import make_grid, radial_laplacian, solve_radial_poisson
from .physical import PhysicalProfile, energy_breakdown, rescale_to_physical
from .scf import scf_solve
from .shooting import UniversalSolution, solve_states

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]

@dataclass(frozen=True)
class CheckResult:
    """One row of a check table: a measured number against its bound, and
    against a lower bound when one is set; a NaN passes neither."""

    suite: str
    name: str
    measured: float
    bound: float
    lower: float | None = None

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound
                    and (self.lower is None or self.lower <= self.measured))


# ---------------------------------------------------------------------------
# shared slow artifacts, cached per process
# ---------------------------------------------------------------------------

# every state the suites use on each grid, bracketed on one set of lattice shots
_STATES_PER_GRID = {(40.0, 8001): (0, 1, 2), (40.0, 4001): (0, 1)}


@lru_cache(maxsize=8)
def _solved_grid(rho_max: float, points: int) -> dict[int, UniversalSolution]:
    ns = _STATES_PER_GRID[rho_max, points]
    return dict(zip(ns, solve_states(ns, make_grid(rho_max, points))))


def _solved(n: int, rho_max: float, points: int) -> UniversalSolution:
    return _solved_grid(rho_max, points)[n]


@lru_cache(maxsize=8)
def _natural_profile(n: int, rho_max: float, points: int) -> PhysicalProfile:
    return rescale_to_physical(_solved(n, rho_max, points))


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def _virial_residual(n: int, points: int) -> float:
    return energy_breakdown(_natural_profile(n, 40.0, points)).virial_residual

def _suite_virial() -> list[CheckResult]:
    rows = [CheckResult("virial", f"residual_n{n}", _virial_residual(n, 8001), 1e-3)
            for n in range(3)]
    # coarse/fine under 2x spacing refinement: second order gives 4
    ratio = _virial_residual(0, 4001) / _virial_residual(0, 8001)
    rows.append(CheckResult("virial", "refinement_order", ratio, 6.0, lower=2.5))
    return rows


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def _homogeneity_states() -> list[tuple[str, RadialState]]:
    stationary = state_from_profile(_natural_profile(0, 40.0, 4001))
    grid = make_grid(60.0, 2001)
    packet = gaussian_state(grid, sigma=3.0)
    r = grid.nodes
    chirped = replace(
        packet, u=packet.u * np.exp(1j * (0.2 * r * r + 0.4 * r))
    )
    return [("stationary", stationary), ("gaussian", packet), ("chirped_gaussian", chirped)]

def _suite_homogeneity() -> list[CheckResult]:
    rows = []
    gravity = NonlinearityKind.gravity()
    for label, state in _homogeneity_states():
        base = scheme_energy(state, gravity)
        worst = 0.0
        for lam in (0.1, 2.5, 10.0):
            scaled = scheme_energy(replace(state, u=lam * state.u), gravity)
            worst = max(worst, abs(scaled - lam * lam * base) / abs(base))
        rows.append(CheckResult("homogeneity", f"degree2_{label}", worst, 1e-12))
    return rows


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------

# Frozen regression constant: L-inf of (lap Phi - coupling*density) on a unit
# Gaussian source measured 4.19*spacing^2 across four resolutions on the
# reference build; bound doubled for safety.
_LAPLACIAN_C = 8.0

def _suite_poisson() -> list[CheckResult]:
    rows = []
    grid = make_grid(12.0, 4001)
    r = grid.nodes
    # ball edge placed mid-interval so the sampled density is the sharp
    # cutoff itself, not a hand-smoothed version
    a = (np.floor(5.0 / grid.spacing) + 0.5) * grid.spacing
    rho0 = 1.0
    density = np.where(r < a, rho0, 0.0)
    coupling = 4.0 * np.pi
    phi = solve_radial_poisson(density, grid, coupling)
    inside = r < a
    exact = np.where(
        inside,
        -2.0 * np.pi * rho0 * (a * a - r * r / 3.0),
        -(4.0 / 3.0) * np.pi * a**3 * rho0 / np.maximum(r, grid.spacing),
    )
    rel = np.abs(phi - exact) / np.abs(exact)
    rows.append(CheckResult("poisson", "uniform_ball_interior", float(rel[inside].max()), 1e-4))
    rows.append(CheckResult("poisson", "uniform_ball_tail", float(rel[~inside].max()), 1e-4))

    d1 = np.exp(-0.5 * r * r)
    d2 = r * r * np.exp(-((r - 3.0) ** 2) / 1.7)
    combo = 2.5 * d1 - 1.25 * d2
    phi_combo = solve_radial_poisson(combo, grid, coupling)
    phi_g = solve_radial_poisson(d1, grid, coupling)
    lin = phi_combo - 2.5 * phi_g + 1.25 * solve_radial_poisson(d2, grid, coupling)
    scale = np.abs(phi_combo).max()
    rows.append(CheckResult("poisson", "linearity", float(np.abs(lin).max() / scale), 1e-12))

    resid = radial_laplacian(phi_g, grid) - coupling * d1
    rows.append(CheckResult("poisson", "laplacian_residual", float(np.abs(resid[:-1]).max()),
                            _LAPLACIAN_C * grid.spacing**2))
    return rows


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_rows(n: int, tol: float) -> list[CheckResult]:
    profile = _natural_profile(n, 40.0, 4001)
    scf = scf_solve(n, profile.f_ag.grid)
    sol = _solved(n, 40.0, 4001)
    gamma_rel = abs(scf.gamma0 - sol.gamma0) / abs(sol.gamma0)
    dens_shoot = profile.f_ag.values**2
    dens_scf = scf.f.values**2
    dens_rel = float(np.abs(dens_shoot - dens_scf).max() / dens_scf[0])
    return [CheckResult("oracle", f"gamma0_n{n}", gamma_rel, tol),
            CheckResult("oracle", f"density_n{n}", dens_rel, tol)]

def _suite_oracle() -> list[CheckResult]:
    return _oracle_rows(0, 1e-4) + _oracle_rows(1, 1e-3)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _drift_rows(label: str, series, norm_bound: float = 1e-8,
                energy_bound: float = 1e-5) -> list[CheckResult]:
    norm_drift = float(np.abs(series.norms - series.norms[0]).max() / series.norms[0])
    e_drift = float(
        np.abs(series.energies - series.energies[0]).max() / abs(series.energies[0])
    )
    return [CheckResult("evolution", f"norm_drift_{label}", norm_drift, norm_bound),
            CheckResult("evolution", f"energy_drift_{label}", e_drift, energy_bound)]

def _free_dispersion_series(points: int = 2001, dt: float = 0.01):
    sigma = 1.0
    state = gaussian_state(make_grid(60.0, points), sigma=sigma)
    # 1000 steps of t_disp/200 cover five dispersion times t_disp = 2 m s^2/hbar
    return sigma, evolve(state, t_final=1000 * dt, dt=dt, nl=NonlinearityKind.free())

def _stationary_gravity_series(n_steps: int = 1000):
    profile = _natural_profile(0, 40.0, 4001)
    state = state_from_profile(profile)
    period = 2.0 * np.pi / abs(profile.epsilon_ag / 3.0)
    series = evolve(state, t_final=period, dt=period / n_steps, nl=NonlinearityKind.gravity(),
                    observe_every=50, snapshot_every=100)
    return state, series

def _suite_evolution() -> list[CheckResult]:
    rows = []
    sigma, free_series = _free_dispersion_series()
    rows += _drift_rows("free", free_series)
    w_exact = np.sqrt(3.0) * sigma * np.sqrt(
        1.0 + (free_series.times / (2.0 * sigma**2)) ** 2
    )
    width_err = float(np.abs(free_series.widths / w_exact - 1.0).max())
    rows.append(CheckResult("evolution", "free_width_law", width_err, 1e-3))

    packet = gaussian_state(make_grid(60.0, 2001), sigma=1.0)
    for sign, tag in ((1, "cubic_repulsive"), (-1, "cubic_attractive")):
        series = evolve(packet, t_final=10.0, dt=0.01,
                        nl=NonlinearityKind.cubic(kappa=1.0, sign=sign))
        rows += _drift_rows(tag, series)

    state, grav_series = _stationary_gravity_series()
    rows += _drift_rows("gravity", grav_series)
    dens0 = np.abs(state.psi()) ** 2
    worst = 0.0
    for _, snap in grav_series.snapshots:
        worst = max(worst, float(np.abs(snap.values - dens0).max() / dens0.max()))
    rows.append(CheckResult("evolution", "stationary_density", worst, 1e-3))
    return rows


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

# Frozen regression bound for the dispersing-Gaussian flux-form residual
# at spacing 0.03, dt 0.01 (measured 1.5e-6 on the reference build).
_CONTINUITY_COARSE = 5e-6

def _gaussian_pair(points: int, dt: float, warm_steps: int) -> tuple[RadialState, RadialState]:
    state = gaussian_state(make_grid(60.0, points), sigma=1.0)
    nl = NonlinearityKind.free()
    for _ in range(warm_steps):
        state = step(state, dt, nl)
    return state, step(state, dt, nl)

def _suite_continuity() -> list[CheckResult]:
    rows = []
    profile = _natural_profile(0, 40.0, 4001)
    st0 = state_from_profile(profile)
    st1 = step(st0, 0.1, NonlinearityKind.gravity())
    rows.append(CheckResult("continuity", "stationary_residual",
                            continuity_residual(st0, st1), 1e-6))

    coarse = continuity_residual(*_gaussian_pair(2001, 0.01, 10))
    fine = continuity_residual(*_gaussian_pair(4001, 0.005, 20))
    rows.append(CheckResult("continuity", "dispersing_residual", coarse, _CONTINUITY_COARSE))
    # 2x refinement in spacing and dt: second order gives 4
    rows.append(CheckResult("continuity", "refinement_order", coarse / fine, 6.5, lower=2.5))
    return rows


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_SUITE_FNS = {
    "virial": _suite_virial,
    "homogeneity": _suite_homogeneity,
    "poisson": _suite_poisson,
    "oracle": _suite_oracle,
    "evolution": _suite_evolution,
    "continuity": _suite_continuity,
}
SUITES: tuple[str, ...] = tuple(_SUITE_FNS)


def _check_suite_names(names: list[str]) -> None:
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise InvalidArgumentError(
            f"unknown suite(s): {', '.join(unknown)}; valid: {', '.join(SUITES)}")


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite; an unknown name raises InvalidArgumentError."""
    _check_suite_names([name])
    return _SUITE_FNS[name]()


def run_suites(names: list[str] | None = None) -> list[CheckResult]:
    """Run several suites (all six when names is None), each once and
    concatenated; every name is checked before any suite runs."""
    names = list(dict.fromkeys(names)) if names is not None else list(SUITES)
    _check_suite_names(names)
    return [row for name in names for row in run_suite(name)]
