"""Crank–Nicolson time evolution of the radial one-body nonlinear equation.

Works on the reduced wavefunction u(r) = r psi(r) with Dirichlet ends, in
the a_g units of :mod:`sng.physical`, where the radial Laplacian is
tridiagonal:

    i du/dt = -(1/2) u'' + V[psi] u,

with V pluggable: free (V=0), cubic (V = ±kappa |psi|^2), or gravitational
Hartree (lap V = 4 pi |psi|^2 / norm).  Each step is one
Crank–Nicolson solve predicted with V[psi_t] and corrected once with
V[(psi_t + psi_pred)/2].  With V = 0 the corrector would repeat the
predictor exactly, so a free step is a single solve; the free matrix
depends only on the grid and dt, so it is factored once per (grid, dt) and
a free step is one back-substitution.  A step with a potential factors its
matrix and back-substitutes with the same two LAPACK routines.  ``evolve``
computes the potential of each observed state once: its energy row and the
next step share it.  The gravitational equation also carries a constant
-E_grav/norm term; a constant only rotates the global phase, so it is
integrated into a phase ledger on the state instead of the matrix (the
physical wavefunction is exp(i*phase) * u/r).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import InvalidArgumentError, StepRejectedError, check_count, check_positive
from .grids import (RadialField, RadialGrid, integrate_line, psi_from_u, rms_from_u,
                    solve_radial_poisson)
from .physical import PhysicalProfile

__all__ = [
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


@dataclass(frozen=True)
class RadialState:
    """Reduced radial wavefunction u = r psi at one instant.

    ``phase`` is the accumulated global-phase ledger from constant terms
    handled analytically; the physical wavefunction is exp(i phase) u / r.
    """

    grid: RadialGrid
    u: np.ndarray = field(repr=False)
    time: float
    phase: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.complex128)
        if u.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"u has shape {u.shape}, grid has {self.grid.n_points} nodes"
            )
        if not (np.all(np.isfinite(u.real)) and np.all(np.isfinite(u.imag))):
            raise InvalidArgumentError("u contains non-finite samples")
        if u[0] != 0.0:
            raise InvalidArgumentError("u(0) must be exactly 0 (psi regular at origin)")
        if not np.any(u):
            raise InvalidArgumentError("u is zero at every node; a state needs positive norm")
        object.__setattr__(self, "u", u)
        u.setflags(write=False)

    def psi(self) -> np.ndarray:
        """psi = u/r with the origin filled by its even-function limit."""
        return psi_from_u(self.u, self.grid)


@dataclass(frozen=True)
class NonlinearityKind:
    """Which nonlinear potential drives the evolution.

    Use the constructors: ``NonlinearityKind.free()``,
    ``NonlinearityKind.cubic(kappa, sign)``,
    ``NonlinearityKind.gravity()``.
    """

    kind: str
    kappa: float = 0.0
    sign: int = 1

    def __post_init__(self):
        if self.kind not in ("free", "cubic", "gravity"):
            raise InvalidArgumentError(f"unknown nonlinearity kind {self.kind!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise InvalidArgumentError(f"kappa must be non-negative and finite, got {self.kappa}")
        if self.sign not in (-1, 1):
            raise InvalidArgumentError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def free(cls) -> "NonlinearityKind":
        return cls(kind="free")

    @classmethod
    def cubic(cls, kappa: float, sign: int) -> "NonlinearityKind":
        return cls(kind="cubic", kappa=float(kappa), sign=int(sign))

    @classmethod
    def gravity(cls) -> "NonlinearityKind":
        return cls(kind="gravity")


@dataclass(frozen=True)
class ObservableSeries:
    """norm/energy/width time series plus optional density snapshots."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    widths: np.ndarray
    snapshots: Optional[tuple[tuple[float, RadialField], ...]] = None

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.norms) == len(self.energies) == len(self.widths) == n):
            raise InvalidArgumentError("observable series lengths differ")
        if not np.all(np.diff(self.times) > 0.0):
            raise InvalidArgumentError("times must increase strictly")


# ---------------------------------------------------------------------------
# constructors and observables
# ---------------------------------------------------------------------------

def state_from_profile(profile: PhysicalProfile) -> RadialState:
    """u = r f at t = 0 from a stationary profile (real, unit norm), in a_g units."""
    grid = profile.f_ag.grid
    return RadialState(grid=grid, u=grid.nodes * profile.f_ag.values, time=0.0)


def gaussian_state(grid: RadialGrid, sigma: float) -> RadialState:
    """Normalized isotropic Gaussian packet at t = 0; sigma is the initial
    per-axis position standard deviation, so |psi|^2 ∝ exp(-r^2/2 sigma^2)
    and the RMS radius starts at sqrt(3) sigma.  InvalidArgumentError when
    sigma^2 is not a normal double, or when the sampled packet's norm
    misses 1 by more than 1e-6: the spacing is too coarse for sigma, or the
    domain too small."""
    check_positive("sigma", sigma)
    if not np.finfo(float).tiny <= sigma * sigma < math.inf:
        raise InvalidArgumentError(f"sigma^2 = {sigma * sigma:.6g} is not a normal double")
    r = grid.nodes
    psi = (2.0 * np.pi * sigma**2) ** -0.75 * np.exp(-r * r / (4.0 * sigma**2))
    state = RadialState(grid=grid, u=r * psi, time=0.0)
    norm = state_norm(state)
    if not abs(norm - 1.0) <= 1e-6:
        raise InvalidArgumentError(
            f"a Gaussian of sigma {sigma:.6g} sampled with spacing {grid.spacing:.6g} "
            f"and r_max {grid.rho_max:.6g} has norm {norm:.6g}, not 1 within 1e-6")
    return state


def state_norm(state: RadialState) -> float:
    """norm = int 4 pi |u|^2 dr (= int |psi|^2 d^3x)."""
    return 4.0 * np.pi * integrate_line(np.abs(state.u) ** 2, state.grid)


def rms_width(state: RadialState) -> float:
    """Root-mean-square radius sqrt(<r^2>)."""
    return rms_from_u(state.u, state.grid)


def scheme_energy(state: RadialState, nl: NonlinearityKind) -> float:
    """The discrete energy functional the stepper conserves.

    Kinetic part is the quadratic form of the tridiagonal Laplacian itself
    (bond sum of |u_{k+1}-u_k|^2/dr), not a separately discretized
    gradient — Crank–Nicolson conserves exactly this form in the free
    case, and measuring any other discretization of the energy would
    report estimator mismatch as spurious drift.  The interaction part
    uses plain nodal weights, matching the pointwise action of V in the
    stepper: (sign kappa/2) int |psi|^4 d^3x for cubic and the
    norm-scaled potential energy (1/2) int rho V d^3x for gravity.
    """
    return _scheme_energy(state, nl, _potential(state.u, state.grid, nl)[0])


def _scheme_energy(state: RadialState, nl: NonlinearityKind, v: np.ndarray) -> float:
    """:func:`scheme_energy` with the potential samples V of ``state`` in hand."""
    du = np.diff(state.u)
    dr = state.grid.spacing
    e_kin = 0.5 * 4.0 * np.pi * float(np.sum(np.abs(du) ** 2)) / dr
    if nl.kind == "free":
        return e_kin
    # both interactions have V linear in rho, so (1/2) int V rho d^3x is
    # their conserved potential term; |u|^2 carries the r^2 weight already
    return e_kin + 0.5 * 4.0 * np.pi * float(np.sum(v * np.abs(state.u) ** 2)) * dr


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

def _potential(u: np.ndarray, grid: RadialGrid, nl: NonlinearityKind) -> tuple[np.ndarray, float]:
    """Potential samples V(r) for the given reduced wavefunction, plus the
    constant offset E_grav/norm destined for the phase ledger (0 unless
    gravitational)."""
    if nl.kind == "free":
        return np.zeros(grid.n_points), 0.0
    psi = psi_from_u(u, grid)
    density = np.abs(psi) ** 2
    if nl.kind == "cubic":
        return nl.sign * nl.kappa * density, 0.0
    norm = 4.0 * np.pi * integrate_line(np.abs(u) ** 2, grid)
    v = solve_radial_poisson(RadialField(grid, density), 4.0 * np.pi / norm).values
    e_grav_over_norm = 0.5 * 4.0 * np.pi * integrate_line(density * v * grid.nodes**2, grid)
    return v, e_grav_over_norm


class _CrankNicolson:
    """The Crank–Nicolson system (I + i dt H/2) u' = (I - i dt H/2) u of one
    grid and dt, with H = -(1/2) d^2/dr^2 + V on the interior nodes and
    Dirichlet ends.  Its off-diagonal -i lam, lam = dt/(4 dr^2), never
    changes, and the V = 0 left matrix is LU-factored once, on the first
    free solve.  Every solve is LAPACK's tridiagonal factorization (zgttrf)
    and back-substitution (zgttrs), which together do the arithmetic of one
    gtsv call."""

    def __init__(self, grid: RadialGrid, dt: float):
        # scipy's zgttrf and zgttrs wrappers need three interior unknowns
        check_count("n_points", grid.n_points, 5)
        dr = grid.spacing
        self.dt = dt
        self.lam = dt / (4.0 * dr * dr)
        if not math.isfinite(self.lam):
            raise _non_finite_system()
        self.off = _read_only(np.full(grid.n_points - 3, -1.0j * self.lam))

    @cached_property
    def free(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The right diagonal and the left matrix's factors at V = 0."""
        a_diag, b_diag = self._diagonals(np.zeros(len(self.off) + 1))
        return _read_only(b_diag), self._factor(a_diag)

    def _diagonals(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right diagonals for the interior potential samples v."""
        vterm = 0.5j * self.dt * v
        return 1.0 + 2.0j * self.lam + vterm, 1.0 - 2.0j * self.lam - vterm

    def _factor(self, a_diag: np.ndarray) -> tuple[np.ndarray, ...]:
        """zgttrf's (dl, d, du, du2, ipiv) of the left matrix with diagonal a_diag."""
        if not np.isfinite(a_diag).all():
            raise _non_finite_system()
        *lu, info = zgttrf(self.off, a_diag, self.off)
        _check_info("zgttrf", info)
        return tuple(_read_only(factor) for factor in lu)

    def solve(self, u: np.ndarray, v: Optional[np.ndarray] = None) -> np.ndarray:
        """u advanced by dt with the potential samples v frozen; V = 0 when
        v is None, which reuses the factored free matrix."""
        if v is None:
            b_diag, lu = self.free
        else:
            a_diag, b_diag = self._diagonals(v[1:-1])
            lu = self._factor(a_diag)
        rhs = b_diag * u[1:-1] + 1.0j * self.lam * (u[2:] + u[:-2])
        if not np.isfinite(rhs).all():
            raise _non_finite_system()
        x, info = zgttrs(*lu, rhs, overwrite_b=1)
        _check_info("zgttrs", info)
        out = np.zeros(len(u), dtype=np.complex128)
        out[1:-1] = x
        return out


@lru_cache(maxsize=8)
def _crank_nicolson(grid: RadialGrid, dt: float) -> _CrankNicolson:
    return _CrankNicolson(grid, dt)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _non_finite_system() -> InvalidArgumentError:
    return InvalidArgumentError(
        "dt is too large: the Crank–Nicolson system is not finite, because "
        "dt/dr^2 or dt times the potential overflows a double")


def _check_info(routine: str, info: int) -> None:
    """Refuse a non-zero LAPACK info: > 0 is an exactly zero pivot, < 0 an
    illegal argument."""
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info = {info}")


def step(state: RadialState, dt: float, nl: NonlinearityKind, *,
         v_old: Optional[np.ndarray] = None) -> RadialState:
    """Advance one Crank–Nicolson step with a single predictor–corrector pass.

    ``v_old`` is the potential of ``state`` under ``nl`` when the caller
    already has it (``evolve`` does for observed states); it is computed
    here otherwise.  A free step is the predictor solve alone.

    Raises
    ------
    StepRejectedError
        When the potential sampled at the predictor midpoint differs from
        the starting potential by more than 50% (sup norm, relative); the
        error carries a suggested smaller dt aiming at a 25% change.
    """
    check_positive("dt", dt)
    cn = _crank_nicolson(state.grid, dt)
    if nl.kind == "free":
        return replace(state, u=cn.solve(state.u), time=state.time + dt)
    if v_old is None:
        v_old, _ = _potential(state.u, state.grid, nl)
    u_pred = cn.solve(state.u, v_old)
    u_mid = 0.5 * (state.u + u_pred)
    v_mid, off_mid = _potential(u_mid, state.grid, nl)

    scale = float(np.max(np.abs(v_old)))
    if scale > 0.0:
        change = float(np.max(np.abs(v_mid - v_old))) / scale
        if change > 0.5:
            raise StepRejectedError(
                f"potential changed {change:.1%} within one step of dt={dt:.3e}",
                suggested_dt=0.25 * dt / change,
            )
    u_new = cn.solve(state.u, v_mid)
    return replace(
        state,
        u=u_new,
        time=state.time + dt,
        phase=state.phase + off_mid * dt,
    )


def evolve(state: RadialState, t_final: float, dt: float, nl: NonlinearityKind,
           observe_every: int = 1,
           snapshot_every: Optional[int] = None) -> ObservableSeries:
    """Step from state.time to t_final, recording norm, energy,
    and RMS width every ``observe_every`` steps (plus start and end), and
    density snapshots every ``snapshot_every`` steps when requested.

    The recorded energy is scheme_energy — the discrete functional the
    stepper conserves.  An observable that is not finite raises
    InvalidArgumentError naming it.  Warns once if |psi| near the outer
    boundary exceeds 1e-8 of its peak (domain too small for strict norm
    conservation).
    """
    check_positive("dt", dt)
    check_positive("t_final - state.time", t_final - state.time)
    check_count("observe_every", observe_every, 1)
    if snapshot_every is not None:
        check_count("snapshot_every", snapshot_every, 1)
    n_steps = int(round((t_final - state.time) / dt))
    if n_steps < 1:
        raise InvalidArgumentError("t_final is less than half a step away")

    def density_field(s: RadialState) -> RadialField:
        return RadialField(s.grid, np.abs(s.psi()) ** 2)

    times: list[float] = []
    norms: list[float] = []
    energies: list[float] = []
    widths: list[float] = []

    def observe(s: RadialState) -> np.ndarray:
        """Record one row; return the potential of s for the next step."""
        v, _ = _potential(s.u, s.grid, nl)
        row = {"norm": state_norm(s), "energy": _scheme_energy(s, nl, v), "rms_width": rms_width(s)}
        for name, value in row.items():
            if not math.isfinite(value):
                raise InvalidArgumentError(
                    f"{name} is {value} at t = {s.time:.6g}; the state's scale is beyond a double")
        times.append(s.time)
        norms.append(row["norm"])
        energies.append(row["energy"])
        widths.append(row["rms_width"])
        return v

    v = observe(state)
    snaps: list[tuple[float, RadialField]] = []
    if snapshot_every is not None:
        snaps.append((state.time, density_field(state)))

    boundary_warned = False
    current = state
    for k in range(1, n_steps + 1):
        current = step(current, dt, nl, v_old=v)
        v = None
        at_obs = (k % observe_every == 0) or (k == n_steps)
        if at_obs:
            v = observe(current)
            if not boundary_warned:
                psi_edge = abs(current.u[-2]) / current.grid.nodes[-2]
                peak = float(np.max(np.abs(current.psi())))
                if peak > 0.0 and psi_edge > 1e-8 * peak:
                    warnings.warn(
                        "wavefunction amplitude at the outer boundary exceeds "
                        "1e-8 of its peak; enlarge the domain for strict norm "
                        "conservation",
                        stacklevel=2,
                    )
                    boundary_warned = True
        if snapshot_every is not None and k % snapshot_every == 0:
            snaps.append((current.time, density_field(current)))

    return ObservableSeries(
        times=np.asarray(times),
        norms=np.asarray(norms),
        energies=np.asarray(energies),
        widths=np.asarray(widths),
        snapshots=tuple(snaps) if snapshot_every is not None else None,
    )


def continuity_residual(before: RadialState, after: RadialState) -> float:
    """L-infinity residual of the radial continuity identity across a pair
    of states, in flux form: d_t(r^2 rho) + d_r(r^2 j).

    rho = |psi|^2 is differenced in time; the radial current
    j = Im(psi* d_r psi) is averaged over the two states, so both
    terms are centered at the midpoint time.  The flux form is used because
    it stays uniformly second order through the origin — the pointwise
    rho-form divides by r^2 and its stencils lose consistency at the first
    nodes, where r^2 j bends within one cell.
    """
    if before.grid != after.grid:
        raise InvalidArgumentError("states live on different grids")
    if not after.time > before.time:
        raise InvalidArgumentError("after.time must exceed before.time")
    dt = after.time - before.time
    r = before.grid.nodes
    psi_b, psi_a = before.psi(), after.psi()
    dp_dt = r * r * (np.abs(psi_a) ** 2 - np.abs(psi_b) ** 2) / dt
    j_mid = 0.5 * np.imag(np.conj(psi_b) * np.gradient(psi_b, r)
                          + np.conj(psi_a) * np.gradient(psi_a, r))
    return float(np.max(np.abs(dp_dt + np.gradient(r * r * j_mid, r))))
