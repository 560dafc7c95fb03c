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
a free step is one back-substitution on the cached factors.  A solve with
a potential uses its matrix once, so it is one fused LAPACK zgtsv call
(factor and back-substitute), and a step's predictor and corrector share
the hopping term of the right-hand side.  scipy's wrappers of these LAPACK
routines are imported with the first Crank–Nicolson system, not with this
module, so that importing sng loads no scipy.

``step`` and ``evolve`` run one private per-step kernel on the bare u
array.  ``evolve`` carries u and the time through it and builds no
RadialState per step; ``step`` wraps the kernel's result in one.  Each
state is evaluated once: one plain private object derives |u|^2, its line
integral, |psi| = |u/r|, the density and V from u, each on first use.
``evolve``'s observation (norm, energy, RMS width, the boundary check and
density snapshots) and the next step's potential read the same
evaluation, and so do ``state_norm``, ``rms_width`` and ``scheme_energy``.
The gravitational potential goes through the Poisson kernel as a bare
array; the samples it is built from are finite, and a non-finite result
is refused by the solve's finiteness checks or the observation.
The gravitational equation also carries a constant -E_grav/norm term; a
constant only rotates the global phase, so the step integrates it at the
predictor midpoint into a phase ledger on the state instead of the matrix
(the physical wavefunction is exp(i*phase) * u/r).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidArgumentError, StepRejectedError, check_count, check_positive
from .grids import RadialField, RadialGrid, integrate_line, poisson_values, psi_from_u

if TYPE_CHECKING:  # pragma: no cover
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
        if not np.isfinite(u).all():
            raise InvalidArgumentError("u contains non-finite samples")
        if u[0] != 0.0:
            raise InvalidArgumentError("u(0) must be exactly 0 (psi regular at origin)")
        # the quadrature weights and the Laplacian divide by dr^2
        if not self.grid.spacing * self.grid.spacing >= np.finfo(float).tiny:
            raise InvalidArgumentError(
                f"grid spacing {self.grid.spacing:.6g} is too fine: its square underflows a double")
        # an infinite norm is left to evolve's observable check
        with np.errstate(over="ignore"):
            u2_line = integrate_line(np.abs(u) ** 2, self.grid)
        if not u2_line > 0.0:
            raise InvalidArgumentError(
                "norm is 0 in double precision: u is zero at every node, or so "
                "small that |u|^2 underflows; a state needs positive norm")
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
    domain too small; or, before sampling, when r_max^2 / 4 sigma^2
    overflows a double."""
    check_positive("sigma", sigma)
    if not np.finfo(float).tiny <= sigma * sigma < math.inf:
        raise InvalidArgumentError(f"sigma^2 = {sigma * sigma:.6g} is not a normal double")
    if not grid.rho_max * grid.rho_max / (4.0 * sigma**2) < math.inf:
        raise InvalidArgumentError(
            f"r_max {grid.rho_max:.6g} is too far out for a Gaussian of sigma {sigma:.6g}: "
            f"r_max^2 / 4 sigma^2 overflows a double")
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
    return _Evaluation(state.grid, state.u).norm


def rms_width(state: RadialState) -> float:
    """Root-mean-square radius sqrt(<r^2>)."""
    return _Evaluation(state.grid, state.u).rms_width


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
    return _Evaluation(state.grid, state.u, nl).energy


# ---------------------------------------------------------------------------
# one evaluation per state
# ---------------------------------------------------------------------------

class _Evaluation:
    """The fields derived from one reduced wavefunction u under ``nl``.

    Each field is computed on first use and kept, so the observables, the
    boundary check, a snapshot and a step's potential of the same u share
    one |u|^2, one int |u|^2 dr, one |psi| and one potential.  The stepper
    makes two of these per step, so they are plain slotted objects."""

    __slots__ = ("grid", "u", "nl", "_u2", "_u2_line", "_psi_abs", "_density", "_v")

    def __init__(self, grid: RadialGrid, u: np.ndarray,
                 nl: NonlinearityKind = NonlinearityKind.free()):
        self.grid = grid
        self.u = u
        self.nl = nl
        self._u2 = self._u2_line = self._psi_abs = self._density = self._v = None

    @property
    def u2(self) -> np.ndarray:
        if self._u2 is None:
            self._u2 = np.abs(self.u) ** 2
        return self._u2

    @property
    def u2_line(self) -> float:
        """int |u|^2 dr."""
        if self._u2_line is None:
            self._u2_line = integrate_line(self.u2, self.grid)
        return self._u2_line

    @property
    def norm(self) -> float:
        return 4.0 * np.pi * self.u2_line

    @property
    def rms_width(self) -> float:
        r = self.grid.nodes
        return float(np.sqrt(integrate_line(r * r * self.u2, self.grid) / self.u2_line))

    @property
    def psi_abs(self) -> np.ndarray:
        """|psi| with psi = u/r."""
        if self._psi_abs is None:
            self._psi_abs = np.abs(psi_from_u(self.u, self.grid))
        return self._psi_abs

    @property
    def density(self) -> np.ndarray:
        if self._density is None:
            self._density = self.psi_abs ** 2
        return self._density

    @property
    def v(self) -> np.ndarray:
        """Potential samples V(r); zero when free."""
        if self._v is None:
            if self.nl.kind == "free":
                self._v = np.zeros(self.grid.n_points)
            elif self.nl.kind == "cubic":
                self._v = self.nl.sign * self.nl.kappa * self.density
            else:
                self._v = poisson_values(self.density, self.grid, 4.0 * np.pi / self.norm)
        return self._v

    @property
    def energy(self) -> float:
        """:func:`scheme_energy` of u."""
        du = np.diff(self.u)
        dr = self.grid.spacing
        e_kin = 0.5 * 4.0 * np.pi * float(np.sum(np.abs(du) ** 2)) / dr
        if self.nl.kind == "free":
            return e_kin
        # both interactions have V linear in rho, so (1/2) int V rho d^3x is
        # their conserved potential term; |u|^2 carries the r^2 weight already
        return e_kin + 0.5 * 4.0 * np.pi * float(np.sum(self.v * self.u2)) * dr

    @property
    def phase_rate(self) -> float:
        """The constant E_grav/norm of the gravitational equation, which the
        phase ledger integrates (0 unless gravitational)."""
        if self.nl.kind != "gravity":
            return 0.0
        r = self.grid.nodes
        return 0.5 * 4.0 * np.pi * integrate_line(self.density * self.v * r**2, self.grid)


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

class _CrankNicolson:
    """The Crank–Nicolson system (I + i dt H/2) u' = (I - i dt H/2) u of one
    grid and dt, with H = -(1/2) d^2/dr^2 + V on the interior nodes and
    Dirichlet ends.  Its off-diagonal -i lam, lam = dt/(4 dr^2), never
    changes, and the V = 0 left matrix is LU-factored once (zgttrf), on
    the first free solve, so a free solve is one back-substitution (zgttrs).
    A solve with a potential is one zgtsv call, which does the arithmetic of
    zgttrf followed by zgttrs in one pass."""

    def __init__(self, grid: RadialGrid, dt: float):
        # scipy's zgttrf, zgttrs and zgtsv wrappers need three interior unknowns
        check_count("n_points", grid.n_points, 5)
        # imported once per cached system, not at module top, so that
        # commands that never call LAPACK do not pay scipy's import
        from scipy.linalg import lapack

        self.lapack = lapack
        dr = grid.spacing
        self.dt = dt
        self.lam = dt / (4.0 * dr * dr)
        if not math.isfinite(self.lam):
            raise _non_finite_system()
        self.off = _read_only(np.full(grid.n_points - 3, -1.0j * self.lam))

    @cached_property
    def free(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The right diagonal and zgttrf's (dl, d, du, du2, ipiv) of the left
        matrix at V = 0."""
        a_diag, b_diag = self._diagonals(np.zeros(len(self.off) + 1))
        if not np.isfinite(a_diag).all():
            raise _non_finite_system()
        *lu, info = self.lapack.zgttrf(self.off, a_diag, self.off)
        _check_info("zgttrf", info)
        return _read_only(b_diag), tuple(_read_only(factor) for factor in lu)

    def _diagonals(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right diagonals for the interior potential samples v.
        An overflow here is refused before any LAPACK call, so numpy's
        warning about it is silenced."""
        with np.errstate(over="ignore", invalid="ignore"):
            vterm = 0.5j * self.dt * v
            return 1.0 + 2.0j * self.lam + vterm, 1.0 - 2.0j * self.lam - vterm

    def hopping(self, u: np.ndarray) -> np.ndarray:
        """The off-diagonal part i lam (u[k+1] + u[k-1]) of the right-hand
        side on the interior nodes, which does not depend on V."""
        return 1.0j * self.lam * (u[2:] + u[:-2])

    def solve(self, u: np.ndarray, v: Optional[np.ndarray] = None,
              hop: Optional[np.ndarray] = None) -> np.ndarray:
        """u advanced by dt with the potential samples v frozen; V = 0 when
        v is None, which back-substitutes on the factored free matrix.
        ``hop`` is :meth:`hopping` of u when the caller already has it."""
        if v is None:
            b_diag, lu = self.free
        else:
            a_diag, b_diag = self._diagonals(v[1:-1])
            if not np.isfinite(a_diag).all():
                raise _non_finite_system()
        if hop is None:
            hop = self.hopping(u)
        rhs = b_diag * u[1:-1] + hop
        if not np.isfinite(rhs).all():
            raise _non_finite_system()
        if v is None:
            x, info = self.lapack.zgttrs(*lu, rhs, overwrite_b=1)
            _check_info("zgttrs", info)
        else:
            # the shared off-diagonal is read-only, so zgtsv works on copies
            # of it; the fresh diagonal and right-hand side are overwritten
            *_, x, info = self.lapack.zgtsv(self.off, a_diag, self.off, rhs,
                                            overwrite_d=1, overwrite_b=1)
            _check_info("zgtsv", info)
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


def _advance(cn: _CrankNicolson, ev: _Evaluation) -> tuple[np.ndarray, _Evaluation]:
    """The kernel of :func:`step` and :func:`evolve`: ``ev.u`` advanced by
    ``cn.dt`` under ``ev.nl``, and the evaluation of the step's predictor
    midpoint (``ev`` itself when free), whose phase rate :func:`step`
    carries.  The step's starting potential is ``ev.v``, so an observation
    of the same state shares it."""
    if ev.nl.kind == "free":
        return cn.solve(ev.u), ev
    u, v_old = ev.u, ev.v
    hop = cn.hopping(u)
    u_pred = cn.solve(u, v_old, hop)
    mid = _Evaluation(ev.grid, 0.5 * (u + u_pred), ev.nl)
    v_mid = mid.v

    scale = float(np.max(np.abs(v_old)))
    if scale > 0.0:
        change = float(np.max(np.abs(v_mid - v_old))) / scale
        if change > 0.5:
            raise StepRejectedError(
                f"potential changed {change:.1%} within one step of dt={cn.dt:.3e}",
                suggested_dt=0.25 * cn.dt / change,
            )
    return cn.solve(u, v_mid, hop), mid


def step(state: RadialState, dt: float, nl: NonlinearityKind) -> RadialState:
    """Advance one Crank–Nicolson step with a single predictor–corrector
    pass; a free step is the predictor solve alone.

    Raises
    ------
    StepRejectedError
        When the potential sampled at the predictor midpoint differs from
        the starting potential by more than 50% (sup norm, relative); the
        error carries a suggested smaller dt aiming at a 25% change.
    """
    check_positive("dt", dt)
    u, mid = _advance(_crank_nicolson(state.grid, dt), _Evaluation(state.grid, state.u, nl))
    return RadialState(state.grid, u, state.time + dt, state.phase + mid.phase_rate * dt)


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

    times: list[float] = []
    norms: list[float] = []
    energies: list[float] = []
    widths: list[float] = []
    snaps: list[tuple[float, RadialField]] = []

    def observe(time: float, ev: _Evaluation) -> None:
        row = {"norm": ev.norm, "energy": ev.energy, "rms_width": ev.rms_width}
        for name, value in row.items():
            if not math.isfinite(value):
                raise InvalidArgumentError(
                    f"{name} is {value} at t = {time:.6g}; the state's scale is beyond a double")
        times.append(time)
        norms.append(row["norm"])
        energies.append(row["energy"])
        widths.append(row["rms_width"])

    grid = state.grid
    cn = _crank_nicolson(grid, dt)
    time = state.time
    ev = _Evaluation(grid, state.u, nl)
    observe(time, ev)
    if snapshot_every is not None:
        snaps.append((time, RadialField(grid, ev.density)))

    boundary_warned = False
    for k in range(1, n_steps + 1):
        u, _ = _advance(cn, ev)
        time += dt
        ev = _Evaluation(grid, u, nl)
        if (k % observe_every == 0) or (k == n_steps):
            observe(time, ev)
            if not boundary_warned:
                psi_edge = abs(u[-2]) / grid.nodes[-2]
                peak = float(np.max(ev.psi_abs))
                if peak > 0.0 and psi_edge > 1e-8 * peak:
                    warnings.warn(
                        "wavefunction amplitude at the outer boundary exceeds "
                        "1e-8 of its peak; enlarge the domain for strict norm "
                        "conservation",
                        stacklevel=2,
                    )
                    boundary_warned = True
        if snapshot_every is not None and k % snapshot_every == 0:
            snaps.append((time, RadialField(grid, ev.density)))

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
