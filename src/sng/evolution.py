"""Crank–Nicolson time evolution of the radial one-body nonlinear equation.

Works on the reduced wavefunction u(r) = r psi(r) with Dirichlet ends, in
the a_g units of :mod:`sng.physical`, where the radial Laplacian is
tridiagonal:

    i du/dt = -(1/2) u'' + V[psi] u,

with V pluggable: free (V=0), cubic (V = ±kappa |psi|^2), or gravitational
Hartree (lap V = 4 pi |psi|^2 / norm).  Each step with a potential is one
Crank–Nicolson solve under the relaxed half-step potential of Besse's
relaxation scheme (C. Besse, SIAM J. Numer. Anal. 42(3), 934–952, 2004),
phi^{n+1/2} = 2 V[psi^n] - phi^{n-1/2}, where a run's first step takes
phi^{-1/2} = V[psi^0]: the scheme is second order in time and keeps the
norm exactly.  With A = I + i dt H/2, its step A^-1 (2 - A) u^n is 2 y - u^n
for y = A^-1 u^n (A. Goldberg, H. M. Schey and J. L. Schwartz, Am. J.
Phys. 35, 177, 1967), the midpoint (u^n + u^{n+1})/2 that the guard
reads: one fused LAPACK zgtsv call (factor and back-substitute) on a copy
of u^n.  Each solve imports scipy's wrapper of zgtsv, which after the
first is a sys.modules lookup, so that importing sng loads no scipy.

Where V is identically zero (free, and cubic with kappa = 0) there is
nothing to relax, and the Crank–Nicolson step is diagonal in the sine
modes of the interior nodes (the type-I discrete sine transform, DST-I,
diagonalises the Dirichlet second difference): each mode is multiplied by
one fixed phase per step.  A V = 0 run transforms u to its modes once,
jumps them between the steps it observes or snapshots, and transforms
back only there, with numpy's FFT and no LAPACK.

``step`` and ``evolve`` run the same kernels on the bare u array.
``evolve`` carries u, phi^{n-1/2} and the time through them and builds no
RadialState per step; ``step`` wraps the kernel's result in one, which
carries phi^{n-1/2} on to the next step of the same nonlinearity and dt.
Each state is evaluated once: one plain private object derives |u|^2,
its line integral, the density |u|^2 / r^2 and V from u, each on first use.
``evolve``'s observation (norm, energy, RMS width, the boundary check and
density snapshots) and the next step's potential read the same
evaluation, and so do ``state_norm``, ``rms_width`` and ``scheme_energy``.

A step is refused where V at its midpoint (psi^n + psi^{n+1})/2 differs
from V[psi^n], or from phi^{n+1/2}, by more than half of max|V[psi^n]|.
Under gravity the guard first bounds both changes without a Poisson
solve, by the shell theorem on the kernel's own non-negative origin
weights w: with Delta = 4 pi (rho_mid/N_mid - rho_n/N_n),
max|V_mid - V_n| <= w . |Delta| and
max|V_mid - phi| <= w . |Delta| + max|V_n - phi|.  Where that sum is at
most 0.5 (1 - 1e-6) max|V_n|, a margin far above the n eps rounding of a
solve's two cumsums, the exact test cannot refuse the step and the
midpoint's potential is not solved, so a step of ``step`` or ``evolve``
costs one Poisson solve.  Elsewhere, and under the cubic potential, the
exact test runs: the same steps are accepted and refused either way, with
the same change.

A state's scale has one door: :class:`RadialState` refuses a u whose norm,
peak density or int r^2 |u|^2 dr overflows a double; a step keeps the norm,
so no kernel guards |u|^2 again.  The gravitational potential is the one
Poisson kernel's solve of the density samples.  A finite state can still
meet an overflowing kappa |psi|^2 (refused naming kappa), dt V, energy or
width (refused by the solve's and the observation's finiteness checks).
The gravitational equation also carries a constant -E_grav/norm term,
which the stepper drops: a constant turns only the global phase, and no
output reads that phase, so the stored u of an eigenstate turns at eps,
and the single-particle energy eps/3 is still reported, as ``rescale``'s
e_single_J.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidArgumentError, StepRejectedError, check_count, check_positive
from .grids import RadialField, RadialGrid, integrate_line, psi_from_u, solve_radial_poisson

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

    A state that :func:`step` made privately carries (phi, nl, dt): the
    relaxed potential phi^{n-1/2} its step solved with, and that step's
    nonlinearity and time step.  Only a step of the same nl and dt
    extrapolates from it; any other starts its relaxation afresh.  A state
    built by a constructor or ``dataclasses.replace`` carries none.
    InvalidArgumentError for a u whose norm, peak density |u/r|^2 or RMS
    width's int r^2 |u|^2 dr overflows a double ("u is too large"), or
    whose norm underflows to 0: this is the one check of a state's scale.
    Also for a grid whose spacing^2 underflows or whose r_max^2 overflows.
    """

    grid: RadialGrid
    u: np.ndarray = field(repr=False)
    time: float
    _relaxation: Optional[tuple[np.ndarray, NonlinearityKind, float]] = field(
        default=None, init=False, repr=False, compare=False)

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
        # psi's origin limit and the RMS width square r
        if not self.grid.rho_max * self.grid.rho_max < math.inf:
            raise InvalidArgumentError(
                f"r_max {self.grid.rho_max:.6g} is too far out: its square overflows a double")
        # the one door for a state's scale: past it |u|^2, the norm, the
        # density and the width are finite, so nothing downstream guards them
        with np.errstate(over="ignore", invalid="ignore"):
            ev = _Evaluation(self.grid, u)
            u2_line = ev.u2_line
            peak = float(np.max(ev.density))
            r2_line = integrate_line(self.grid._squared_nodes * ev.u2, self.grid)
        if not (4.0 * np.pi * u2_line < math.inf and peak < math.inf):
            raise InvalidArgumentError("u is too large: its norm or its density overflows a double")
        if not r2_line < math.inf:  # the integral of r^2 |u|^2 that rms_width forms
            raise InvalidArgumentError("u is too large: its RMS width integral overflows a double")
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
        if self.kind != "cubic" and (self.kappa, self.sign) != (0.0, 1):  # refused, not ignored
            name, value = ("kappa", self.kappa) if self.kappa != 0.0 else ("sign", self.sign)
            raise InvalidArgumentError(f"{name} applies only to cubic, got {value} for {self.kind}")

    @classmethod
    def free(cls) -> "NonlinearityKind":
        return cls(kind="free")

    @classmethod
    def cubic(cls, kappa: float, sign: int) -> "NonlinearityKind":
        if sign not in (-1, 1):  # before int(), which would truncate 1.9 to 1
            raise InvalidArgumentError(f"sign must be +1 or -1, got {sign!r}")
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
    domain too small; or, before sampling, when r_max^2 / 4 sigma^2 or the
    peak density (2 pi sigma^2)^-1.5 overflows a double."""
    sigma = check_positive("sigma", sigma)
    if not np.finfo(float).tiny <= sigma * sigma < math.inf:
        raise InvalidArgumentError(f"sigma^2 = {sigma * sigma:.6g} is not a normal double")
    amplitude = (2.0 * np.pi * sigma**2) ** -0.75
    if not amplitude * amplitude < math.inf:
        raise InvalidArgumentError(
            f"sigma {sigma:.6g} is too small: the packet's peak density "
            f"(2 pi sigma^2)^-1.5 overflows a double")
    if not grid.rho_max * grid.rho_max / (4.0 * sigma**2) < math.inf:
        raise InvalidArgumentError(
            f"r_max {grid.rho_max:.6g} is too far out for a Gaussian of sigma {sigma:.6g}: "
            f"r_max^2 / 4 sigma^2 overflows a double")
    r = grid.nodes
    psi = amplitude * np.exp(-r * r / (4.0 * sigma**2))
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
    norm-scaled potential energy (1/2) int rho V d^3x for gravity, whose
    energy is thus homogeneous of degree 2 in u.  It is a state's energy.
    """
    return _Evaluation(state.grid, state.u, nl).energy


# ---------------------------------------------------------------------------
# one evaluation per state
# ---------------------------------------------------------------------------

class _Evaluation:
    """The fields derived from one reduced wavefunction u under ``nl``.

    Each field is computed on first use and kept, so the observables, the
    boundary check, a snapshot and a step's potential of the same u share
    one |u|^2, one int |u|^2 dr, one density and one potential.  u has passed
    :class:`RadialState`'s scale check, or is a step of such a u, so none of
    them overflows."""

    def __init__(self, grid: RadialGrid, u: np.ndarray,
                 nl: NonlinearityKind = NonlinearityKind.free()):
        self.grid = grid
        self.u = u
        self.nl = nl

    @cached_property
    def u2(self) -> np.ndarray:
        """|u|^2 = re^2 + im^2; a real u gets its own square."""
        u2 = np.square(self.u.real)
        return np.add(u2, np.square(self.u.imag), out=u2)

    @cached_property
    def u2_line(self) -> float:
        """int |u|^2 dr."""
        return integrate_line(self.u2, self.grid)

    @property
    def norm(self) -> float:
        return 4.0 * np.pi * self.u2_line

    @property
    def rms_width(self) -> float:
        r2u2 = np.multiply(self.grid._squared_nodes, self.u2)
        return float(np.sqrt(integrate_line(r2u2, self.grid) / self.u2_line))

    @cached_property
    def density(self) -> np.ndarray:
        """|psi|^2 = |u|^2 / r^2 past the origin, and at it the square of
        psi's even-function limit."""
        grid = self.grid
        density = np.empty(grid.n_points)
        np.multiply(self.u2[1:], grid._reciprocal_squared_nodes, out=density[1:])
        density[0] = abs(grid._origin_limit(*(self.u[1:3] / grid.nodes[1:3]))) ** 2
        return density

    @property
    def coupling(self) -> float:
        """4 pi / norm, the gravitational Poisson coupling of the density."""
        return 4.0 * np.pi / self.norm

    @cached_property
    def v(self) -> np.ndarray:
        """Potential samples V(r); zero when free."""
        if self.nl.kind == "gravity":
            return solve_radial_poisson(self.density, self.grid, self.coupling)
        # rounding is monotone: kappa times the peak bounds every product
        if not self.nl.kappa * float(np.max(self.density)) < math.inf:
            raise InvalidArgumentError(f"kappa = {self.nl.kappa!r} is too large for this state: "
                                       "kappa times its peak density overflows a double")
        return self.nl.sign * self.nl.kappa * self.density  # free has kappa = 0

    @property
    def energy(self) -> float:
        """:func:`scheme_energy` of u."""
        u = self.u
        du = np.subtract(u[1:], u[:-1]).view(np.float64)  # re and im side by side
        e_kin = 0.5 * 4.0 * np.pi * float(np.square(du, out=du).sum()) / self.grid.spacing
        if self.nl.kind == "free":
            return e_kin
        # (1/2) int V rho d^3x with nodal weights, as |u|^2 carries r^2
        return e_kin + 0.5 * 4.0 * np.pi * float((self.v * self.u2).sum()) * self.grid.spacing


# ---------------------------------------------------------------------------
# the steppers
# ---------------------------------------------------------------------------

def _potential_is_zero(nl: NonlinearityKind) -> bool:
    """Whether V vanishes identically under ``nl``: free, or cubic with kappa = 0."""
    return nl.kind == "free" or (nl.kind == "cubic" and nl.kappa == 0.0)


def _lam(grid: RadialGrid, dt: float) -> float:
    """lam = dt/(4 dr^2) of the Crank–Nicolson system of one grid and dt,
    whose off-diagonal is -i lam and whose diagonal is 1 + 2i lam + i dt V/2.
    InvalidArgumentError where the grid has fewer than 5 nodes or 2 lam
    overflows a double."""
    # scipy's zgtsv wrapper needs three interior unknowns
    check_count("n_points", grid.n_points, 5)
    dr = grid.spacing
    lam = dt / (4.0 * dr * dr)
    if not math.isfinite(2.0 * lam):
        raise _non_finite_system()
    return lam


def _non_finite_system() -> InvalidArgumentError:
    return InvalidArgumentError(
        "dt is too large: the Crank–Nicolson system is not finite, because "
        "dt/dr^2 or dt times the potential overflows a double")


def _turn(theta: np.ndarray, g: int) -> np.ndarray:
    """exp(-2i g theta) - 1, accurate where g theta is small."""
    angle = g * theta
    return -2.0 * np.sin(angle) ** 2 - 1j * np.sin(2.0 * angle)


@lru_cache(maxsize=8)
def _sine_spectrum(grid: RadialGrid, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays that every V = 0 run of one grid and dt shares:
    theta_k, the outer-end term and the one-step :func:`_turn` (see
    :class:`_SineModes`)."""
    lam = _lam(grid, dt)
    n = grid.n_points - 2
    k = np.arange(1, n + 1)
    half = np.pi * k / (2.0 * (n + 1))
    with np.errstate(over="ignore"):  # where 4 lam overflows, atan(inf) = pi/2
        theta = np.arctan(4.0 * lam * np.sin(half) ** 2)
    # The first step's right-hand side also carries i lam u[-1] at the last
    # interior node.  Over 1 - i beta_k, its DST-I is u[-1] times
    # i (-1)^(k+1) cot(half) sin(theta) e^(i theta) / 2, a form free of lam;
    # edge is that times the fft's -2i, to be added to the fft of u.
    odd = np.where(k % 2 == 1, 1.0, -1.0)
    edge = odd / np.tan(half) * np.sin(theta) * np.exp(1j * theta)
    arrays = (theta, edge, _turn(theta, 1))
    for a in arrays:
        a.setflags(write=False)
    return arrays


class _SineModes:
    """The DST-I modes of one V = 0 run, which jump from step to step.

    With lam = dt/(4 dr^2) and N = n_points - 2 interior nodes, a
    Crank–Nicolson step multiplies mode k of u by
    (1 - i beta_k)/(1 + i beta_k) = exp(-2i theta_k), where
    theta_k = atan beta_k = atan(4 lam sin^2(pi k / 2(N+1))), and g steps
    multiply it by exp(-2i g theta_k).  A jump adds the modes times
    exp(-2i g theta_k) - 1, formed from sines: a product with the rounded
    phase shifts every modulus alike at each step, a norm drift of 1e-14
    over 1000 steps.  The DST-I is one fft of the odd extension
    [0, x, 0, -x[::-1]]; the modes are scaled so that the same fft of
    theirs returns u, and the run keeps its buffers."""

    def __init__(self, grid: RadialGrid, dt: float, u: np.ndarray):
        self.theta, edge, turn = _sine_spectrum(grid, dt)
        n = grid.n_points - 2
        self._turns = {1: turn}
        self._product = np.empty(n, dtype=np.complex128)
        self._ext = np.zeros(2 * n + 2, dtype=np.complex128)
        self._spec = np.empty_like(self._ext)
        self.modes = -0.5 / (n + 1) * (self._transform(u[1:-1]) + edge * u[-1])

    def _transform(self, x: np.ndarray) -> np.ndarray:
        """Rows 1..N of the fft of x's odd extension: -2i times its DST-I."""
        n = len(x)
        self._ext[1:n + 1] = x
        np.negative(x[::-1], out=self._ext[n + 2:])
        np.fft.fft(self._ext, out=self._spec)
        return self._spec[1:n + 1]

    def jump(self, g: int) -> np.ndarray:
        """The modes advanced by g steps, and the u they are, a fresh array."""
        turn = self._turns.get(g)
        if turn is None:
            turn = self._turns[g] = _turn(self.theta, g)
        self.modes += np.multiply(self.modes, turn, out=self._product)
        u = np.zeros(len(self.modes) + 2, dtype=np.complex128)
        u[1:-1] = self._transform(self.modes)
        return u


def _solve(u: np.ndarray, v: np.ndarray, lam: float, dt: float) -> np.ndarray:
    """The midpoint y = (u + u')/2 of the Crank–Nicolson step u -> u',
    y = A^-1 u with A = I + i dt H/2 and H = -(1/2) d^2/dr^2 + V on the
    interior nodes, Dirichlet ends and the potential samples v frozen;
    lam is :func:`_lam`, and u' = 2 y - u.  The old outer end enters the
    last interior row of (2 - A) u as i lam u[-1], so y carries half of it
    there, and y[-1] = u[-1]/2 lies between it and the new end's 0; u[0]
    is 0, as on every state, and so is y[0].  One zgtsv call factors the
    matrix and back-substitutes in one pass, writing y over a copy of u in
    the interior of the returned array; u and v are left as they are."""
    # imported here, not at module top, so that commands that never call
    # LAPACK do not pay scipy's import
    from scipy.linalg import lapack

    out = np.array(u, dtype=np.complex128)
    rhs = out[1:-1]
    # an overflow here is refused before any LAPACK call, so numpy's
    # warning about it is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.multiply(0.5j * dt, v[1:-1])
        np.add(1.0 + 2.0j * lam, diag, out=diag)
        rhs[-1] += 0.5j * lam * out[-1]
    out[-1] *= 0.5
    # a complex is finite where both its parts are
    if not (np.isfinite(diag.view(np.float64)).all() and np.isfinite(rhs[-1])):
        raise _non_finite_system()
    # zgtsv overwrites both off-diagonals, so each is a fresh row, like
    # the diagonal; f2py passes all four arrays to LAPACK uncopied
    lower, upper = np.full((2, len(u) - 3), -1.0j * lam)
    *_, x, info = lapack.zgtsv(lower, diag, upper, rhs, overwrite_dl=1,
                               overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:  # > 0 is an exactly zero pivot, < 0 an illegal argument
        raise np.linalg.LinAlgError(f"zgtsv returned info = {info}")
    if x is not rhs:
        rhs[...] = x
    return out


def _carried(state: RadialState, nl: NonlinearityKind, dt: float) -> Optional[np.ndarray]:
    """The phi^{n-1/2} that ``state`` carries for a step of ``nl`` and
    ``dt``, or None where the relaxation starts afresh: at a start, or from
    a state that a run of another nonlinearity or dt made."""
    if state._relaxation is None:
        return None
    phi, made_by_nl, made_by_dt = state._relaxation
    return phi if (made_by_nl, made_by_dt) == (nl, dt) else None


# a certificate clears the guard's 0.5 only 1e-6 of it below: far above the
# n eps rounding of the two cumsums in each Poisson solve it stands for
_CERTIFIED_BELOW = 0.5 * (1.0 - 1e-6)


def _certificate(ev: _Evaluation, mid: _Evaluation, phi: np.ndarray, scale: float) -> float:
    """(w . |Delta| + max|V[u] - phi|) / ``scale``, an upper bound on both
    halves of :func:`_advance`'s gravity guard formed from the densities
    alone: V is linear in its source 4 pi rho / norm, so V_mid - V[u] is
    the potential of Delta = 4 pi (rho_mid / N_mid - rho / N), which the
    kernel's origin weights w bound.  NaN where it is undefined: under a
    cubic nonlinearity, whose guard stays exact and pointwise, and at a
    midpoint norm that is not > 0.  An infinite or NaN certificate clears
    nothing, and forming it warns of nothing."""
    if ev.nl.kind != "gravity" or not mid.norm > 0.0:
        return math.nan
    rho_mid, rho = mid.density, ev.density
    with np.errstate(all="ignore"):
        delta = np.multiply(rho_mid, mid.coupling)
        np.subtract(delta, np.multiply(rho, ev.coupling), out=delta)
        bound = float(np.dot(ev.grid._poisson_origin_weights, np.abs(delta, out=delta)))
        if phi is not ev.v:  # phi = V[u] on a run's first step
            np.subtract(ev.v, phi, out=delta)
            bound += float(np.abs(delta, out=delta).max())
        return bound / scale


def _advance(ev: _Evaluation, dt: float, lam: float,
             carried: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of :func:`step` and :func:`evolve` where V is not zero:
    ``ev.u`` advanced by dt under ``ev.nl`` in one Crank–Nicolson solve
    with the relaxed potential phi = 2 V[u] - carried (V[u] itself where
    ``carried`` is None), and that phi, which the next step carries.  V[u]
    is ``ev.v``, so an observation of the same state shares it.
    StepRejectedError where V at the step's midpoint (u + u')/2, which the
    solve returns, differs from V[u], or from phi, by more than half of
    max|V[u]|.

    Under gravity, by the shell theorem, max|V_mid - V[u]| <= w . |Delta|
    and max|V_mid - phi| <= w . |Delta| + max|V[u] - phi|
    (:func:`_certificate`).  Where that sum is at most 0.5 (1 - 1e-6)
    max|V[u]|, the exact test cannot exceed 0.5, and the midpoint's
    potential is not solved.  Elsewhere, and always under the cubic
    potential, the exact test runs."""
    u, v_old = ev.u, ev.v
    if carried is None:
        phi = v_old
    else:
        phi = np.multiply(2.0, v_old)
        np.subtract(phi, carried, out=phi)
    u_mid = _solve(u, phi, lam, dt)
    u_new = np.multiply(2.0, u_mid)
    np.subtract(u_new, u, out=u_new)
    mid = _Evaluation(ev.grid, u_mid, ev.nl)

    work = np.abs(v_old)
    scale = float(work.max())
    if scale > 0.0 and not _certificate(ev, mid, phi, scale) <= _CERTIFIED_BELOW:
        v_mid = mid.v
        change = 0.0
        for reference in (v_old, phi):  # one and the same on a run's first step
            np.subtract(v_mid, reference, out=work)
            change = max(change, float(np.abs(work, out=work).max()) / scale)
        if change > 0.5:
            raise StepRejectedError(change, dt, 0.25 * dt / change)
    return u_new, phi


def step(state: RadialState, dt: float, nl: NonlinearityKind) -> RadialState:
    """Advance one Crank–Nicolson step under the relaxed potential
    phi^{n+1/2} = 2 V[psi^n] - phi^{n-1/2}, extrapolating from the phi the
    state carries where the same nl and dt made it, and from V[psi^n]
    otherwise, so that a run's first step solves with V[psi^n] itself;
    the new state carries phi^{n+1/2}, and ``step`` called n times ends on
    the bits of ``evolve`` over n steps.  Where V is identically zero, the
    step is one jump of the sine modes and carries nothing.

    Raises
    ------
    StepRejectedError
        When the potential at the step's midpoint differs from the starting
        potential, or from the relaxed one the solve used, by more than 50%
        of the starting potential's sup norm; the error carries the larger
        change and a suggested smaller dt aiming at a 25% change.
    """
    check_positive("dt", dt)
    if _potential_is_zero(nl):
        u = _SineModes(state.grid, dt, state.u).jump(1)
        return RadialState(state.grid, u, state.time + dt)
    u, phi = _advance(_Evaluation(state.grid, state.u, nl), dt, _lam(state.grid, dt),
                      _carried(state, nl, dt))
    stepped = RadialState(state.grid, u, state.time + dt)
    object.__setattr__(stepped, "_relaxation", (phi, nl, dt))
    return stepped


def evolve(state: RadialState, t_final: float, dt: float, nl: NonlinearityKind,
           observe_every: int = 1,
           snapshot_every: Optional[int] = None) -> ObservableSeries:
    """Step from state.time to t_final, recording norm, energy,
    and RMS width every ``observe_every`` steps (plus start and end), and
    density snapshots every ``snapshot_every`` steps when requested.  Each
    step is :func:`step`'s relaxation step, carrying phi^{n-1/2} from one
    step to the next and starting from the one ``state`` carries where the
    same nl and dt made it, so that k ``step`` calls and an ``evolve`` over
    the remaining steps end on the bits of one ``evolve``; it raises
    StepRejectedError as ``step`` does.  Where V is identically zero, the
    sine modes jump from one recorded step to the next.

    The recorded energy is scheme_energy — the discrete functional the
    stepper conserves.  An observable that is not finite raises
    InvalidArgumentError naming it.  Warns once, when the run is complete,
    if |psi| near the outer boundary exceeded 1e-8 of its peak at an
    observed step (domain too small for strict norm conservation).
    """
    check_positive("dt", dt)
    check_positive("t_final - state.time", t_final - state.time)
    check_count("observe_every", observe_every, 1)
    if snapshot_every is not None:
        check_count("snapshot_every", snapshot_every, 1)
    span = (t_final - state.time) / dt
    if span == math.inf:
        raise InvalidArgumentError(f"t_final = {t_final!r} is too many steps of dt = {dt!r} away")
    n_steps = int(round(span))
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
    free = _potential_is_zero(nl)
    if not free:
        lam, phi = _lam(grid, dt), _carried(state, nl, dt)
    time = state.time
    ev = _Evaluation(grid, state.u, nl)
    observe(time, ev)
    if snapshot_every is not None:
        snaps.append((time, RadialField(grid, ev.density)))
    if free:
        sine, jumped_to = _SineModes(grid, dt, state.u), 0

    # decided at each observed step, warned once the run is complete: a run
    # refused part-way has no domain to enlarge
    at_boundary = False
    for k in range(1, n_steps + 1):
        time += dt
        observed = k % observe_every == 0 or k == n_steps
        snapped = snapshot_every is not None and k % snapshot_every == 0
        if not free:
            u, phi = _advance(ev, dt, lam, phi)
        elif observed or snapped:
            u = sine.jump(k - jumped_to)
            jumped_to = k
        else:
            continue
        ev = _Evaluation(grid, u, nl)
        if observed:
            observe(time, ev)
            if not at_boundary:  # |psi| past 1e-8 of its peak
                at_boundary = ev.density[-2] > 1e-16 * float(ev.density.max())
        if snapped:
            snaps.append((time, RadialField(grid, ev.density)))
    if at_boundary:
        warnings.warn(
            "wavefunction amplitude at the outer boundary exceeds "
            "1e-8 of its peak; enlarge the domain for strict norm "
            "conservation",
            stacklevel=2,
        )

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
