"""Self-consistent-field oracle: an independent route to the bound states.

Instead of shooting on the universal system, iterate the physical fixed
point directly on u(r) = r f(r), in units of a_g (see :mod:`sng.physical`):

    -(1/2) u'' + V u = eps u,      lap V = 4 pi f^2,

alternating a frozen-potential tridiagonal eigensolve (selecting the n-th
eigenpair) with a Poisson update of the potential.  The eigensolve is
scipy's eigh_tridiagonal, which calls LAPACK; scf_solve imports it when
it runs, not at module top, so that importing sng loads no scipy.  Each
sweep's input potential is Anderson-mixed (D. G. Anderson, J. ACM 12,
547 (1965)) from the last few inputs and their Poisson residuals, which
reaches the fixed point in far fewer sweeps than plain half-and-half
mixing (16 and 17 against 91 and 102 for n = 0 and 1 on the oracle
suite's grids).
The converged state maps back to the universal normalization through
f*(0) = 1, giving gamma0 (see SCFResult.gamma0) for direct comparison
with the shooting route.  Nothing here shares algorithmic structure with
the shooting module beyond the Poisson quadrature.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidArgumentError, check_count
from .grids import RadialField, RadialGrid, integrate_line, psi_from_u, solve_radial_poisson

__all__ = ["SCFResult", "scf_solve"]

# Anderson's damping beta: the share of each sweep's Poisson residual
# added to its input potential before the history correction.
_MIX = 0.5
# Differences between consecutive sweeps' (input, residual) pairs that the
# Anderson correction fits: the last six sweeps give five.
_DEPTH = 5


@dataclass(frozen=True)
class SCFResult:
    """Converged fixed point of the eigensolve/Poisson iteration."""

    n: int
    f: RadialField          # unit-norm radial wavefunction
    phi: RadialField        # potential energy V sourced by f^2
    epsilon: float          # n-th eigenvalue in that potential
    iterations: int

    @property
    def gamma0(self) -> float:
        """The state's g*(0) in the universal normalization.

        The amplitude mapping f(r) = f(0) f*(beta r) with f*(0) = 1 and
        unit norm fixes beta^4 = 8 pi f(0)^2 (a_g = 1); the central value
        follows from the radial equation at the origin:
        gamma0 = (2/beta^2) (V(0) - eps)."""
        f0 = float(self.f.values[0])
        beta = (8.0 * np.pi * f0 * f0) ** 0.25
        return 2.0 * (float(self.phi.values[0]) - self.epsilon) / beta**2


def scf_solve(n: int, grid: RadialGrid, *, tol: float = 1e-10, max_iter: int = 400) -> SCFResult:
    """Iterate eigensolve + Poisson update to the n-th bound state, from a
    normalized Gaussian of width rho_max/12.  Each sweep's potential is
    Anderson-mixed: half of the Poisson residual is added to the input,
    corrected by a least-squares fit over the last six sweeps' inputs and
    residuals.

    Parameters
    ----------
    n : int
        Radial quantum number (eigenvalue index in the frozen potential).
    grid : RadialGrid
        Grid in units of a_g; must extend well past the state's support.
    tol : float
        Relative eigenvalue stall threshold, non-negative; the potential
        must also settle to 100*tol relative.
    max_iter : int
        Sweep budget, at least 1.

    Raises
    ------
    InvalidArgumentError
        If n is not a non-negative integer, max_iter not a positive
        integer, or tol negative or not finite.
    ConvergenceError
        If the fixed point is not reached within max_iter sweeps.
    """
    check_count("n", n, 0)
    max_iter = check_count("max_iter", max_iter, 1)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidArgumentError(f"tol must be non-negative and finite, got {tol!r}")
    # imported here, not at module top, so that commands that never call
    # LAPACK do not pay scipy's import
    from scipy.linalg import eigh_tridiagonal

    r = grid.nodes
    dr = grid.spacing

    sigma = grid.rho_max / 12.0
    f = np.exp(-r * r / (2.0 * sigma * sigma))
    f /= np.sqrt(4.0 * np.pi * integrate_line(f * f * r * r, grid))

    kin_diag = 1.0 / (dr * dr)
    kin_off = np.full(grid.n_points - 3, -1.0 / (2.0 * dr * dr))

    def eigenstate(phi: np.ndarray) -> tuple[float, np.ndarray]:
        """n-th eigenvalue in the frozen phi and its unit-norm f, u's lead lobe positive."""
        w, v = eigh_tridiagonal(kin_diag + phi[1:-1], kin_off,
                                select="i", select_range=(n, n))
        u = np.zeros(grid.n_points)
        u[1:-1] = v[:, 0]
        lead = int(np.argmax(np.abs(u) > 1e-3 * np.max(np.abs(u))))
        if u[lead] < 0.0:
            u = -u
        u = u / np.sqrt(4.0 * np.pi * integrate_line(u * u, grid))
        return float(w[0]), psi_from_u(u, grid).real

    history = deque(maxlen=_DEPTH + 1)  # (input potential, Poisson residual)
    phi_mix = None
    eps_prev = None
    eps = np.nan
    for it in range(1, max_iter + 1):
        phi_new = solve_radial_poisson(f * f, grid, 4.0 * np.pi)
        phi_mix = phi_new if phi_mix is None else _anderson(history, phi_mix, phi_new)
        eps, f = eigenstate(phi_mix)
        dphi = np.max(np.abs(phi_mix - phi_new)) / np.max(np.abs(phi_new))
        if (eps_prev is not None
                and abs(eps - eps_prev) <= tol * abs(eps)
                and dphi <= 100.0 * tol):
            break
        eps_prev = eps
    else:
        raise ConvergenceError(
            f"SCF did not settle in {max_iter} sweeps (eigenvalue {eps:.6e})"
        )

    # one polishing eigensolve in the unmixed potential of the converged density
    phi_final = solve_radial_poisson(f * f, grid, 4.0 * np.pi)
    eps, f = eigenstate(phi_final)
    return SCFResult(
        n=n,
        f=RadialField(grid, f),
        phi=RadialField(grid, phi_final),
        epsilon=eps,
        iterations=it,
    )


def _anderson(history: deque, phi_in: np.ndarray, phi_out: np.ndarray) -> np.ndarray:
    """Anderson's next input potential after ``phi_in``, whose Poisson
    update is ``phi_out``; appends this sweep to ``history``.

    With the residual F = phi_out - phi_in and the columns dX, dF of
    consecutive input and residual differences in ``history``, gamma is
    the least-squares solution of dF gamma = F, and the next input is
    phi_in + beta F - (dX + beta dF) gamma."""
    residual = phi_out - phi_in
    history.append((phi_in, residual))
    mixed = phi_in + _MIX * residual
    if len(history) > 1:
        inputs, residuals = (np.diff(np.array(a), axis=0).T for a in zip(*history))
        gamma = np.linalg.lstsq(residuals, residual, rcond=None)[0]
        mixed -= (inputs + _MIX * residuals) @ gamma
    return mixed

