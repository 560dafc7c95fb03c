"""Uniform radial grids, spherically symmetric quadrature, the reduced
wavefunction u = r psi, and the radial Poisson solver.

Conventions: a radial coordinate r >= 0 sampled uniformly with r[0] = 0.
Kernels take samples and their grid; a :class:`RadialField` is a stored
field.  Every line integral is :func:`integrate_line`, a sum over the
grid's node weights; a volume integral of a spherically symmetric function
is ``integrate_line(h * r * r, grid)`` (the 4*pi is the caller's business).
The Poisson solver returns the shell-theorem potential of a compactly
supported source, with the field treated as zero beyond the grid and
Phi -> 0 at infinity.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, check_count, check_positive

__all__ = [
    "RadialGrid",
    "RadialField",
    "make_grid",
    "integrate_line",
    "psi_from_u",
    "solve_radial_poisson",
    "radial_laplacian",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform samples of the radial coordinate on [0, rho_max].

    The extent and the point count are the whole grid: equality and hash
    are those of the pair, and the read-only ``nodes`` array, the read-only
    node weights of :func:`integrate_line`, the Poisson weights and the
    squared nodes and their reciprocals are derived from it once per grid
    object.  Build grids with :func:`make_grid`, which validates the pair.
    """

    rho_max: float
    n_points: int

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, self.rho_max, self.n_points)
        nodes.setflags(write=False)
        return nodes

    @property
    def spacing(self) -> float:
        return self.rho_max / (self.n_points - 1)

    @cached_property
    def _line_weights(self) -> np.ndarray:
        """The node weights of :func:`integrate_line`: composite Simpson
        h/3 (1, 4, 2, 4, ..., 2, 4, 1) on odd point counts, the trapezoid
        h (1/2, 1, ..., 1, 1/2) on even ones."""
        n, h = self.n_points, self.spacing
        if n % 2:
            w = np.r_[1.0, np.tile([4.0, 2.0], n // 2 - 1), 4.0, 1.0] * (h / 3.0)
        else:
            w = np.r_[0.5, np.ones(n - 2), 0.5] * h
        w.setflags(write=False)
        return w

    @cached_property
    def _squared_nodes(self) -> np.ndarray:
        """r * r at the nodes, for the RMS width's int r^2 |u|^2 dr."""
        r = self.nodes
        return r * r

    @cached_property
    def _reciprocal_squared_nodes(self) -> np.ndarray:
        """1/r^2 at the nodes past the origin, read-only: |psi|^2 = |u|^2 / r^2."""
        w = 1.0 / self._squared_nodes[1:]
        w.setflags(write=False)
        return w

    def _origin_limit(self, f1, f2):
        """f(0) of an even f from f at the first two nodes past r = 0."""
        r1, r2 = self._squared_nodes[1:3]
        return (f1 * r2 - f2 * r1) / (r2 - r1)

    @cached_property
    def _poisson_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Grid-only factors of the per-cell moments in
        :func:`solve_radial_poisson`: the r^3 and r^2 cell differences and
        the weights of the in-cell density slope."""
        r = self.nodes
        dr = self.spacing
        r_lo = r[:-1]
        return (
            np.diff(r**3),
            np.diff(r**2),
            r_lo * r_lo * dr / 2.0 + 2.0 * r_lo * dr * dr / 3.0 + dr**3 / 4.0,
            r_lo * dr / 2.0 + dr * dr / 3.0,
        )

    @cached_property
    def _poisson_origin_weights(self) -> np.ndarray:
        """The non-negative node weights w of :func:`solve_radial_poisson`
        at the origin, where Phi(0) = -coupling * (w . rho): int s rho ds
        over each cell puts d_r2/2 - outer_slope on its low node and
        outer_slope on its high node.  The kernel weighs a cell's
        piecewise-linear density by s^2/r <= s inside r and by s outside,
        so by the shell theorem max|Phi| <= |coupling| * (w . |rho|) for
        every signed source."""
        _, d_r2, _, outer_slope = self._poisson_weights
        w = np.zeros(self.n_points)
        w[:-1] = d_r2 / 2.0 - outer_slope
        w[1:] += outer_slope
        w.setflags(write=False)
        return w


@dataclass(frozen=True, eq=False)
class RadialField:
    """Real or complex samples of a radial function, one per grid node."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = _samples("field", self.values, self.grid)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)


def _samples(name: str, values, grid: RadialGrid) -> np.ndarray:
    """``values`` as an array of one finite sample per node of ``grid``,
    integers as doubles; InvalidArgumentError naming ``name`` otherwise."""
    values = np.asarray(values)
    if values.dtype.kind not in "fc":
        values = values.astype(np.float64)
    if values.shape != (grid.n_points,):
        raise InvalidArgumentError(
            f"{name} has {values.shape} samples, grid has {grid.n_points} nodes")
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"{name} contains non-finite samples")
    return values


def make_grid(rho_max: float, n_points: int) -> RadialGrid:
    """Build a uniform radial grid on [0, rho_max] with n_points samples.

    Parameters
    ----------
    rho_max : float
        Outer radius, strictly positive.
    n_points : int
        Number of samples including both endpoints; at least 3.  Odd counts
        weigh the nodes by composite Simpson in :func:`integrate_line`,
        even counts by the trapezoid.

    Raises
    ------
    InvalidArgumentError
        If rho_max is not a positive finite number, n_points is not an
        integer >= 3, or the spacing between them is below the smallest
        normal double (a shot divides by it).
    """
    rho_max, n_points = check_positive("rho_max", rho_max), check_count("n_points", n_points, 3)
    if rho_max / (n_points - 1) < sys.float_info.min:
        raise InvalidArgumentError(f"rho_max {rho_max!r} over {n_points} points spaces "
                                   "them below the smallest normal double")
    return RadialGrid(rho_max, n_points)


def integrate_line(values: np.ndarray, grid: RadialGrid) -> float | complex:
    """Plain quadrature of int v(r) dr: the dot product of the samples with
    the grid's node weights (composite Simpson on odd point counts, the
    trapezoid otherwise); complex samples give a complex value.  numpy's
    pairwise sum keeps one order, where ``np.dot``'s BLAS sum changes its
    order with the CPU kernel and, past 10,000 points, the thread count."""
    result = (values * grid._line_weights).sum()
    return complex(result) if np.iscomplexobj(result) else float(result)


def psi_from_u(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """psi = u/r with the even-function quadratic limit at the origin."""
    psi = np.empty_like(u)
    np.divide(u[1:], grid.nodes[1:], out=psi[1:])
    psi[0] = grid._origin_limit(psi[1], psi[2])
    return psi


def solve_radial_poisson(density: np.ndarray, grid: RadialGrid, coupling: float) -> np.ndarray:
    """Solve lap(Phi) = coupling * density in spherical symmetry.

    Shell theorem: Phi(r) = -(coupling/4pi) * [ (4pi/r) int_0^r s^2 rho ds
    + 4pi int_r^inf s rho ds ], with the source zero beyond the grid and
    Phi -> 0 at infinity.  The origin uses the limit
    Phi(0) = -coupling * int_0^inf s rho ds, which removes the 1/r
    singularity.  Both running integrals accumulate exact per-cell moments
    of the piecewise-linear density, which keeps the discrete Laplacian
    residual second order all the way to the origin (trapezoid cells do
    not).

    Parameters
    ----------
    density : np.ndarray
        Real source samples on ``grid``; signed sources are allowed.
    grid : RadialGrid
    coupling : float
        Constant multiplying the source (e.g. 4*pi*G*m for a mass density).

    Returns
    -------
    np.ndarray
        The potential on the same grid.

    Raises
    ------
    InvalidArgumentError
        If the density is complex, has the wrong number of samples, or has
        a non-finite sample, or if the coupling is not finite.
    """
    rho = _samples("Poisson source", density, grid)
    if np.iscomplexobj(rho):
        raise InvalidArgumentError("Poisson source must be real")
    if not np.isfinite(coupling):
        raise InvalidArgumentError(f"coupling must be finite, got {coupling}")
    r = grid.nodes
    # exact per-cell moments of the piecewise-linear density; plain
    # trapezoid cells are badly biased near the origin, where the s^2*rho
    # integrand bends within a single cell, and the bias does not shrink
    # with refinement once divided by r
    d_r3, d_r2, inner_slope, outer_slope = grid._poisson_weights
    drho = np.subtract(rho[1:], rho[:-1])  # np.diff(rho), without its Python layer
    cells, slope_term = np.empty_like(drho), np.empty_like(drho)

    def cell_moments(d_rk, k, slope):
        """rho[:-1] * d_rk / k + drho * slope, into ``cells``."""
        np.multiply(rho[:-1], d_rk, out=cells)
        np.divide(cells, k, out=cells)
        return np.add(cells, np.multiply(drho, slope, out=slope_term), out=cells)

    # running sums from the origin out, and from the edge in
    inner = np.empty(len(rho))
    inner[0] = 0.0
    np.cumsum(cell_moments(d_r3, 3.0, inner_slope), out=inner[1:])
    outer = np.empty(len(rho))
    outer[-1] = 0.0
    np.cumsum(cell_moments(d_r2, 2.0, outer_slope)[::-1], out=outer[-2::-1])
    # phi = -coupling (inner / r + outer), built in place in inner
    phi, tail = inner, inner[1:]
    phi[0] = -coupling * outer[0]
    np.divide(tail, r[1:], out=tail)
    np.add(tail, outer[1:], out=tail)
    np.multiply(-coupling, tail, out=tail)
    return phi


def radial_laplacian(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Discrete radial Laplacian h'' + (2/r) h' of the samples v of h on ``grid``.

    Three-point central differences in the interior; the origin uses the
    even-extension limit lap(h)(0) = 3 h''(0) = 6 (h[1]-h[0]) / dr^2; the
    outer endpoint uses one-sided differences (lower order — mask it off in
    convergence studies).
    """
    r = grid.nodes
    dr = grid.spacing
    lap = np.empty_like(v)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dr**2
    d1 = (v[2:] - v[:-2]) / (2.0 * dr)
    lap[1:-1] = d2 + 2.0 * d1 / r[1:-1]
    lap[0] = 6.0 * (v[1] - v[0]) / dr**2
    d2_end = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dr**2
    d1_end = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dr)
    lap[-1] = d2_end + 2.0 * d1_end / r[-1]
    return lap
