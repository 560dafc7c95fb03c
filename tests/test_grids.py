"""Radial grid, quadrature, Laplacian, and Poisson-solver units."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.integrate import simpson

from sng.errors import InvalidArgumentError
from sng.grids import (
    RadialField,
    integrate_line,
    make_grid,
    psi_from_u,
    radial_laplacian,
    solve_radial_poisson,
)


# --- grid construction -------------------------------------------------------

def test_make_grid_basic_geometry():
    grid = make_grid(10.0, 11)
    assert grid.n_points == 11
    assert grid.spacing == pytest.approx(1.0)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(grid.nodes), grid.spacing)


def test_make_grid_rejects_degenerate_input():
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 101)
    with pytest.raises(InvalidArgumentError):
        make_grid(-3.0, 101)
    with pytest.raises(InvalidArgumentError):
        make_grid(10.0, 1)


def test_grids_hash_and_compare_by_geometry():
    assert make_grid(40.0, 8001) == make_grid(40.0, 8001)
    assert make_grid(40.0, 8001) != make_grid(40.0, 4001)
    assert len({make_grid(12.0, 101), make_grid(12.0, 101)}) == 1


# --- fields ------------------------------------------------------------------

def test_field_validates_shape_and_finiteness():
    grid = make_grid(5.0, 51)
    with pytest.raises(InvalidArgumentError):
        RadialField(grid, np.zeros(50))
    bad = np.zeros(51)
    bad[3] = np.nan
    with pytest.raises(InvalidArgumentError):
        RadialField(grid, bad)


def test_field_stores_integer_samples_as_doubles():
    field = RadialField(make_grid(5.0, 6), np.arange(6))
    assert field.values.dtype == np.float64
    assert field.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_field_values_are_write_protected():
    grid = make_grid(5.0, 51)
    field = RadialField(grid, np.ones(51))
    with pytest.raises(ValueError):
        field.values[0] = 7.0


# --- quadrature --------------------------------------------------------------

def test_integrate_line_is_exact_for_low_order_polynomials():
    # Simpson weights: exact for cubic integrands, here rho^2 and rho^3
    grid = make_grid(2.0, 81)
    rho = grid.nodes
    assert integrate_line(rho * rho, grid) == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert integrate_line(rho * rho * rho, grid) == pytest.approx(4.0, rel=1e-14)


def test_integrate_line_even_point_count_falls_back_gracefully():
    grid = make_grid(2.0, 80)
    rho = grid.nodes
    assert integrate_line(rho * rho, grid) == pytest.approx(8.0 / 3.0, rel=1e-3)


def test_integrate_line_gaussian_matches_closed_form():
    # int_0^inf exp(-rho^2) rho^2 drho = sqrt(pi)/4
    grid = make_grid(12.0, 2001)
    rho = grid.nodes
    assert integrate_line(np.exp(-rho**2) * rho * rho, grid) == pytest.approx(
        np.sqrt(np.pi) / 4.0, rel=1e-12)


@pytest.mark.parametrize("points", [3, 4, 5, 6, 2000, 2001])
def test_line_weights_are_the_closed_form(points):
    grid = make_grid(40.0, points)
    h, w = grid.spacing, grid._line_weights
    if points % 2:
        # h/3 (1, 4, 2, 4, ..., 2, 4, 1)
        pattern = np.where(np.arange(points) % 2 == 1, 4.0, 2.0)
        pattern[[0, -1]] = 1.0
        assert np.array_equal(w, h / 3.0 * pattern)
    else:
        # h (1/2, 1, ..., 1, 1/2)
        pattern = np.ones(points)
        pattern[[0, -1]] = 0.5
        assert np.array_equal(w, h * pattern)
    assert not w.flags.writeable
    assert grid._line_weights is w
    assert w.sum() == pytest.approx(grid.rho_max, rel=points * np.finfo(float).eps)


def _agrees_to_rounding(got, expected, values, grid):
    """got and expected agree within n eps sum|w_i y_i|: scipy's weights come
    from differences of the rounded nodes, node i within eps r_i/2 of i h,
    so they stray from the closed form by up to about i eps/2 at node i, and
    each sum rounds once per level."""
    bound = grid.n_points * np.finfo(float).eps * np.sum(np.abs(grid._line_weights * values))
    return abs(got - expected) <= bound


@pytest.mark.parametrize("points", [3, 5, 2001, 8001])
def test_integrate_line_is_bitwise_scipy_simpson_on_odd_grids(points):
    # scipy's non-uniform rule on the nodes is the reference, to rounding
    grid = make_grid(40.0, points)
    r = grid.nodes
    real = np.exp(-0.3 * r) * np.cos(2.0 * r) * r * r
    for values in (real, (0.5 - 1.5j) * real + 1j * np.sin(r)):
        got = integrate_line(values, grid)
        expected = simpson(values, x=grid.nodes)
        assert type(got) is (complex if np.iscomplexobj(values) else float)
        assert _agrees_to_rounding(got, expected, values, grid)
        assert np.signbit(got.real) == np.signbit(expected.real)


@pytest.mark.parametrize("points", [4, 2000])
def test_integrate_line_is_the_trapezoid_on_even_grids(points):
    grid = make_grid(40.0, points)
    r = grid.nodes
    real = np.exp(-0.3 * r) * np.cos(2.0 * r) * r * r
    for values in (real, (0.5 - 1.5j) * real):
        got = integrate_line(values, grid)
        assert type(got) is (complex if np.iscomplexobj(values) else float)
        assert _agrees_to_rounding(got, np.trapezoid(values, grid.nodes), values, grid)


@pytest.mark.parametrize("rho_max, points", [(30.0, 401), (60.0, 2001), (12.0, 4001),
                                             (40.0, 8001)])
def test_psi_from_u_is_the_division_by_r(rho_max, points):
    # complex and real u alike are divided by r, byte for byte, signed
    # zeros included
    grid = make_grid(rho_max, points)
    rng = np.random.default_rng(points)
    magnitude = 10.0 ** rng.uniform(-300.0, 300.0, size=(2, points))
    sign = rng.choice([-1.0, 1.0], size=(2, points))
    u = np.empty(points, dtype=np.complex128)
    u.real, u.imag = sign * magnitude
    u[1:12] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-300, -1e300j,
               5e-324, 1.0, -1.0, 1j, 1e300 + 1e-300j]
    u[0] = 0.0
    psi = psi_from_u(u, grid)
    expected = u[1:] / grid.nodes[1:]
    assert psi[1:].tobytes() == expected.tobytes()
    assert psi_from_u(u.real, grid)[1:].tobytes() == (u.real[1:] / grid.nodes[1:]).tobytes()


# --- Laplacian ---------------------------------------------------------------

def test_radial_laplacian_exact_on_quadratic():
    # (1/r^2) d/dr (r^2 d/dr) r^2 = 6 everywhere, origin included
    grid = make_grid(4.0, 401)
    lap = radial_laplacian(grid.nodes**2, grid)
    assert np.max(np.abs(lap - 6.0)) < 1e-8


def test_radial_laplacian_second_order_on_gaussian():
    errs = []
    for pts in (1001, 2001):
        grid = make_grid(10.0, pts)
        h = np.exp(-0.5 * grid.nodes**2)
        exact = (grid.nodes**2 - 3.0) * h
        lap = radial_laplacian(h, grid)
        errs.append(np.max(np.abs(lap - exact)[:-1]))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


# --- Poisson -----------------------------------------------------------------

def _ball_density(grid, edge, rho0=1.0):
    return np.where(grid.nodes < edge, rho0, 0.0)


def test_poisson_uniform_ball_closed_form():
    grid = make_grid(12.0, 2001)
    # edge mid-interval: the sharp cutoff is then exactly representable
    # by the piecewise-linear density the solver integrates
    edge = (np.floor(5.0 / grid.spacing) + 0.5) * grid.spacing
    coupling = 4.0 * np.pi
    phi = solve_radial_poisson(_ball_density(grid, edge), grid, coupling)
    r = grid.nodes
    inside = r < edge
    exact = np.where(
        inside,
        -2.0 * np.pi * (edge**2 - r**2 / 3.0),
        -(4.0 / 3.0) * np.pi * edge**3 / np.maximum(r, grid.spacing),
    )
    rel = np.abs(phi - exact) / np.abs(exact)
    assert rel.max() < 1e-4


def test_poisson_far_field_sees_total_mass():
    grid = make_grid(20.0, 2001)
    r = grid.nodes
    density = np.exp(-r * r)
    coupling = 4.0 * np.pi
    phi = solve_radial_poisson(density, grid, coupling)
    # beyond the support the potential is a pure 1/r: r*phi is constant
    # to roundoff (same internal mass measure at every exterior node)
    far = r >= 10.0
    r_phi = r[far] * phi[far]
    assert np.abs(r_phi - r_phi[-1]).max() < 1e-12 * abs(r_phi[-1])
    # and that constant is -M_total (quadrature-rule difference is O(dr^2))
    total_mass = 4.0 * np.pi * integrate_line(density * r * r, grid)
    assert r_phi[-1] == pytest.approx(-total_mass, rel=1e-4)


def test_poisson_is_linear_in_the_source():
    grid = make_grid(12.0, 1001)
    rng = np.random.default_rng(20260822)
    coupling = 4.0 * np.pi
    for _ in range(5):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        d1 = np.exp(-0.5 * grid.nodes**2) * (1.0 + 0.3 * np.sin(grid.nodes))
        d2 = grid.nodes**2 * np.exp(-((grid.nodes - 3.0) ** 2))
        combo = solve_radial_poisson(a * d1 + b * d2, grid, coupling)
        parts = (a * solve_radial_poisson(d1, grid, coupling)
                 + b * solve_radial_poisson(d2, grid, coupling))
        scale = np.abs(combo).max()
        assert np.abs(combo - parts).max() <= 1e-12 * max(scale, 1.0)


def test_poisson_discrete_laplacian_residual_refines_at_second_order():
    # the inverse must satisfy the forward operator to O(spacing^2)
    # uniformly, including the first nodes off the origin
    sups = []
    for pts in (1001, 2001):
        grid = make_grid(12.0, pts)
        density = np.exp(-0.5 * grid.nodes**2)
        coupling = 4.0 * np.pi
        phi = solve_radial_poisson(density, grid, coupling)
        resid = radial_laplacian(phi, grid) - coupling * density
        sups.append((grid.spacing, np.abs(resid[:-1]).max()))
    for spacing, sup in sups:
        assert sup <= 8.0 * spacing**2
    assert sups[0][1] / sups[1][1] == pytest.approx(4.0, rel=0.4)


# sha256 of the potential, recorded before the grid-only factors of the
# cell moments were cached on the grid
PINNED_POTENTIALS = {
    "ball": "7e64560424b2a55991ed370e1e18abbb7fec7bfd32c1db2723f23ce3f45d03ab",
    "signed": "a3bc534215add402d5646da81488109b518eedd18a48595e61c7a3f8b01d6e72",
}


def test_poisson_potentials_are_bitwise_pinned():
    grid = make_grid(10.0, 201)
    r = grid.nodes
    sources = {
        "ball": np.where(r <= 2.0, 1.0, 0.0),
        "signed": np.exp(-r * r) - 0.3 * np.exp(-(r - 3.0) ** 2),
    }
    for name, source in sources.items():
        phi = solve_radial_poisson(source, grid, 4.0 * np.pi)
        assert hashlib.sha256(phi.tobytes()).hexdigest() == PINNED_POTENTIALS[name], name
        # a second solve on the same grid object reads the same values
        again = solve_radial_poisson(source, grid, 4.0 * np.pi)
        assert np.array_equal(phi, again)


def test_poisson_rejects_bad_coupling_and_complex_sources():
    grid = make_grid(5.0, 101)
    with pytest.raises(InvalidArgumentError, match="coupling must be finite"):
        solve_radial_poisson(np.ones(101), grid, np.inf)
    with pytest.raises(InvalidArgumentError, match="must be real"):
        solve_radial_poisson(np.ones(101) + 1j, grid, 4.0 * np.pi)


@pytest.mark.parametrize("source, refusal", [
    (np.ones(100), "has \\(100,\\) samples, grid has 101 nodes"),
    (np.r_[np.ones(100), np.nan], "non-finite samples"),
    (np.r_[np.ones(100), np.inf], "non-finite samples"),
], ids=["length", "nan", "inf"])
def test_poisson_refuses_a_source_off_the_grid_or_not_finite(source, refusal):
    # the checks a RadialField of the source made before the kernel took samples
    with pytest.raises(InvalidArgumentError, match=refusal):
        solve_radial_poisson(source, make_grid(5.0, 101), 4.0 * np.pi)
