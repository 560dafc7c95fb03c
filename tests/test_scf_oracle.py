"""Self-consistent-field oracle: fixed-point structure and cross-route accuracy.

The SCF route (frozen-potential tridiagonal eigensolve + Poisson update
with Anderson mixing) shares no discretization choices with the shooting
route beyond the grid itself, so agreement validates both.
"""

from __future__ import annotations

import numpy as np
import pytest

from sng.checks import _natural_profile
from sng.errors import ConvergenceError
from sng.grids import integrate_line, make_grid
from sng.scf import scf_solve

GAMMA0_GROUND = -0.9185797718
GAMMA0_FIRST = -1.2099590044


@pytest.fixture(scope="module")
def scf_ground():
    return scf_solve(0, make_grid(40.0, 2001))


def test_scf_converges_with_margin(scf_ground):
    assert scf_ground.iterations < 400
    assert scf_ground.n == 0


def test_scf_state_is_normalized(scf_ground):
    # f is the radial wavefunction; its square integrates to one
    f, grid = scf_ground.f.values, scf_ground.f.grid
    r = grid.nodes
    assert 4.0 * np.pi * integrate_line(f * f * r * r, grid) == pytest.approx(1.0, rel=1e-6)


def test_scf_eigenvalue_is_bound(scf_ground):
    assert scf_ground.epsilon < 0.0


def test_scf_potential_is_negative_and_monotone(scf_ground):
    phi = scf_ground.phi.values
    assert phi[0] < 0.0
    assert np.all(np.diff(phi) >= 0.0)


def test_scf_recovers_ground_state_central_value(scf_ground):
    assert scf_ground.gamma0 == pytest.approx(GAMMA0_GROUND, rel=1e-3)


def test_scf_excited_state_has_one_node():
    result = scf_solve(1, make_grid(40.0, 2001))
    f = result.f.values
    signs = np.sign(f[np.abs(f) > 1e-10 * np.abs(f).max()])
    assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1
    # the central-value recovery goes through f(0) of a steep excited core,
    # so it is grid-hungry: ~4e-3 at this coarse grid, 4e-6 on the 4001-point
    # grid the oracle suite checks at the 1e-3 gate bound
    assert result.gamma0 == pytest.approx(GAMMA0_FIRST, rel=1e-2)


def test_scf_impossible_tolerance_raises():
    with pytest.raises(ConvergenceError):
        scf_solve(0, make_grid(40.0, 1001), tol=0.0, max_iter=5)


@pytest.mark.parametrize("n", [0, 1])
def test_scf_reaches_the_fixed_point_in_few_sweeps_on_the_oracle_grids(n):
    # the oracle suite's grids; half-and-half linear mixing took 91 and 102
    # sweeps there and stopped 1.3e-10 short of the tol = 1e-14 fixed point
    grid = _natural_profile(n, 40.0, 4001).f_ag.grid
    result = scf_solve(n, grid)
    tight = scf_solve(n, grid, tol=1e-14).gamma0
    assert result.iterations <= 30
    assert abs(result.gamma0 / tight - 1.0) <= 1e-11


def test_suite_rows_meet_their_bounds(oracle_suite_rows):
    # acceptance-tolerance comparison on matched grids, both states
    by_name = {r.name: r for r in oracle_suite_rows}
    assert set(by_name) == {"gamma0_n0", "density_n0", "gamma0_n1", "density_n1"}
    for row in oracle_suite_rows:
        assert row.passed, f"{row.name}: {row.measured:.3e} vs {row.bound:.3e}"
    # the n=0 agreement is comfortably an order under the gate bound
    assert by_name["gamma0_n0"].measured < 1e-4
    assert by_name["density_n0"].measured < 1e-4
