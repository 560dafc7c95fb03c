"""Universal bound-state solver: node-count brackets, tail-matched bisection,
frozen spectrum.

The frozen table below was computed by this package on the default grid;
its central values agree with bisection on domains of rho_max = 80 and 120
(LARGE_DOMAIN_GAMMA0), and its energies with the published ones
(Moroz, Penrose & Tod, Class. Quantum Grav. 15, 2733 (1998)).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from sng.checks import _solved
from sng import shooting
from sng.errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidBracketError,
    SngError,
    WrongStateError,
)
from sng.grids import RadialField, integrate_line, make_grid
from sng.shooting import (
    UniversalSolution,
    _shoot,
    _tail,
    default_grid,
    find_brackets,
    shoot_gamma0,
    solve_states,
)

# n -> (gamma0, gamma1, epsilon_star) on the default (40, 8001) grid
FROZEN_SPECTRUM = {
    0: (-0.9185797718, 3.46825617, -0.97895919),
    1: (-1.2099590020, 7.71395112, -0.91627463),
    2: (-1.3437006495, 11.93547272, -0.89220605),
    3: (-1.4282759852, 16.13218473, -0.87798617),
    4: (-1.4894253540, 20.31018581, -0.86811799),
}

# n -> gamma0 from label bisection on domains large enough that the domain's
# end no longer moves it: rho_max = 80 with 16001 points for n <= 4, 120
# with 24001 points for n = 5 (the spacing of the default grid)
LARGE_DOMAIN_GAMMA0 = {
    0: -0.918579772,
    1: -1.209959002,
    2: -1.343700650,
    3: -1.428275985,
    4: -1.489425354,
    5: -1.537010258,
}

# n -> gamma0 from label bisection on scipy's DOP853, with no grid and no
# matched tail (tests/dop853_reference.py wrote the file), and the change of
# each value from rtol 1e-13 to 1e-12, under 1e-12
DOP853_GAMMA0 = {int(n): state["gamma0"] for n, state in json.loads(
    (Path(__file__).with_name("gamma0_dop853.json")).read_text())["states"].items()}

# E_n = 2 epsilon_star / gamma1^2 and its tolerance, half a unit in the last
# published digit
REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())["spectrum"]

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def spectrum():
    # n <= 2 shared with the virial suite's cache; n = 3 to 5 in one more climb
    solved = {n: _solved(n, 40.0, 8001) for n in range(3)}
    return {**solved, **dict(zip((3, 4, 5), solve_states([3, 4, 5], make_grid(40.0, 8001))))}


def _shot(gamma0, grid, max_nodes=None):
    """A recorded shot's label and its samples (u, u', v, v') as arrays."""
    label, samples = _shoot(gamma0, grid, max_nodes, True)
    return label, tuple(np.array(v) for v in samples)


# --- frozen values -----------------------------------------------------------

def test_frozen_central_values(spectrum):
    for n, (gamma0, _, _) in FROZEN_SPECTRUM.items():
        assert spectrum[n].gamma0 == pytest.approx(gamma0, abs=2e-8), f"n={n}"


def test_frozen_norm_integrals(spectrum):
    for n, (_, gamma1, _) in FROZEN_SPECTRUM.items():
        assert spectrum[n].gamma1 == pytest.approx(gamma1, rel=1e-7), f"n={n}"


def test_frozen_eigenvalue_parameters(spectrum):
    for n, (_, _, eps_star) in FROZEN_SPECTRUM.items():
        assert spectrum[n].epsilon_star == pytest.approx(eps_star, rel=1e-7), f"n={n}"


def test_central_values_strictly_decrease_with_node_count(spectrum):
    gammas = [spectrum[n].gamma0 for n in range(6)]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


def test_central_values_match_large_domains(spectrum):
    # the tail match makes the default grid's answers those of a domain
    # whose end no longer matters
    for n, gamma0 in LARGE_DOMAIN_GAMMA0.items():
        assert spectrum[n].gamma0 == pytest.approx(gamma0, abs=1e-8), f"n={n}"


def test_central_values_match_an_independent_integrator(spectrum):
    # within the default tol of a reference that shares neither the grid,
    # the kernel nor the tail; n = 5 is the closest, at 9.0e-11
    assert sorted(DOP853_GAMMA0) == list(range(6))
    for n, gamma0 in DOP853_GAMMA0.items():
        assert spectrum[n].gamma0 == pytest.approx(gamma0, rel=shooting.DEFAULT_TOL), f"n={n}"


def test_energies_match_published_values(spectrum):
    for n, (energy, tol) in enumerate(zip(REFERENCES["E"], REFERENCES["abs_tol"])):
        sol = spectrum[n]
        assert 2.0 * sol.epsilon_star / sol.gamma1**2 == pytest.approx(energy, abs=tol), f"n={n}"


def test_tail_residual_is_small_on_the_default_grid(spectrum):
    for n, sol in spectrum.items():
        assert abs(sol.tail_residual) < 1e-4, f"n={n}"


def test_answers_do_not_depend_on_the_domain():
    # every shot stops at rho_m, so a larger domain with the same spacing
    # leaves the central value bit for bit; past rho_m both states are the
    # same matched tail, and the moments differ by the tail's mass past 30
    small = solve_states([0, 1], make_grid(30.0, 1501))
    large = solve_states([0, 1], make_grid(60.0, 3001))
    for a, b in zip(small, large):
        assert a.gamma0 == b.gamma0, f"n={a.n}"
        assert a.gamma1 == pytest.approx(b.gamma1, rel=1e-13), f"n={a.n}"
        assert a.epsilon_star == pytest.approx(b.epsilon_star, rel=1e-13), f"n={a.n}"
        np.testing.assert_allclose(a.f_star.values, b.f_star.values[:1501], rtol=0.0, atol=1e-17)


def test_central_values_converge_at_fourth_order():
    # fourth order on spacings h, h/2, h/4: successive differences of gamma0
    # shrink 16-fold; they read 15.86 and 15.88 for n = 0 and 1 with RK4 on
    # (f, f', g, g') when the window was frozen, 16.16 and 16.14 with RK4 on
    # (u, u', v, v'), and 16.005 and 16.004 with RKN4 (tol 1e-13 keeps
    # bisection's share near 1e-4 of them)
    gamma0 = [[sol.gamma0 for sol in solve_states([0, 1], make_grid(40.0, points), tol=1e-13)]
              for points in (1001, 2001, 4001)]
    for n in (0, 1):
        a, b, c = (row[n] for row in gamma0)
        assert 15.5 < (a - b) / (b - c) < 16.5, f"n={n}"


def test_shot_samples_converge_at_fourth_order():
    # the kernel alone, no bisection: one shot at gamma0 = -0.9, stopped at
    # rho = 8, on spacings h, h/2, h/4; successive differences of each of u,
    # u', v and v' shrink 16-fold (15.9 to 16.3 with RKN4 when the window
    # was frozen, 16.05 to 16.15 with RK4); a wrong weight in either RKN4
    # update leaves a lower order
    samples = []
    for points in (2001, 4001, 8001):
        grid = make_grid(40.0, points)
        label, (i, *state) = _shoot(-0.9, grid, 0, False, round(8.0 / grid.spacing))
        assert (label, grid.nodes[i]) == ((0, "match_radius"), 8.0)
        samples.append(np.array(state))
    a, b, c = samples
    ratios = (a - b) / (b - c)
    assert np.all((15.0 < ratios) & (ratios < 17.0)), ratios


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("radii", [[30.0], list(np.linspace(16.0, 40.0, 4801))],
                         ids=["match-radius", "default-grid-tail"])
def test_coulomb_tail_is_exact_at_kappa_one(k, radii):
    # kappa = mass/(2k) = 1: W_{1,1/2}(z) = z exp(-z/2), so u = rho exp(-k rho)
    # and y = 1/rho - k, the asymptotic start itself; what is left is the
    # RK4 error of 0.05-steps
    ys, log_u = _tail(k * k, 2.0 * k, radii)
    rho = np.array(radii)
    np.testing.assert_allclose(ys, 1.0 / rho - k, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(log_u, np.log(rho / rho[0]) - k * (rho - rho[0]),
                               rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n", range(5))
def test_profile_tail_matches_a_fine_riccati_tail(n, spectrum):
    # past rho_m, f* is the tail shot at anchors one Riccati step of 0.045
    # apart with log u filled in by cubic Hermite between them; against a
    # tail at every node in steps of 5e-4 it reads 2.9e-11 to 7.9e-11
    grid, sol = default_grid(), spectrum[n]
    rho = grid.nodes
    (_, label), (u, _, v, vp) = _shoot(sol.gamma0, grid, n, True, shooting._stop(grid))
    assert label == "match_radius"
    m = len(u) - 1
    _, log_u = _tail(vp[m], rho[m] * vp[m] - v[m], rho[m:].tolist(), 5e-4)
    reference = u[m] * np.exp(log_u[1:]) / rho[m + 1:]
    np.testing.assert_allclose(sol.f_star.values[m + 1:], reference, rtol=1e-10, atol=0.0)


def test_hermite_fill_is_exact_at_anchors_and_on_cubics():
    # anchors x[0], every third node and x[-1]; a cubic is its own interpolant
    x = np.linspace(16.0, 17.0, 12)
    anchors = x[[0, 3, 6, 9, 11]]
    cubic = np.polynomial.Polynomial([0.3, -1.0, 0.2, -0.05])
    filled = shooting._hermite(x, anchors, cubic(anchors), cubic.deriv()(anchors), 3)
    assert np.array_equal(filled[[0, 3, 6, 9, 11]], cubic(anchors))
    np.testing.assert_allclose(filled, cubic(x), rtol=1e-13, atol=0.0)


def test_coulomb_tail_refuses_a_tail_that_does_not_decay():
    assert _tail(0.0, 1.0, [10.0]) is None
    assert _tail(-1.0, 1.0, [10.0]) is None
    # deep inside the turning point mass/k2 = 100 the decaying tail has zeros
    assert _tail(1.0, 100.0, [5.0]) is None


# --- structural invariants ---------------------------------------------------

def test_solution_profile_invariants(spectrum):
    for n, sol in spectrum.items():
        assert isinstance(sol, UniversalSolution)
        assert sol.n == n
        assert sol.f_star.values[0] == 1.0  # exact, by the series start
        assert sol.bracket_width <= 1e-8
        assert abs(sol.g_star.values[0] - sol.gamma0) <= max(sol.bracket_width, 1e-12)
        # strict decay over the matched tail
        tail = np.abs(sol.f_star.values[-len(sol.f_star.values) // 10:])
        assert np.all(np.diff(tail) < 0.0), f"n={n} tail not strictly decaying"


def test_solution_is_its_profile(spectrum):
    # n, gamma0, gamma1 and epsilon_star are read off (f*, g*): n counts the
    # strict sign changes of f*, and the integrals are integrate_line's, bit
    # for bit, and scipy's Simpson rule on the nodes to rounding
    assert [f.name for f in dataclasses.fields(UniversalSolution)] == [
        "f_star", "g_star", "bracket_width"]
    for n, sol in spectrum.items():
        f, g, grid = sol.f_star.values, sol.g_star.values, sol.grid
        rho = grid.nodes
        gamma1 = integrate_line(f * f * rho * rho, grid)
        moment = integrate_line(f * f * g * rho * rho, grid)
        assert sol.n == np.count_nonzero(np.diff(np.sign(f)) != 0) == n
        assert sol.gamma0 == g[0], f"n={n}"
        assert sol.gamma1 == gamma1, f"n={n}"
        assert sol.epsilon_star == 3.0 / gamma1 * moment, f"n={n}"
        for values, got in ((f * f * rho * rho, gamma1), (f * f * g * rho * rho, moment)):
            bound = grid.n_points * np.finfo(float).eps * np.sum(np.abs(grid._line_weights * values))
            assert abs(got - simpson(values, x=rho)) <= bound, f"n={n}"


def test_solution_refuses_an_f_star_that_does_not_start_at_one():
    sol = _solved(0, 40.0, 8001)
    f = sol.f_star.values.copy()
    f[0] = 0.5
    with pytest.raises(WrongStateError, match="f\\*\\(0\\) must be exactly 1"):
        dataclasses.replace(sol, f_star=RadialField(sol.grid, f))


@pytest.mark.parametrize("call", [
    lambda grid: shoot_gamma0(0, (-0.9, -1.0), grid),
], ids=["shoot_gamma0"])
def test_reversed_gamma0_range_is_refused(call):
    with pytest.raises(InvalidArgumentError, match="lo < hi"):
        call(make_grid(40.0, 201))


def test_solution_keeps_one_grid():
    # the grid is f*'s and g* must lie on it: a grid the fields do not lie
    # on would make rescaling renormalize f* silently
    sol = _solved(0, 40.0, 8001)
    assert "grid" not in {f.name for f in dataclasses.fields(sol)}
    assert sol.grid is sol.f_star.grid
    other = RadialField(make_grid(20.0, 8001), sol.g_star.values)
    with pytest.raises(WrongStateError, match="different grids"):
        dataclasses.replace(sol, g_star=other)


def test_node_counts_match_sign_changes(spectrum):
    for n, sol in spectrum.items():
        f = sol.f_star.values
        signs = np.sign(f[np.abs(f) > 1e-12])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == n


def test_mass_potential_is_monotone_and_negative_at_origin(spectrum):
    # g* starts at gamma0 < 0 and climbs monotonically toward the tail value
    for n, sol in spectrum.items():
        g = sol.g_star.values
        assert g[0] < 0.0
        assert np.all(np.diff(g) >= 0.0), f"n={n}"


# --- brackets by node count --------------------------------------------------

def test_find_bracket_ends_classify_differently():
    grid = make_grid(40.0, 2001)
    lo, hi = find_brackets([1], grid)[1]
    assert _shot(lo, grid)[0] != _shot(hi, grid)[0]


def test_rung_two_brackets_are_frozen_and_shared():
    # on this grid the count falls from 9 to 7 across one cell of the
    # 101-point lattice, which is then the bracket of both n = 7 and 8; a
    # 404-point lattice once split it for n = 8
    grid = make_grid(60.0, 1201)
    frozen = {
        8: (-1.65, -1.5999999999999996),
        7: (-1.65, -1.5999999999999996),
    }
    assert find_brackets([8], grid)[8] == frozen[8]
    assert find_brackets([7], grid)[7] == frozen[7]
    assert find_brackets([7, 8], grid=grid) == frozen


def test_default_grid_brackets_are_frozen():
    # recorded from the scan whose shots ran to divergence or rho_max
    frozen = {
        4: (-1.5, -1.4499999999999997),
        3: (-1.4499999999999997, -1.4),
        2: (-1.3499999999999996, -1.2999999999999998),
        1: (-1.25, -1.1999999999999997),
        0: (-0.9500000000000002, -0.8999999999999995),
    }
    assert find_brackets(range(5), default_grid()) == frozen


def _walk(grid, max_nodes):
    """The reference for find_brackets: the node count of a shot at every
    lattice point, in lattice order."""
    return [_shoot(gamma0, grid, max_nodes, False)[0][0] for gamma0 in shooting._LATTICE]


def _first_drop(counts, n):
    """The first lattice cell where the walked count falls from above n to
    at most n, or None."""
    lattice = shooting._LATTICE
    return next(((float(lattice[i]), float(lattice[i + 1])) for i in range(len(counts) - 1)
                 if counts[i] > n >= counts[i + 1]), None)


@pytest.fixture(scope="module")
def unbounded_walk():
    grid = make_grid(40.0, 2001)
    return grid, _walk(grid, None)


@pytest.mark.parametrize("max_nodes", [0, 2, 4])
def test_node_ceiling_scan_keeps_the_unbounded_brackets(max_nodes, unbounded_walk):
    # the shots stop at their first node past the highest requested n, and
    # the brackets are those of the walk whose shots do not stop there
    grid, counts = unbounded_walk
    expected = {n: _first_drop(counts, n) for n in range(max_nodes + 1)}
    assert find_brackets(range(max_nodes + 1), grid) == expected
    assert find_brackets([max_nodes], grid) == {max_nodes: expected[max_nodes]}


def test_node_ceiling_stops_on_the_unbounded_prefix():
    grid = make_grid(40.0, 2001)
    _, full = _shot(-3.0, grid)
    label, cut = _shot(-3.0, grid, max_nodes=0)
    assert label == (1, "node_ceiling")
    k = len(cut[0])
    assert k < grid.n_points
    for a, b in zip(full, cut):
        assert a[:k].tobytes() == b.tobytes()
    # the first node sits between the last two computed samples
    f = cut[0]
    assert f[k - 2] * f[k - 1] < 0.0
    assert np.count_nonzero(f[:k - 2] * f[1:k - 1] < 0.0) == 0


def _assert_search_matches_walk(grid, ns):
    """find_brackets against a shot at every lattice point, for each n of
    ``ns`` alone and for all of them in one call.  A shot that stops at its
    first node past the top n counts min(count, top + 1), so one walk with
    no ceiling serves every request."""
    unbounded = _walk(grid, None)
    index = {float(x): i for i, x in enumerate(shooting._LATTICE)}
    for request in [[n] for n in ns] + [list(ns)]:
        counts = [min(c, max(request) + 1) for c in unbounded]
        try:
            found = find_brackets(request, grid)
        except InvalidBracketError:
            found = None
        if all(a >= b for a, b in zip(counts, counts[1:])):
            # refused exactly when some n has no drop: count(-5) <= n
            expected = {n: _first_drop(counts, n) for n in request}
            assert found == (None if None in expected.values() else expected), (grid, request)
        elif found is not None:
            # a rise between shots the call did not take: each cell it
            # returns still straddles its n
            for n, (lo, hi) in found.items():
                i, j = index[lo], index[hi]
                assert j == i + 1 and counts[i] > n >= counts[j], (grid, n)


def test_search_matches_the_walk_on_the_default_grid():
    _assert_search_matches_walk(default_grid(), range(6))


@pytest.mark.parametrize("rho_max, points", [(40.0, 41), (30.0, 97), (60.0, 1201)])
def test_search_matches_the_walk_on_fixed_grids(rho_max, points):
    _assert_search_matches_walk(make_grid(rho_max, points), range(10))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(points=st.integers(3, 401), rho_max=st.floats(1.0, 120.0), n_max=st.integers(0, 7))
# spacings above 1.3 where the count rises with gamma0 between lattice
# points, from the lattice end (-5) or, on 66.7/30, from -2.85
@example(points=57, rho_max=76.1, n_max=5)
@example(points=61, rho_max=79.5, n_max=7)
@example(points=30, rho_max=66.73814806172118, n_max=2)
def test_search_matches_the_walk_on_fuzzed_grids(points, rho_max, n_max):
    _assert_search_matches_walk(make_grid(rho_max, points), range(n_max + 1))


def test_find_bracket_out_of_range_raises():
    with pytest.raises(InvalidBracketError):
        find_brackets([40], make_grid(40.0, 801))


# --- error paths -------------------------------------------------------------

def test_same_label_bracket_is_rejected():
    grid = make_grid(40.0, 2001)
    with pytest.raises(InvalidBracketError):
        shoot_gamma0(0, (-0.6, -0.5), grid=grid)


def test_oscillatory_tail_raises_wrong_state():
    # at rho_max = 10 the n=2 match radius, 16 past the last node, lies
    # outside the grid
    grid = make_grid(10.0, 1001)
    with pytest.raises(WrongStateError, match="--rho-max"):
        shoot_gamma0(2, find_brackets([2], grid)[2], grid=grid)


def test_invalid_node_count_rejected():
    grid = make_grid(40.0, 2001)
    with pytest.raises(InvalidArgumentError):
        shoot_gamma0(-1, (-1.0, -0.9), grid=grid)
    for max_nodes in (-1, 1.5, True, np.nan):
        with pytest.raises(InvalidArgumentError):
            _shot(-1.0, grid, max_nodes=max_nodes)


@pytest.mark.parametrize("n, tol, refusal", [
    (1, 1e-4, "tail-identity residual"),
    # the mid-bracket gamma0 gains a node before rho_m = 16
    (0, 1e-5, "no decaying tail past it"),
    (0, 1e-7, "no decaying tail past it"),
])
def test_coarse_tol_refusals_name_tol(n, tol, refusal):
    # the refusal is the coarse tol's, not the grid's: a tenth of it solves
    grid = make_grid(40.0, 2001)
    bracket = find_brackets([n], grid)[n]
    with pytest.raises(WrongStateError, match=refusal) as info:
        shoot_gamma0(n, bracket, grid, tol)
    assert "refine --points, or lower --tol (bracket width " in str(info.value)
    assert shoot_gamma0(n, bracket, grid, tol / 10).bracket_width <= tol / 10


@pytest.mark.parametrize("ns, message", [
    ([], "need one or more node counts, got none"),
    ([-1], "n must be"),
    ([0.5], "n must be"),
])
def test_solve_states_refuses_bad_node_counts_before_any_shot(ns, message, monkeypatch):
    shots = []
    monkeypatch.setattr(shooting, "_shoot", lambda *args: shots.append(args))
    with pytest.raises(InvalidArgumentError, match=message):
        solve_states(ns, make_grid(40.0, 2001))
    assert shots == []


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_invalid_tol_rejected(tol):
    with pytest.raises(InvalidArgumentError):
        shoot_gamma0(0, (-1.0, -0.9), grid=make_grid(40.0, 2001), tol=tol)


# --- classification ----------------------------------------------------------

def test_classification_labels_partition_parameter_space():
    grid = make_grid(40.0, 2001)
    (up_nodes, up), _ = _shot(-0.3, grid)
    (down_nodes, down), _ = _shot(-1.0, grid)
    (_, deep), _ = _shot(-3.0, grid)
    assert up == "diverged_up" and up_nodes == 0
    assert down == "diverged_down" and down_nodes == 1
    assert deep == "max_radius"


# --- determinism -------------------------------------------------------------

def test_shooting_is_bitwise_deterministic():
    grid = make_grid(40.0, 2001)
    bracket = find_brackets([0], grid)[0]
    a = shoot_gamma0(0, bracket, grid=grid)
    b = shoot_gamma0(0, bracket, grid=grid)
    assert a.gamma0 == b.gamma0
    assert a.gamma1 == b.gamma1
    assert a.epsilon_star == b.epsilon_star
    assert np.array_equal(a.f_star.values, b.f_star.values)
    assert np.array_equal(a.g_star.values, b.g_star.values)


# n -> repr of (gamma0, gamma1, epsilon_star) and sha256 of the f*, g* bytes
# on make_grid(40.0, 2001), recorded when the kernel moved to u = rho f,
# v = rho g, gamma1 and epsilon_star again when the line quadrature became
# a sum over cached node weights, and f* when its tail past rho_m came to
# be shot at anchors and filled in by cubic Hermite: the frozen tolerances
# above would pass a reordered kernel, these pins would not
PINNED_STATES = {
    0: (("-0.9185797729063774", "3.468256152064737", "-0.9789591818947602"),
        "120cbc9ca973eb03be3ffb3ec998cc509060e7000b43bbc9890250c76407389e",
        "07155c9b10605825986238ae73fbf02fb8822964248d3d4c84ca7bb4e7242a48"),
    1: (("-1.2099589976947753", "7.713951077929529", "-0.9162746087932567"),
        "cc6285063342ccccf4c9339a6734087e0e1262419d9ce65a03cd7cbd43b64c50",
        "c423bf418705fdb7a416c2db4dca6f21ccea6ff49cdcdb7f86e85c85b96056ed"),
}

# gamma0 -> label, valid_points and sha256 of the u, v, u', v' bytes, each
# edge-padded from the computed samples to the full grid
PINNED_SHOTS = {
    -0.3: ((0, "diverged_up"), 279,
           "b21a1f72d983364cbd2a971f09eba169c496fd5023934732b2eed3d7aa8a64d1"),
    -3.0: ((19, "max_radius"), 2001,
           "dd3610cc9f9e524b71ea69b53267a80bf3d14e9618d562247119d5ec3afdb2b8"),
}


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_solved_states_are_bitwise_pinned():
    grid = make_grid(40.0, 2001)
    for n, (scalars, f_sha, g_sha) in PINNED_STATES.items():
        sol = shoot_gamma0(n, find_brackets([n], grid)[n], grid=grid)
        assert tuple(map(repr, (sol.gamma0, sol.gamma1, sol.epsilon_star))) == scalars
        assert _sha256(sol.f_star.values) == f_sha, f"n={n}"
        assert _sha256(sol.g_star.values) == g_sha, f"n={n}"


@pytest.mark.parametrize("kind", [float, np.float64])
def test_shots_are_bitwise_pinned(kind):
    # a node ceiling the shots never pass leaves them as they were
    grid = make_grid(40.0, 2001)
    for max_nodes in (None, 19):
        for gamma0, (label, valid, digest) in PINNED_SHOTS.items():
            shot_label, (u, up, v, vp) = _shot(kind(gamma0), grid, max_nodes)
            assert (shot_label, len(u)) == (label, valid)
            values = (np.pad(x, (0, grid.n_points - valid), mode="edge") for x in (u, v, up, vp))
            assert _sha256(*values) == digest, f"gamma0={gamma0}, max_nodes={max_nodes}"


# --- label-only shots -------------------------------------------------------

def _label_only(gamma0, grid, max_nodes=None, stop=None):
    """A label-only shot's label and the state (index, u, u', v, v') it returns."""
    return _shoot(gamma0, grid, max_nodes, False, stop)


def _recorded(gamma0, grid, max_nodes=None, stop=None):
    """The same from the recorded shot: its label and last sample, or, with
    ``stop``, the full recorded shot's sample ``stop`` past node max_nodes."""
    if stop is None:
        label, samples = _shot(gamma0, grid, max_nodes)
        return label, (len(samples[0]) - 1, *(v[-1] for v in samples))
    _, samples = _shot(gamma0, grid)
    f_sign = np.concatenate(([1.0], samples[0][1:]))  # u(0) = 0, f(0) = 1
    crossings = np.flatnonzero(f_sign[:-1] * f_sign[1:] < 0.0) + 1
    index = (crossings[max_nodes - 1] if max_nodes else 0) + stop
    return (max_nodes, "match_radius"), (index, *(v[index] for v in samples))


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("max_nodes", [None, 2])
def test_label_only_shots_match_recorded_labels(kind, max_nodes):
    grid = make_grid(40.0, 2001)
    labels = []
    for gamma0 in np.linspace(-5.0, 0.0, 101):
        expected = _recorded(kind(gamma0), grid, max_nodes)
        assert _label_only(kind(gamma0), grid, max_nodes) == expected, f"gamma0={gamma0}"
        labels.append(expected[0])
    deep = "max_radius" if max_nodes is None else "node_ceiling"
    assert {c for _, c in labels} == {"diverged_up", "diverged_down", deep}


@pytest.mark.parametrize("rho_max, points, gamma0, label", [
    # near-eigenvalue shots that reach rho_max with |f| below 1e-6
    (15.0, 601, -1.2100194931030273, (2, "max_radius")),
    (12.0, 481, -0.9185807708326024, (1, "max_radius")),
    # three points take one RKN4 step; its previous f is the series sample,
    # so the node counts check that the step compares against that sample
    (1.0, 3, -8.832394451918749, (1, "max_radius")),
    (1.0, 3, -8.832394451918747, (0, "max_radius")),
    (1.0, 3, -1.0, (0, "max_radius")),
    (40.0, 3, -0.3, (1, "diverged_down")),
    *((40.0, 2001, gamma0, label) for gamma0, (label, _, _) in PINNED_SHOTS.items()),
    # shots that stop at their match radius, 800 samples (16) past node n
    (40.0, 2001, -0.9185797727201128, (0, "match_radius")),
    (40.0, 2001, -1.2099589981604366, (1, "match_radius")),
    (40.0, 2001, -1.3437, (2, "match_radius")),
])
def test_label_only_shots_match_on_short_and_converged_grids(rho_max, points, gamma0, label):
    grid = make_grid(rho_max, points)
    max_nodes, stop = (label[0], 800) if label[1] == "match_radius" else (None, None)
    expected = _recorded(gamma0, grid, max_nodes, stop)
    assert expected[0] == label
    assert _label_only(gamma0, grid, max_nodes, stop) == expected
    assert _label_only(np.float64(gamma0), grid, max_nodes, stop) == expected
    if stop is not None:
        # a recorded stop shot keeps the samples up to its stop
        _, samples = _shoot(gamma0, grid, max_nodes, True, stop)
        assert (len(samples[0]) - 1, *(v[-1] for v in samples)) == expected[1]


def test_label_only_shots_keep_the_recorded_checks():
    grid = make_grid(40.0, 2001)
    for shot in (_recorded, _label_only):
        with pytest.raises(InvalidArgumentError):
            shot(-1e300, grid, None)
        for gamma0 in (np.nan, np.inf):
            with pytest.raises(InvalidArgumentError):
                shot(gamma0, grid, None)
        for max_nodes in (-1, 1.5, True, np.nan):
            with pytest.raises(InvalidArgumentError):
                shot(-1.0, grid, max_nodes)


def _shot_steps(record, state):
    """The RKN4 steps a _shoot call took: one per sample past the series pair."""
    return (len(state[0]) if record else state[0] + 1) - 2


def test_solve_states_shot_counts(monkeypatch):
    # label-only lattice shots bounded at n = 1, at 10 of the 101 points, on
    # the 251-point coarse grid; then per state the unaimed bisection on the
    # same grid, which takes its cell's sides from the lattice and shoots
    # neither end (stop 100 samples; three shots whose tail on the coarse
    # Riccati step does not decay yet at rho_m are shot again to rho_max),
    # whose root and slope aim the shots on 2001 points (stop 800 samples,
    # 16 past the n-th node): 13 for n = 0 and 6 for n = 1, against 2 + 15
    # and 2 + 11 unaimed, and one recorded shot to rho_m
    counts = collections.Counter()

    def counted(gamma0, grid, max_nodes, record, stop=None):
        counts[grid.n_points, record, max_nodes, stop] += 1
        return _shoot(gamma0, grid, max_nodes, record, stop)

    monkeypatch.setattr(shooting, "_shoot", counted)
    solve_states([0, 1], make_grid(40.0, 2001))
    assert counts == {(251, False, 0, 100): 13, (251, False, 1, 100): 12,
                      (251, False, 0, None): 2, (251, False, 1, None): 10 + 1,
                      (2001, False, 0, 800): 13, (2001, False, 1, 800): 6,
                      (2001, True, 0, 800): 1, (2001, True, 1, 800): 1}


def _riccati_steps(k2, radii, step):
    """The RK4 steps a _tail call takes on its Riccati equation: none when
    k2 <= 0, else those of at most ``step`` from _RICCATI_RUN_IN past the
    last radius in to each radius in turn."""
    if not k2 > 0.0:
        return 0
    ends = [radii[-1] + shooting._RICCATI_RUN_IN, *reversed(radii)]
    return sum(math.ceil((r - end) / step) for r, end in zip(ends, ends[1:]))


# solve_states(range(5)) on the default grid: shots and RKN4 steps on 8001
# and 1001 points, the 18 of the lattice among the latter, and Riccati steps
# of 0.05 and of 0.4; README and the shooting module quote their totals
DEFAULT_GRID_SHOTS = {8001: 27, 1001: 80}
DEFAULT_GRID_LATTICE_SHOTS = 18
DEFAULT_GRID_SHOT_STEPS = {8001: 126_573, 1001: 41_310}
DEFAULT_GRID_RICCATI_STEPS = {shooting._RICCATI_STEP: 21_815,
                              shooting._COARSE * shooting._RICCATI_STEP: 4_301}


def test_default_grid_rk4_steps(monkeypatch):
    # the aimed and the recorded shots on 8001 points, and the lattice and
    # the coarse passes on 1001 points, which shoot no end of a lattice cell
    # (five of their shots have no decaying tail at rho_m and are shot
    # again to rho_max); the tails of the solve's shots take Riccati steps
    # of 0.05, the final shots' profile tails one step of 0.045 between
    # anchors nine nodes apart, and those of the coarse passes steps of 0.4
    shots, steps, tails = collections.Counter(), collections.Counter(), collections.Counter()

    def counted(gamma0, grid, max_nodes, record, stop=None):
        label, state = _shoot(gamma0, grid, max_nodes, record, stop)
        shots[grid.n_points] += 1
        steps[grid.n_points] += _shot_steps(record, state)
        return label, state

    def tail(k2, mass, radii, step=shooting._RICCATI_STEP):
        tails[step] += _riccati_steps(k2, radii, step)
        return _tail(k2, mass, radii, step)

    monkeypatch.setattr(shooting, "_shoot", counted)
    monkeypatch.setattr(shooting, "_tail", tail)
    solve_states(range(5), default_grid())
    assert (shots, steps) == (DEFAULT_GRID_SHOTS, DEFAULT_GRID_SHOT_STEPS)
    assert tails == DEFAULT_GRID_RICCATI_STEPS


def test_docs_quote_the_default_grid_counts():
    quoted = (f"takes {DEFAULT_GRID_SHOTS[8001]} shots there and {DEFAULT_GRID_SHOTS[1001]} "
              f"on the coarse grid ({DEFAULT_GRID_LATTICE_SHOTS} of them the lattice's), "
              f"{sum(DEFAULT_GRID_SHOT_STEPS.values()):,} RKN4 steps and "
              f"{sum(DEFAULT_GRID_RICCATI_STEPS.values()):,} Riccati steps in all")
    for text in (README.read_text(encoding="utf-8"), shooting.__doc__):
        assert quoted in " ".join(text.split())


def test_default_grid_lattice_runs_on_the_coarse_grid(monkeypatch):
    # the 18 lattice shots of test_default_grid_scan_shots, on every eighth
    # point: every coarse cell holds its eigenvalue on the default grid, so
    # the lattice on the default grid itself never runs
    lattice, real_find = collections.Counter(), shooting.find_brackets

    def counted(gamma0, grid, max_nodes, record, stop=None):
        lattice[grid.n_points, record, max_nodes, stop] += 1
        return _shoot(gamma0, grid, max_nodes, record, stop)

    def find(ns, grid):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shooting, "_shoot", counted)
            return real_find(ns, grid)

    monkeypatch.setattr(shooting, "find_brackets", find)
    solve_states(range(5), default_grid())
    assert lattice == {(1001, False, 4, None): DEFAULT_GRID_LATTICE_SHOTS}


def test_default_grid_bisections_shoot_no_bracket_end(monkeypatch):
    # the aimed shots straddle every eigenvalue on the default grid (for
    # n = 1, 2 and 4 once the secant of the solve's own mismatches follows
    # the coarse slope's Newton step), so no bisection there shoots an end
    # of its lattice cell
    grid = default_grid()
    found = find_brackets(range(5), grid)
    real_side, shot = shooting._side, []

    def side(n, gamma0, shot_grid, stop, step=shooting._RICCATI_STEP):
        if shot_grid == grid:
            shot.append((n, gamma0))
        return real_side(n, gamma0, shot_grid, stop, step)

    monkeypatch.setattr(shooting, "_side", side)
    for n, bracket in found.items():
        shoot_gamma0(n, bracket, grid)
    assert {n for n, _ in shot} == set(found)
    assert [(n, x) for n, x in shot if x in found[n]] == []


def test_solve_states_shoots_no_end_of_a_coarse_cell(monkeypatch):
    # the coarse lattice sides each cell's ends (count above n at the lower,
    # at most n at the upper), so solve_states' coarse bisections shoot
    # neither; shoot_gamma0 called alone shoots both first.  On the default
    # grid those ten end shots are told by label, so the aims keep their bits
    grid = default_grid()
    coarse = shooting._coarse_grid(grid)
    cells = find_brackets(range(5), coarse)
    real_side, shot = shooting._side, []

    def side(n, gamma0, shot_grid, stop, step=shooting._RICCATI_STEP):
        if shot_grid == coarse:
            shot.append((n, gamma0))
        return real_side(n, gamma0, shot_grid, stop, step)

    monkeypatch.setattr(shooting, "_side", side)
    solve_states(range(5), grid)
    assert {n for n, _ in shot} == set(cells)
    assert [(n, x) for n, x in shot if x in cells[n]] == []
    for n, cell in cells.items():
        shot.clear()
        shoot_gamma0(n, cell, grid)
        assert shot[:2] == [(n, cell[0]), (n, cell[1])]
        assert (shooting._aim(n, cell, coarse, shooting.DEFAULT_TOL, True)
                == shooting._coarse_aim(n, cell, grid, shooting.DEFAULT_TOL))


def test_default_grid_scan_shots(monkeypatch):
    # the count bisection shoots 18 of the lattice's 101 points
    counts = collections.Counter()

    def counted(gamma0, grid, max_nodes, record, stop=None):
        counts[record, max_nodes, stop] += 1
        return _shoot(gamma0, grid, max_nodes, record, stop)

    monkeypatch.setattr(shooting, "_shoot", counted)
    find_brackets(range(5), default_grid())
    assert counts == {(False, 4, None): 18}


# --- aimed bisection against plain bisection ---------------------------------

def _plain_bisection(n, bracket, grid, tol):
    """The brackets (lo, hi, shots, steps) of a plain bisection over
    shooting._side, from the bracket ends to the first width <= tol,
    ``shots`` and ``steps`` counting the _shoot calls made so far and their
    RKN4 steps.  The brackets of every wider tol are a prefix.  It refuses
    as shoot_gamma0 does: InvalidBracketError for ends on one side,
    ConvergenceError at float resolution, and the errors of _side."""
    calls = steps = 0

    def counted(*args):
        nonlocal calls, steps
        label, state = _shoot(*args)
        calls += 1
        steps += _shot_steps(args[3], state)
        return label, state

    stop = shooting._stop(grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shooting, "_shoot", counted)
        lo, hi = map(float, bracket)
        side_lo = shooting._side(n, lo, grid, stop)[0]
        if shooting._side(n, hi, grid, stop)[0] == side_lo:
            raise InvalidBracketError(
                f"bracket ends {bracket} lie on one side of the n={n} eigenvalue")
        sequence = [(lo, hi, calls, steps)]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                raise ConvergenceError(f"bisection exhausted float resolution at width "
                                       f"{hi - lo:.3e} > tol {tol:.3e}")
            if shooting._side(n, mid, grid, stop)[0] == side_lo:
                lo = mid
            else:
                hi = mid
            sequence.append((lo, hi, calls, steps))
    return sequence


def _plain_result(sequence, tol):
    """The plain bisection's final (lo, hi, shots, steps) at ``tol``."""
    return next(entry for entry in sequence if entry[1] - entry[0] <= tol)


def _outcome(solve):
    """gamma0, bracket_width and the sha256 of f* and g* of the state
    ``solve()`` returns, or the type and message of the error it raises."""
    try:
        sol = solve()
    except SngError as exc:
        return type(exc), str(exc)
    return sol.gamma0, sol.bracket_width, _sha256(sol.f_star.values), _sha256(sol.g_star.values)


def _plain_outcome(n, bracket, grid, tol, sequence=None):
    """The _outcome shoot_gamma0 must have: that of plain bisection's final
    bracket, solved with no halving, or plain bisection's own refusal."""
    try:
        if sequence is None:
            sequence = _plain_bisection(n, bracket, grid, tol)
        lo, hi = _plain_result(sequence, tol)[:2]
    except SngError as exc:
        return type(exc), str(exc)
    # a bracket no wider than tol is solved with no halving
    return _outcome(lambda: shoot_gamma0(n, (lo, hi), grid, tol=hi - lo))


def _assert_same_as_plain(n, bracket, grid, tol, sequence=None):
    assert (_outcome(lambda: shoot_gamma0(n, bracket, grid, tol))
            == _plain_outcome(n, bracket, grid, tol, sequence)), (grid, n, bracket, tol)


@pytest.fixture(scope="module")
def plain_bisection():
    """(rho_max, points, n, bracket) -> the plain bisection of ``bracket``
    on make_grid(rho_max, points) down to a width of 1e-15, the narrowest
    tol compared below; ``bracket`` defaults to find_brackets'."""
    cache = {}

    def bisect(rho_max, points, n, bracket=None):
        grid = make_grid(rho_max, points)
        bracket = bracket or find_brackets([n], grid)[n]
        if (grid, n, bracket) not in cache:
            cache[grid, n, bracket] = _plain_bisection(n, bracket, grid, 1e-15)
        return bracket, cache[grid, n, bracket]

    return bisect


@pytest.mark.parametrize("points", [401, 2001])
@pytest.mark.parametrize("n", range(4))
def test_bisection_never_shoots_more_than_plain_bisection(points, n, plain_bisection,
                                                          monkeypatch):
    # the shots on the solve's own grid, and the RKN4 steps on every grid,
    # coarse pass included: the aim pays for itself at every tol
    bracket, sequence = plain_bisection(40.0, points, n)
    grid = make_grid(40.0, points)
    work = collections.Counter()

    def counted(gamma0, shot_grid, max_nodes, record, stop=None):
        label, state = _shoot(gamma0, shot_grid, max_nodes, record, stop)
        if not record:  # the final recorded shot is not bisection's
            work["shots"] += shot_grid == grid
            work["steps"] += _shot_steps(record, state)
        return label, state

    monkeypatch.setattr(shooting, "_shoot", counted)
    for tol in (1e-15, 1e-10, 1e-6, 1e-3, 0.02):
        work.clear()
        try:
            shoot_gamma0(n, bracket, grid, tol)
        except WrongStateError as exc:
            # coarse tols leave a state too rough to keep, after bisection
            assert "refine --points" in str(exc)
        _, _, shots, steps = _plain_result(sequence, tol)
        assert work["shots"] <= shots, f"tol={tol}"
        assert work["steps"] <= steps, f"tol={tol}"


@pytest.mark.parametrize("points", [2001, 8001])
@pytest.mark.parametrize("n", range(5))
def test_bisection_matches_plain_bisection_bit_for_bit(points, n, plain_bisection):
    bracket, sequence = plain_bisection(40.0, points, n)
    for tol in (1e-15, 1e-10, 1e-6, 1e-3, 0.02):
        _assert_same_as_plain(n, bracket, make_grid(40.0, points), tol, sequence)


@pytest.mark.parametrize("rho_max, points, n_max", [
    (40.0, 8001, 4), (40.0, 4001, 1), (40.0, 4001, 4), (40.0, 2001, 3),
    (60.0, 12001, 5), (40.0, 16001, 2),
])
def test_solve_states_matches_plain_bisection_bit_for_bit(rho_max, points, n_max,
                                                          plain_bisection):
    # solve_states' brackets, at its default tol
    grid = make_grid(rho_max, points)
    for n, bracket in find_brackets(range(n_max + 1), grid).items():
        _, sequence = plain_bisection(rho_max, points, n, bracket)
        _assert_same_as_plain(n, bracket, grid, shooting.DEFAULT_TOL, sequence)


# --- coarse-grid lattice against the grid's own --------------------------------

def _states_outcome(solve):
    """The _outcome of each state ``solve()`` returns, or the type and
    message of the error it raises."""
    try:
        states = solve()
    except SngError as exc:
        return type(exc), str(exc)
    return [_outcome(lambda: sol) for sol in states]


def _assert_same_as_own_lattice(ns, grid):
    # solve_states against each state bisected from the cell of the lattice
    # on the grid itself
    def own():
        found = find_brackets(ns, grid)
        return [shoot_gamma0(n, found[n], grid) for n in ns]

    assert _states_outcome(lambda: solve_states(ns, grid)) == _states_outcome(own), (grid, ns)


@pytest.mark.parametrize("rho_max, points, n_max", [
    (40.0, 8001, 4), (40.0, 4001, 1), (40.0, 4001, 4), (40.0, 2001, 3),
    (60.0, 12001, 5), (40.0, 16001, 2),
])
def test_solve_states_matches_the_grids_own_lattice_bit_for_bit(rho_max, points, n_max):
    _assert_same_as_own_lattice(range(n_max + 1), make_grid(rho_max, points))


@pytest.mark.parametrize("points", [5, 11, 16])
def test_refused_coarse_grid_brackets_on_the_grids_own_lattice(points, monkeypatch):
    # under 17 points, every eighth point is fewer than the 3 a grid needs
    grid, real_find, lattices = make_grid(40.0, points), shooting.find_brackets, []

    def find(ns, lattice_grid):
        lattices.append(lattice_grid)
        return real_find(ns, lattice_grid)

    monkeypatch.setattr(shooting, "find_brackets", find)
    with pytest.raises(InvalidArgumentError):
        shooting._coarse_grid(grid)
    _assert_same_as_own_lattice(range(3), grid)
    assert set(lattices) == {grid}


@pytest.mark.parametrize("shift", [-1, 1])
def test_coarse_cell_off_the_eigenvalue_falls_back_on_the_grids_own_lattice(shift,
                                                                             monkeypatch):
    # a coarse lattice that answers the neighbouring cell: the bisection on
    # the grid refuses it (both ends on one side), and the grid's own
    # lattice brackets that state and the rest
    grid, real_find, lattices = make_grid(40.0, 2001), shooting.find_brackets, []
    index = {float(x): i for i, x in enumerate(shooting._LATTICE)}

    def find(ns, lattice_grid):
        lattices.append(lattice_grid.n_points)
        found = real_find(ns, lattice_grid)
        if lattice_grid == grid:
            return found
        return {n: tuple(float(shooting._LATTICE[index[x] + shift]) for x in cell)
                for n, cell in found.items()}

    monkeypatch.setattr(shooting, "find_brackets", find)
    _assert_same_as_own_lattice(range(3), grid)
    assert lattices == [251, 2001]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=st.integers(3, 601), rho_max=st.floats(8.0, 80.0), n_max=st.integers(0, 4))
def test_solve_states_matches_the_grids_own_lattice_on_fuzzed_grids(points, rho_max, n_max):
    # refusals included, by type and message
    _assert_same_as_own_lattice(range(n_max + 1), make_grid(rho_max, points))


@pytest.mark.parametrize("points", [5, 11, 41])
@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_refused_grids_refuse_as_plain_bisection(points, tol):
    # no state on these grids is kept; where no lattice cell brackets n, a
    # bracket of n = 1 on the default grid lies on one side of the eigenvalue
    grid = make_grid(40.0, points)
    for n in range(3):
        try:
            bracket = find_brackets([n], grid)[n]
        except InvalidBracketError:
            bracket = (-1.25, -1.2)
        outcome = _plain_outcome(n, bracket, grid, tol)
        assert outcome[0] in (WrongStateError, InvalidBracketError)
        _assert_same_as_plain(n, bracket, grid, tol)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=st.integers(3, 601), rho_max=st.floats(8.0, 80.0), n=st.integers(0, 3),
       tol=st.sampled_from([1e-15, 1e-10, 1e-6, 1e-3]))
def test_bisection_matches_plain_bisection_on_fuzzed_grids(points, rho_max, n, tol):
    grid = make_grid(rho_max, points)
    try:
        bracket = find_brackets([n], grid)[n]
    except InvalidBracketError:
        return
    _assert_same_as_plain(n, bracket, grid, tol)


def test_secant_shots_stay_clear_of_the_rounding_band():
    # within a few ulps of the n = 4 eigenvalue on the default grid the
    # mismatch's rounding flips its sign back and forth; a secant shot
    # aimed only tol/4 past the root would land there, and a later midpoint
    # beyond it would take its side where plain bisection's own shot tells
    # the other
    grid = default_grid()
    bracket, tol = (-1.4898281949018854, -1.489073440046018), 2.5e-16
    _assert_same_as_plain(4, bracket, grid, tol)


def test_secant_shots_never_outnumber_halvings(monkeypatch):
    # a mismatch as flat as d^10 at a distance d below the root draws secant
    # steps that each creep a few percent closer, about 240 of them before
    # one passes the root; secant shots that may not outnumber halvings
    # keep the loop within twice the 2 + 29 shots of bisection, and it
    # still ends on bisection's bracket; the coarse pass that aims it shoots
    # on another grid
    root = float(PINNED_STATES[0][0][0])  # n = 0 on the grid below
    grid = make_grid(40.0, 2001)
    shots = 0

    def side(n, gamma0, shot_grid, stop, step=None):
        nonlocal shots
        shots += shot_grid == grid
        return (1, None) if gamma0 > root else (-1, -(root - gamma0) ** 10)

    lo, hi = -0.95, -0.9
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if side(0, mid, grid, None)[0] < 0 else (lo, mid)
    assert shots == 29
    shots = 0
    monkeypatch.setattr(shooting, "_side", side)
    sol = shoot_gamma0(0, (-0.95, -0.9), grid, 1e-10)
    assert (sol.gamma0, sol.bracket_width) == (0.5 * (lo + hi), hi - lo)
    assert shots <= 2 * (2 + 29)


# an aimed bisection of n = 0 on 40/401, whose coarse pass runs on 51 points
AIM_CASE = (0, (-0.95, -0.9), make_grid(40.0, 401), 1e-10)


def test_coarse_pass_without_two_mismatches_leaves_the_bisection_unaimed(monkeypatch):
    # coarse shots that tell their side by label alone leave no slope to aim by
    n, bracket, grid, tol = AIM_CASE
    real_side, real_aim, aims = shooting._side, shooting._coarse_aim, []

    def side(n, gamma0, shot_grid, stop, step=shooting._RICCATI_STEP):
        told, mismatch = real_side(n, gamma0, shot_grid, stop, step)
        return told, mismatch if shot_grid == grid else None

    def aim(*args):
        aims.append(real_aim(*args))
        return aims[-1]

    monkeypatch.setattr(shooting, "_side", side)
    monkeypatch.setattr(shooting, "_coarse_aim", aim)
    _assert_same_as_plain(n, bracket, grid, tol)
    assert aims == [None]


@pytest.mark.parametrize("rho_max, points, n, gamma0, aimed, near", [
    (46.7, 715, 7, -1.5999999999999996, True, -1.608444),
    (61.59410825826832, 972, 10, -1.6749999999999998, False, -1.683176),
])
def test_unaimed_shot_past_rho_max_that_must_diverge_is_above(rho_max, points, n, gamma0, aimed,
                                                               near, monkeypatch):
    # the unaimed bisection shoots the end gamma0 of its coarse cell, which
    # reaches rho_max with n nodes and no divergence yet, but with s u, s u',
    # v and v' positive, so f must diverge: it lies above the eigenvalue, and
    # the unaimed solve ends on the bits of the aimed one.  The second case's
    # 122-point coarse pass gives shoot_gamma0 no aim: it shoots its cell's
    # upper end, whose tail does not decay at rho_m, and refuses it.
    # solve_states takes that end's side from the lattice instead, never
    # shoots it, and so aims both cases
    grid = make_grid(rho_max, points)
    coarse = shooting._coarse_grid(grid)
    cell = find_brackets([n], coarse)[n]
    assert (shooting._coarse_aim(n, cell, grid, shooting.DEFAULT_TOL) is not None) == aimed
    assert shooting._aim(n, cell, coarse, shooting.DEFAULT_TOL, True) is not None
    (nodes, label), (_, u, up, v, vp) = _shoot(gamma0, grid, n, False)
    assert (nodes, label) == (n, "max_radius")
    assert min((-1) ** n * u, (-1) ** n * up, v, vp) > 0.0
    assert shooting._side(n, gamma0, grid, shooting._stop(grid)) == (1, None)
    solved = _outcome(lambda: solve_states([n], grid)[0])
    monkeypatch.setattr(shooting, "_aim", lambda *args: None)
    assert _outcome(lambda: solve_states([n], grid)[0]) == solved
    assert solved[0] == pytest.approx(near, abs=1e-6)


def test_aimed_shot_that_raises_ends_the_aim(monkeypatch):
    # the first shot on the solve's own grid is the aimed one
    n, bracket, grid, tol = AIM_CASE
    real_side, raised = shooting._side, []

    def side(n, gamma0, shot_grid, stop, step=shooting._RICCATI_STEP):
        if shot_grid == grid and not raised:
            raised.append(gamma0)
            raise WrongStateError("an aimed shot refused")
        return real_side(n, gamma0, shot_grid, stop, step)

    monkeypatch.setattr(shooting, "_side", side)
    _assert_same_as_plain(n, bracket, grid, tol)
    assert len(raised) == 1 and bracket[0] < raised[0] < bracket[1]


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_bisection_below_float_resolution_is_a_convergence_error(tol, monkeypatch):
    # a loop that stops only at tol would never end: cap the shots at four
    # times the ~50 halvings a double holds, so it fails instead of hanging
    shots = 0

    def capped(*args):
        nonlocal shots
        shots += 1
        assert shots <= 200, "bisection did not stop at float resolution"
        return _shoot(*args)

    grid = make_grid(40.0, 401)
    bracket = find_brackets([1], grid)[1]
    monkeypatch.setattr(shooting, "_shoot", capped)
    with pytest.raises(ConvergenceError, match="bisection exhausted float resolution"):
        shoot_gamma0(1, bracket, grid, tol)


def test_default_grid_matches_documented_geometry():
    grid = default_grid()
    assert grid.n_points == 8001
    assert grid.nodes[-1] == pytest.approx(40.0)
