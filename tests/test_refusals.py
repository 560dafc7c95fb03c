"""Every argument check refuses a bad value with a typed error that names
the argument, however the value is bad (non-finite, fractional, a bool)."""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

from sng.cli import _load_solution
from sng.errors import InvalidArgumentError
from sng.evolution import NonlinearityKind, RadialState, evolve, gaussian_state, step
from sng.grids import RadialField, make_grid
from sng.physical import rescale_to_physical
from sng.scf import scf_solve
from sng.shooting import (
    UniversalSolution,
    _find_brackets,
    _shoot,
    solve_states,
)

GRID = make_grid(40.0, 201)
GRID_11 = make_grid(10.0, 11)
NAN, INF = math.nan, math.inf


def _evolve(**kwargs):
    state = gaussian_state(make_grid(20.0, 201), 1.0)
    args = {"t_final": 1.0, "dt": 0.1, "nl": NonlinearityKind.free(), **kwargs}
    return evolve(state, **args)


def _samples(f=(), g=()):
    """The samples of a made-up decaying state on 11 points, f* = exp(-rho)
    and g* = -1, with the (index, value) pairs ``f`` and ``g`` put in."""
    f_star, g_star = np.exp(-GRID_11.nodes), np.full(11, -1.0)
    for samples, changes in ((f_star, f), (g_star, g)):
        for i, value in changes:
            samples[i] = value
    return f_star, g_star


def _solution(f=(), g=(), bracket_width=1e-10):
    """The made-up state of :func:`_samples` as a solution."""
    f_star, g_star = _samples(f, g)
    return UniversalSolution(RadialField(GRID_11, f_star), RadialField(GRID_11, g_star),
                             bracket_width)


def _load(profile="rho,f_star,g_star\n0,1,-1\n", **changes):
    """The CLI's reading of a solve summary with ``changes`` to its fields,
    next to the profile table ``profile``; its gamma0, gamma1 and
    epsilon_star are those of the made-up state."""
    made_up = _solution()
    summary = {"n": 0, "node_count": 0, "gamma0": made_up.gamma0, "gamma1": made_up.gamma1,
               "epsilon_star": made_up.epsilon_star, "bracket_width": 1e-10,
               "grid": {"rho_max": 10.0, "points": 11}, "x_csv": "ground.csv", **changes}
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "ground.csv"), "w", encoding="utf-8") as fh:
            fh.write(profile)
        with open(os.path.join(root, "ground.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        return _load_solution(os.path.join(root, "ground.json"))


def _quiet(call):
    """``call`` with every warning raised as an error."""
    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call()
    return run


def _profile(f_cell=None):
    """The made-up state's 11-row profile table, as ``_load`` expects it,
    its f* cell at rho = 5 replaced by ``f_cell`` when given."""
    f_star, g_star = _samples(f=() if f_cell is None else [(5, f_cell)])
    rows = zip(GRID_11.nodes.tolist(), f_star.tolist(), g_star.tolist())
    return "rho,f_star,g_star\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


# (argument named at the start of the message, call)
CASES = [
    ("rho_max", lambda: make_grid(NAN, 11)),
    ("n_points", lambda: make_grid(40.0, NAN)),
    ("n_points", lambda: make_grid(40.0, INF)),
    ("n_points", lambda: make_grid(40.0, 2)),
    ("n", lambda: _find_brackets([NAN], GRID)),
    ("n", lambda: _find_brackets([INF], GRID)),
    ("n", lambda: solve_states([True], GRID)),
    ("n", lambda: solve_states([0, NAN], GRID)),
    ("n", lambda: scf_solve(NAN, GRID)),
    ("n", lambda: scf_solve(INF, GRID)),
    ("max_nodes", lambda: _shoot(-1.0, GRID, NAN, False)),
    ("n", lambda: _find_brackets([0.5], GRID)),
    # a gravity step of u = 1e200: |u|^2 overflows (numpy warned, and the
    # Poisson source was refused)
    ("u", _quiet(lambda: step(RadialState(GRID, np.r_[0.0, np.full(199, 1e200), 0.0], 0.0),
                              0.1, NonlinearityKind.gravity()))),
    ("tol", lambda: solve_states([0], GRID, tol=NAN)),
    ("sigma", lambda: gaussian_state(GRID, NAN)),
    ("sigma^2", lambda: gaussian_state(make_grid(1e-158, 201), 1e-160)),
    ("sigma^2", lambda: gaussian_state(GRID, 1e200)),
    ("kappa", lambda: NonlinearityKind.cubic(NAN, 1)),
    ("kappa", lambda: NonlinearityKind.cubic(INF, 1)),
    ("dt", lambda: step(gaussian_state(GRID, 2.0), NAN, NonlinearityKind.free())),
    ("dt", lambda: _evolve(dt=INF)),
    ("t_final", lambda: _evolve(t_final=INF)),
    ("t_final", lambda: _evolve(t_final=NAN)),
    ("observe_every", lambda: _evolve(observe_every=NAN)),
    ("observe_every", lambda: _evolve(observe_every=INF)),
    ("snapshot_every", lambda: _evolve(snapshot_every=NAN)),
    # a finite dt whose Crank–Nicolson matrix overflows: dt/dr^2, dt kappa
    ("dt", lambda: step(gaussian_state(GRID, 2.0), 1e308, NonlinearityKind.free())),
    ("dt", lambda: step(gaussian_state(GRID, 2.0), 1e300, NonlinearityKind.cubic(1e308, 1))),
    ("n_points", lambda: step(RadialState(make_grid(10.0, 4), [0.0, 1.0, 1.0, 0.0], 0.0), 0.1,
                              NonlinearityKind.free())),
    ("max_iter", lambda: scf_solve(0, GRID, max_iter=2.5)),
    ("max_iter", lambda: scf_solve(0, GRID, max_iter=0)),
    ("tol", lambda: scf_solve(0, GRID, tol=NAN)),
    ("tol", lambda: scf_solve(0, GRID, tol=INF)),
    ("tol", lambda: scf_solve(0, GRID, tol=-1e-10)),
    # one sample of 1e-170: |u|^2 underflows, so the norm is 0 in doubles
    ("norm", lambda: RadialState(make_grid(10.0, 101), 1e-170 * (np.arange(101) == 50), 0.0)),
    # a spacing that underflows to 0 (or a subnormal) divides a shot by zero
    ("rho_max", lambda: make_grid(5e-324, 11)),
    ("rho_max", lambda: make_grid(1e-310, 3)),
    # r^2 of the outer nodes overflows a double
    ("r_max", lambda: gaussian_state(make_grid(1.7e308, 303), 1.0)),
    # a spacing whose square underflows: the quadrature and dt/dr^2 divide by it
    ("grid", lambda: RadialState(make_grid(1e-200, 3), [0.0, 1.0, 0.0], 0.0)),
    # a solve summary's counts at infinity (int() raised OverflowError) or
    # fractional (int() truncated them)
    ("n", lambda: _load(n=INF)),
    ("n", lambda: _load(n=1.5, node_count=1.5)),
    ("points", lambda: _load(grid={"rho_max": 10.0, "points": INF})),
    ("points", lambda: _load(grid={"rho_max": 10.0, "points": 11.5})),
    # a profile cell that is not a number, or a row of two cells
    ("profile", lambda: _load(profile="rho,f_star,g_star\n0,1,-1\na,b,c\n")),
    ("profile", lambda: _load(profile="rho,f_star,g_star\n0,1,-1\n1,0.5\n")),
    # a product f*^2 g* that overflows, so epsilon_star is not finite; a NaN
    # bracket_width passed the g*(0) check, and a NaN gamma0 in a summary
    # disagrees with the table's g*(0)
    ("epsilon_star", lambda: _solution(f=[(1, 1e100)], g=[(1, 1e300)])),
    ("bracket_width", lambda: _solution(bracket_width=NAN)),
    ("bracket_width", lambda: _solution(bracket_width=-1e-10)),
    ("gamma0", lambda: _load(profile=_profile(), gamma0=NAN)),
    # the integral of f*^2 rho^2 overflows, its samples finite: 1.96e306 * 81
    # at rho = 9, weighed by 4/3 on 10/11
    ("gamma1", lambda: _solution(f=[(9, 1.4e153), (10, 1e152)])),
    # gamma1^2 overflowed, and 2/gamma1^2 did (gamma1 about 1.3e300 and 1.4e-300)
    ("gamma1", lambda: rescale_to_physical(_solution(f=[(1, 1e150)]))),
    ("gamma1", lambda: rescale_to_physical(
        _solution(f=[(i, 10.0 ** -(149 + i)) for i in range(1, 11)]))),
    # a profile table of its header alone made numpy warn before the refusal
    ("profile", _quiet(lambda: _load(profile="rho,f_star,g_star\n"))),
    # an f* cell whose square overflows was refused as a bare non-finite field
    ("profile", lambda: _load(profile=_profile(f_cell=1e300))),
    # a step with a potential checks its system as a free step does: too few
    # nodes, dt/dr^2 overflowing, and a finite lam = dt/dr^2/4 whose 2 lam
    # overflows (1e308 on 30/401)
    ("n_points", lambda: step(RadialState(make_grid(10.0, 4), [0.0, 1.0, 1.0, 0.0], 0.0), 0.1,
                              NonlinearityKind.gravity())),
    ("n_points", lambda: step(RadialState(make_grid(10.0, 4), [0.0, 1.0, 1.0, 0.0], 0.0), 0.1,
                              NonlinearityKind.cubic(1, 1))),
    ("dt", lambda: step(gaussian_state(GRID, 2.0), 1e308, NonlinearityKind.gravity())),
    ("dt", lambda: step(gaussian_state(make_grid(30.0, 401), 1.0), 2.25e306,
                        NonlinearityKind.gravity())),
    # a summary whose gamma1 or epsilon_star disagrees with its profile table
    ("gamma1", lambda: _load(profile=_profile(), gamma1=_solution().gamma1 * 1.01)),
    ("epsilon_star", lambda: _load(profile=_profile(), epsilon_star=INF)),
    # f* whose square underflows to 0 off the origin: gamma1 is 0
    ("gamma1", lambda: _solution(f=[(i, 10.0 ** -(169 + i)) for i in range(1, 11)])),
    ("sign", lambda: NonlinearityKind.cubic(1.0, 0)),
    ("t_final", lambda: _evolve(t_final=0.04)),
    # a value that cannot be compared with a number
    ("n_points", lambda: make_grid(40.0, "11")),
    ("rho_max", lambda: make_grid("40", 11)),
    # a finite diagonal, but the old outer end's i lam u[-1] / 2 on the last
    # interior row overflows: u[-1] = 1e10 under gravity at dt 1e300.  A u
    # of 1e150 under a cubic potential of 1e300 is a rejected step, not a
    # refusal (test_a_step_whose_midpoint_density_vanishes_is_rejected)
    ("dt", _quiet(lambda: step(RadialState(GRID, np.r_[0.0, np.full(199, 1e-3), 1e10], 0.0),
                               1e300, NonlinearityKind.gravity()))),
    # f* whose square is subnormal off the origin: gamma1 is subnormal, and
    # 3/gamma1 overflowed into an infinite epsilon_star
    ("gamma1", lambda: _solution(f=[(i, 10.0 ** -(160 + i)) for i in range(1, 11)])),
    # a normal sigma^2 whose packet's peak density (2 pi sigma^2)^-1.5
    # overflows: the packet was sampled, and its norm of 1 let it through
    ("sigma", _quiet(lambda: gaussian_state(make_grid(1e-150, 201), 1e-151))),
    # a grid whose r^2 overflows: psi's origin limit squares r[2], so a state
    # of tiny norm and density was refused as "u is too large"
    ("r_max", _quiet(lambda: RadialState(make_grid(1e200, 201),
                                         np.r_[0.0, np.full(199, 1e-150), 0.0], 0.0))),
    # a state of finite norm and density whose r^2 |u|^2 overflows: the
    # door let it through, and rms_width and evolve warned of the overflow;
    # one far out, and one of a single sample where dr < 1, so r_max^2 times
    # int |u|^2 dr is finite
    ("u", _quiet(lambda: RadialState(make_grid(1e150, 201),
                                     np.r_[0.0, np.full(199, 1e10), 0.0], 0.0))),
    ("u", _quiet(lambda: RadialState(make_grid(100.0, 1001),
                                     10.0 ** 152.5 * (np.arange(1001) == 999), 0.0))),
    # a field that does not apply to the kind was ignored: these evolved as
    # pure gravity and as free
    ("kappa", lambda: NonlinearityKind("gravity", kappa=2.0, sign=-1)),
    ("kappa", lambda: NonlinearityKind("free", kappa=3.0)),
    # a sign that int() truncated (1.9 to 1, -0.5 to 0) or could not convert
    ("sign", lambda: NonlinearityKind.cubic(1.0, 1.9)),
    ("sign", lambda: NonlinearityKind.cubic(1.0, -0.5)),
    ("sign", lambda: NonlinearityKind.cubic(1.0, NAN)),
]


@pytest.mark.parametrize("named, call", CASES,
                         ids=[f"{i}-{named}" for i, (named, _) in enumerate(CASES)])
def test_bad_argument_is_refused_by_name(named, call):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value).startswith(f"{named} "), str(info.value)
