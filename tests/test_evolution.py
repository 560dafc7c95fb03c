"""Time propagation: conservation, phase bookkeeping, rejection, continuity."""

from __future__ import annotations

import functools
import hashlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import zgttrf, zgttrs

import sng.evolution
from sng.errors import InvalidArgumentError, StepRejectedError
from sng.evolution import (
    NonlinearityKind,
    ObservableSeries,
    RadialState,
    continuity_residual,
    evolve,
    gaussian_state,
    rms_width,
    scheme_energy,
    state_from_profile,
    state_norm,
    step,
)
from sng.grids import integrate_line, make_grid, solve_radial_poisson
from sng.physical import energy_breakdown, rescale_to_physical
from sng.shooting import solve_states


@pytest.fixture(scope="module")
def packet():
    return gaussian_state(make_grid(60.0, 2001), sigma=1.0)


# --- state construction ------------------------------------------------------

def test_gaussian_state_invariants(packet):
    assert state_norm(packet) == pytest.approx(1.0, abs=1e-12)
    assert rms_width(packet) == pytest.approx(np.sqrt(3.0), rel=1e-12)
    # origin value filled by the even-function limit
    assert packet.psi()[0].real == pytest.approx((2.0 * np.pi) ** -0.75, rel=1e-6)
    assert packet.u[0] == 0.0


@pytest.mark.parametrize("r_max, sigma, norm", [(60.0, 0.1, 0.319), (60.0, 0.3, 1.043),
                                                (10.0, 3.0, 0.989)])
def test_gaussian_state_refuses_a_packet_the_grid_cannot_hold(r_max, sigma, norm):
    # 201 points: sigma 0.1 and 0.3 are too narrow for spacing 0.3, and
    # sigma 3 is too wide for r_max 10
    grid = make_grid(r_max, 201)
    with pytest.raises(InvalidArgumentError, match="norm") as info:
        gaussian_state(grid, sigma)
    message = str(info.value)
    assert f"sigma {sigma:g}" in message and f"spacing {grid.spacing:g}" in message
    assert f"r_max {r_max:g}" in message
    measured = float(re.search(r"has norm (\S+),", message).group(1))
    assert measured == pytest.approx(norm, abs=1e-3)


def test_evolve_refuses_non_finite_observables():
    # a state the door lets through can still have an energy beyond a
    # double: a 10-scaled unit Gaussian (norm 100) under kappa = 1e306 has a
    # finite potential and a finite interaction sum, whose 2 pi multiple
    # overflows; evolve's observable check refuses it by name
    packet = gaussian_state(make_grid(40.0, 201), sigma=1.0)
    heavy = replace(packet, u=10.0 * packet.u)
    assert state_norm(heavy) == pytest.approx(100.0)
    for sign in (1, -1):
        with pytest.raises(InvalidArgumentError, match=r"^energy is -?inf at t = 0"):
            evolve(heavy, t_final=0.03, dt=0.01, nl=NonlinearityKind.cubic(1e306, sign))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("run", [lambda state, nl: step(state, 0.1, nl),
                                 lambda state, nl: evolve(state, 0.3, 0.1, nl)],
                         ids=["step", "evolve"])
def test_a_cubic_potential_that_overflows_is_refused_naming_kappa(run, sign):
    # a 100-scaled unit Gaussian (norm 1e4) passes the door, but kappa =
    # 1e306 times its peak density overflows: numpy warned, then a step
    # blamed dt and an evolve reported "energy is nan" (warnings are errors)
    packet = gaussian_state(make_grid(40.0, 201), sigma=1.0)
    heavy = RadialState(packet.grid, 100.0 * packet.u, 0.0)
    with pytest.raises(InvalidArgumentError, match=r"^kappa = 1e\+306 is too large"):
        run(heavy, NonlinearityKind.cubic(1e306, sign))


def test_state_rejects_nonzero_origin_and_bad_shapes():
    grid = make_grid(10.0, 101)
    u = np.ones(101, dtype=complex)
    with pytest.raises(InvalidArgumentError):
        RadialState(grid=grid, u=u, time=0.0)
    with pytest.raises(InvalidArgumentError):
        RadialState(grid=grid, u=np.zeros(100, dtype=complex), time=0.0)
    with pytest.raises(InvalidArgumentError, match="zero at every node"):
        RadialState(grid=grid, u=np.zeros(101, dtype=complex), time=0.0)


@pytest.mark.parametrize("sample", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                    complex(-np.inf, 0.0), complex(0.0, np.nan),
                                    complex(0.0, np.inf), complex(0.0, -np.inf)], ids=str)
def test_state_rejects_a_non_finite_sample(sample):
    grid = make_grid(10.0, 101)
    u = grid.nodes * np.exp(-grid.nodes) + 0.0j
    u[50] = sample
    with pytest.raises(InvalidArgumentError, match="non-finite samples"):
        RadialState(grid=grid, u=u, time=0.0)


def test_states_start_with_no_relaxation(natural_ground_profile, packet):
    # the constructors start a run; a V = 0 step has nothing to relax; a
    # step with a potential carries the potential its solve used, and a
    # state rebuilt from it by replace carries none
    assert state_from_profile(natural_ground_profile)._relaxation is None
    assert packet._relaxation is None
    assert step(packet, 0.01, NonlinearityKind.free())._relaxation is None
    nl = NonlinearityKind.cubic(1.0, -1)
    stepped = step(packet, 0.01, nl)
    phi, made_by_nl, made_by_dt = stepped._relaxation
    assert (made_by_nl, made_by_dt) == (nl, 0.01)
    assert replace(stepped, u=packet.u)._relaxation is None
    assert step(replace(stepped, u=packet.u), 0.01, nl).u.tobytes() == \
        step(replace(packet, time=stepped.time), 0.01, nl).u.tobytes()


def test_state_from_profile_preserves_norm_and_energy(natural_ground_profile):
    state = state_from_profile(natural_ground_profile)
    assert state_norm(state) == pytest.approx(1.0, abs=1e-9)
    nl = NonlinearityKind.gravity()
    # the scheme energy discretizes the functional whose stationary value is
    # eps/3; they agree to the grid's truncation level
    assert scheme_energy(state, nl) == pytest.approx(natural_ground_profile.epsilon_ag / 3.0,
                                                     rel=1e-4)


# --- stepping ----------------------------------------------------------------

def test_free_step_conserves_norm_and_scheme_energy(packet):
    nl = NonlinearityKind.free()
    e0 = scheme_energy(packet, nl)
    state = packet
    for _ in range(100):
        state = step(state, 0.01, nl)
    assert state_norm(state) == pytest.approx(state_norm(packet), rel=1e-12)
    assert scheme_energy(state, nl) == pytest.approx(e0, rel=1e-11)
    assert state.time == pytest.approx(1.0)


def test_free_width_follows_dispersion_law(packet):
    sigma = 1.0
    series = evolve(packet, t_final=2.0, dt=0.01, nl=NonlinearityKind.free(),
                    observe_every=20)
    exact = np.sqrt(3.0) * sigma * np.sqrt(1.0 + (series.times / (2.0 * sigma**2)) ** 2)
    assert np.abs(series.widths / exact - 1.0).max() < 1e-3


def test_cubic_zero_coupling_equals_free(packet):
    free = evolve(packet, t_final=0.5, dt=0.01, nl=NonlinearityKind.free())
    cubic0 = evolve(packet, t_final=0.5, dt=0.01,
                    nl=NonlinearityKind.cubic(kappa=0.0, sign=1))
    assert np.array_equal(free.norms, cubic0.norms)
    assert np.array_equal(free.energies, cubic0.energies)


def test_cubic_sign_shifts_energy_symmetrically(packet):
    e_free = scheme_energy(packet, NonlinearityKind.free())
    e_rep = scheme_energy(packet, NonlinearityKind.cubic(kappa=1.0, sign=1))
    e_att = scheme_energy(packet, NonlinearityKind.cubic(kappa=1.0, sign=-1))
    assert e_rep > e_free > e_att
    assert e_rep - e_free == pytest.approx(e_free - e_att, rel=1e-12)


def test_stationary_profile_density_is_static(natural_ground_profile):
    state = state_from_profile(natural_ground_profile)
    nl = NonlinearityKind.gravity()
    dens0 = np.abs(state.psi()) ** 2
    current = state
    for _ in range(50):
        current = step(current, 0.1, nl)
    wander = np.abs(np.abs(current.psi()) ** 2 - dens0).max() / dens0.max()
    assert wander < 1e-4


def test_phase_ledger_decomposition(natural_ground_profile):
    # the matrix carries T + m*Phi, so the stored wavefunction rotates at
    # the nonlinear eigenvalue; the ledger phase advances at the (negative)
    # interaction energy; their sum rotates at the single-particle energy,
    # which is the physically observable rate
    eb = energy_breakdown(natural_ground_profile)
    state = state_from_profile(natural_ground_profile)
    nl = NonlinearityKind.gravity()
    t_span = 2.0
    current = state
    for _ in range(20):
        current = step(current, 0.1, nl)
    probe = 500  # r = 5.0, well inside the support
    matrix_rotation = float(np.angle(current.psi()[probe] / state.psi()[probe]))
    epsilon = natural_ground_profile.epsilon_ag
    assert matrix_rotation == pytest.approx(-epsilon * t_span, abs=5e-5)
    assert current.phase == pytest.approx(eb.e_gravity * t_span, abs=5e-5)
    total = matrix_rotation + current.phase
    assert total == pytest.approx(-epsilon / 3.0 * t_span, abs=5e-5)


def test_gravity_step_phase_advances_at_the_midpoint_rate():
    # a dispersing packet's E_grav/norm moves within the step, so the pin
    # tells the rate at the step's midpoint from the starting state's,
    # -0.028229310550188482
    state = gaussian_state(make_grid(30.0, 401), sigma=1.0)
    assert repr(step(state, 0.1, NonlinearityKind.gravity()).phase) == "-0.028223825115468594"


@pytest.mark.parametrize("n", [0, 1])
def test_scf_eigenstate_rotates_at_the_exact_crank_nicolson_phase(n):
    # the SCF state is an eigenvector of the stepper's own three-point
    # Hamiltonian and Poisson kernel, eigenvalue eps, so each step turns u
    # by exactly -2 atan(eps dt/2) and the ledger adds E_grav/norm dt; the
    # interaction term of scheme_energy is that E_grav.  Measured: phase
    # errors 3.3e-12 and 1.3e-11 rad and density wanders 3.8e-13 and 2.1e-11
    from sng.scf import scf_solve

    scf = scf_solve(n, make_grid(40.0, 2001), tol=1e-13)
    state = RadialState(scf.f.grid, scf.f.grid.nodes * scf.f.values, 0.0)
    gravity = NonlinearityKind.gravity()
    e_grav = scheme_energy(state, gravity) - scheme_energy(state, NonlinearityKind.free())
    n_steps = 250
    period = 2.0 * np.pi / abs(scf.epsilon)
    dt = period / n_steps
    current = state
    for _ in range(n_steps):
        current = step(current, dt, gravity)
    exact = (-2.0 * n_steps * np.arctan(scf.epsilon * dt / 2.0)
             + e_grav / state_norm(state) * period)
    measured = np.angle(np.vdot(state.u, current.u)) + current.phase
    assert abs(np.angle(np.exp(1j * (measured - exact)))) <= 1e-9
    dens0 = np.abs(state.psi()) ** 2
    wander = np.abs(np.abs(current.psi()) ** 2 - dens0).max() / dens0.max()
    assert wander <= 1e-9


# --- the relaxation step -----------------------------------------------------

@pytest.mark.parametrize("nl", [NonlinearityKind.cubic(2.0, -1), NonlinearityKind.gravity()],
                         ids=lambda nl: nl.kind)
def test_relaxation_step_is_second_order_in_time(nl):
    # a packet on 30/601 to t = 1 at dt 0.05, 0.025 and 0.0125 against
    # dt 0.05/32: each halving of dt cuts the error by 4.01 and 4.05 for
    # both kinds (errors 1.33e-4 cubic and 5.07e-5 gravity at dt 0.05)
    start = gaussian_state(make_grid(30.0, 601), 1.0)

    def run(dt):
        state = start
        for _ in range(int(round(1.0 / dt))):
            state = step(state, dt, nl)
        assert state.time == pytest.approx(1.0)
        return state.u

    reference = run(0.05 / 32)
    errors = [_relative_error(run(dt), reference) for dt in (0.05, 0.025, 0.0125)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5, errors


@pytest.mark.parametrize("nl", [NonlinearityKind.cubic(1.0, -1), NonlinearityKind.gravity()],
                         ids=lambda nl: nl.kind)
def test_first_step_solves_under_the_starting_potential(nl):
    # phi^{-1/2} = V[u^0], so a run's first step is 2 y - u from the
    # Crank–Nicolson midpoint y solved under V[u^0] itself, bit for bit
    grid = make_grid(30.0, 401)
    packet = gaussian_state(grid, 1.0)
    state = replace(packet, u=packet.u * np.exp(0.3j * grid.nodes))
    v = sng.evolution._Evaluation(grid, state.u, nl).v
    mid = sng.evolution._solve(state.u, v, sng.evolution._lam(grid, 0.01), 0.01)
    expected = 2.0 * mid - state.u
    stepped = step(state, 0.01, nl)
    assert stepped.u.tobytes() == expected.tobytes()
    assert stepped._relaxation[0].tobytes() == v.tobytes()


@pytest.mark.parametrize("other_nl, other_dt", [
    (NonlinearityKind.cubic(1.0, -1), 0.02),
    (NonlinearityKind.cubic(2.0, -1), 0.01),
    (NonlinearityKind.cubic(1.0, 1), 0.01),
    (NonlinearityKind.gravity(), 0.01),
], ids=["dt", "kappa", "sign", "kind"])
def test_a_state_of_another_run_starts_its_relaxation_afresh(other_nl, other_dt):
    # a state made by cubic(1, -1) steps of dt 0.01, handed to a step or run
    # of another nonlinearity or dt, is stepped as if it carried nothing
    stepped = gaussian_state(make_grid(30.0, 401), 1.0)
    for _ in range(3):
        stepped = step(stepped, 0.01, NonlinearityKind.cubic(1.0, -1))
    bare = replace(stepped)  # the same u and time, carrying nothing
    assert step(stepped, other_dt, other_nl).u.tobytes() == \
        step(bare, other_dt, other_nl).u.tobytes()
    runs = [evolve(s, s.time + 3 * other_dt, other_dt, other_nl) for s in (stepped, bare)]
    assert _series_sha256(runs[0]) == _series_sha256(runs[1])


@pytest.mark.parametrize("kind", ["gravity", "cubic"])
def test_steps_then_evolve_end_on_one_evolve_bitwise(kind, coarse_ground_state):
    # k steps hand their carried potential to evolve, which takes the
    # remaining n - k steps and ends on the bits of one n-step evolve
    if kind == "gravity":
        state, dt, nl = coarse_ground_state, 0.1, NonlinearityKind.gravity()
    else:
        state = gaussian_state(make_grid(30.0, 401), 1.0)
        dt, nl = 0.01, NonlinearityKind.cubic(1.0, -1)
    n_steps, k = 10, 4
    whole = evolve(state, t_final=n_steps * dt, dt=dt, nl=nl, observe_every=n_steps)
    current = state
    for _ in range(k):
        current = step(current, dt, nl)
    rest = evolve(current, t_final=n_steps * dt, dt=dt, nl=nl, observe_every=n_steps)
    assert len(rest.times) == 2 and rest.times[-1] == pytest.approx(whole.times[-1])
    assert (rest.norms[-1], rest.energies[-1], rest.widths[-1]) == (
        whole.norms[-1], whole.energies[-1], whole.widths[-1])


# --- the localization scale --------------------------------------------------

def _share_inside(field, radius):
    """int 4 pi r^2 rho dr over r < radius."""
    r = field.grid.nodes
    inside = np.where(r < radius, field.values, 0.0)
    return 4.0 * np.pi * integrate_line(inside * r * r, field.grid)


def test_self_gravity_holds_packets_wider_than_the_energy_scale():
    # The self-potential "sets a scale for all wavepackets": a Gaussian of
    # per-axis sigma has negative energy past sigma_c = 3 sqrt(pi)/4 = 1.33
    # a_g (see the closed form in test_physical).  Giulini and Grossardt,
    # Class. Quantum Grav. 28, 195026 (2011), write the packet as
    # psi ~ exp(-r^2 / 2a^2), so a = sqrt(2) sigma, and the same estimate
    # reads a_c = 3 sqrt(2 pi)/4 = 1.88 a_g, a_g = hbar^2/(G m^3) for N = 1.
    # At t = 60 the share of the norm inside r < 8 reads 0.046 and 0.77
    # with gravity, 0.005 and 0.036 free; r_max 120 gives the same shares
    # to 1e-3, so the wall at 300 (edge density below 1e-25 of the peak)
    # neither reflects mass back nor trips the boundary warning
    grid = make_grid(300.0, 3001)
    n_steps = 1200
    shares = {}
    for sigma in (1.0, 2.0):
        for nl in (NonlinearityKind.gravity(), NonlinearityKind.free()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                series = evolve(gaussian_state(grid, sigma), t_final=60.0, dt=0.05, nl=nl,
                                observe_every=n_steps, snapshot_every=n_steps)
            shares[nl.kind, sigma] = _share_inside(series.snapshots[-1][1], 8.0)
    assert shares["gravity", 2.0] == pytest.approx(0.768, abs=0.01)
    assert shares["gravity", 1.0] == pytest.approx(0.046, abs=0.005)
    assert shares["free", 2.0] == pytest.approx(0.036, abs=0.005)
    assert shares["free", 1.0] == pytest.approx(0.005, abs=0.002)
    # bound past sigma_c, dispersing below it, and held back against free
    # dispersion at both widths
    assert shares["gravity", 2.0] > 0.5 > 0.1 > shares["gravity", 1.0]
    assert shares["gravity", 1.0] > 5.0 * shares["free", 1.0]


# --- stability of the bound states --------------------------------------------
#
# Harrison, Moroz and Tod, Nonlinearity 16, 101 (2003): the ground state is
# stable and the excited states are not.  On 80/801 the n = 1 growth rate
# reads 0.003036 from the linearized operator and 0.002994, 0.003005 and
# 0.003003 from evolve at dt 2, 1 and 0.5; n = 0 reads 8.5e-6 and -1.3e-5 at
# dt 2 and 1.  Both tests together take 3.1-4.1 s on one core.

STABILITY_GRID = make_grid(80.0, 801)


@pytest.fixture(scope="module")
def scf_states():
    from sng.scf import scf_solve

    return {n: scf_solve(n, STABILITY_GRID, tol=1e-13) for n in (0, 1)}


def _operator_rate(scf):
    """The largest growth rate of a perturbation w = a + ib of the stepper's
    eigenstate u0: a' = H b and b' = -(H + K) a, with H = -(1/2) D^2 + V0 -
    eps the stepper's three-point Hamiltonian and K a = u0 dV[a], dV taken
    column by column by central differences of the stepper's potential.  A
    mode a ~ exp(mu t) has mu^2 = -eig(H (H + K))."""
    grid, gravity = scf.f.grid, NonlinearityKind.gravity()
    u0 = grid.nodes * scf.f.values

    def potential(u):
        return sng.evolution._Evaluation(grid, u, gravity).v[1:-1]

    n, dr2 = grid.n_points - 2, grid.spacing ** 2
    h = np.diag(1.0 / dr2 + potential(u0) - scf.epsilon)
    h += np.diag(np.full(n - 1, -0.5 / dr2), 1) + np.diag(np.full(n - 1, -0.5 / dr2), -1)
    k = np.empty((n, n))
    bump = 1e-6 * np.max(np.abs(u0))
    for j in range(n):
        up, down = u0.copy(), u0.copy()
        up[j + 1] += bump
        down[j + 1] -= bump
        k[:, j] = u0[1:-1] * (potential(up) - potential(down)) / (2.0 * bump)
    mu2 = np.linalg.eigvals(h @ (h + k))
    return float(np.max(np.sqrt(-mu2.astype(complex)).real))


def _evolved_rate(scf, dt):
    """The growth rate of the density wander (L-inf over the peak) of the
    eigenstate seeded with a relative bump 1e-6 exp(-(r/5)^2) and evolved
    with gravity to t = 3000: a line through the log of the wander's largest
    value in each 100-long stretch of t in [800, 3000], read every 10."""
    grid = scf.f.grid
    r = grid.nodes
    state = RadialState(grid, r * scf.f.values * (1.0 + 1e-6 * np.exp(-(r / 5.0) ** 2)), 0.0)
    with warnings.catch_warnings():
        # the emitted tail reaches 1e-8 of the peak at the wall, far below
        # the wander that is fitted
        warnings.filterwarnings("ignore", "wavefunction amplitude at the outer boundary")
        series = evolve(state, 3000.0, dt, NonlinearityKind.gravity(), observe_every=10**9,
                        snapshot_every=int(round(10.0 / dt)))
    rho0 = scf.f.values ** 2
    times = np.array([t for t, _ in series.snapshots])
    wander = np.array([np.max(np.abs(f.values - rho0)) for _, f in series.snapshots])
    starts = np.arange(800.0, 3000.0, 100.0)
    peaks = [np.argmax(np.where((times >= a) & (times < a + 100.0), wander, -1.0))
             for a in starts]
    return float(np.polyfit(times[peaks], np.log(wander[peaks] / rho0.max()), 1)[0])


def test_first_excited_state_grows_at_the_linearized_rate(scf_states):
    operator = _operator_rate(scf_states[1])
    coarse, fine = _evolved_rate(scf_states[1], 2.0), _evolved_rate(scf_states[1], 1.0)
    assert operator == pytest.approx(0.00304, rel=0.02)
    # the two routes agree to 1.0% (1.4% at dt 2), and halving dt moves the
    # evolved rate 0.4%
    assert fine == pytest.approx(operator, rel=0.03)
    assert fine == pytest.approx(coarse, rel=0.01)


def test_ground_state_does_not_grow(scf_states):
    # a tenth of the n = 1 rate: over the fitted window the wander would
    # grow by e^0.66 = 1.9 at this floor, against e^6.6 = 740 for n = 1
    assert _evolved_rate(scf_states[0], 2.0) < 3e-4


# --- step rejection ----------------------------------------------------------
#
# rejection needs a state whose density SHAPE moves within the step: the
# potential is renormalized, so an exact eigenstate only picks up a global
# phase and never trips the guard, no matter how large dt is

def test_exact_eigenstate_never_trips_the_guard(natural_ground_profile):
    state = state_from_profile(natural_ground_profile)
    nl = NonlinearityKind.gravity()
    stepped = step(state, 50.0, nl)  # half a period in one stride: fine
    assert state_norm(stepped) == pytest.approx(1.0, abs=1e-9)


def test_oversized_gravity_step_is_rejected(packet):
    nl = NonlinearityKind.gravity()
    with pytest.raises(StepRejectedError) as exc_info:
        step(packet, 50.0, nl)
    suggested = exc_info.value.suggested_dt
    assert 0.0 < suggested < 50.0
    # the suggestion must be actually usable
    step(packet, suggested, nl)


def test_rejected_step_leaves_state_untouched(packet):
    u_before = packet.u.copy()
    nl = NonlinearityKind.gravity()
    with pytest.raises(StepRejectedError):
        step(packet, 50.0, nl)
    assert np.array_equal(packet.u, u_before)
    assert packet.time == 0.0


def test_a_step_whose_midpoint_density_vanishes_is_rejected():
    # u of 1e150 under cubic(1, 1) at dt 1e-10: dt V/2 is about 1e290, so
    # the midpoint (I + iK)^-1 u is about u / (i dt V/2), whose density is
    # ~0, and the potential changes by 100%.  The step was refused naming
    # dt while its right-hand side (I - iK) u was formed and overflowed;
    # only a library caller reaches it, as a CLI start has unit norm
    state = RadialState(make_grid(40.0, 201), np.r_[0.0, np.full(199, 1e150), 0.0], 0.0)
    with pytest.raises(StepRejectedError, match=re.escape(
            "potential changed 100.0% within one step of dt=1.000e-10")) as refused:
        step(state, 1e-10, NonlinearityKind.cubic(1.0, 1))
    assert refused.value.change == pytest.approx(1.0)


# --- the guard's certificate -------------------------------------------------
#
# a gravity step solves its midpoint's potential only where the shell
# theorem's bound on the change cannot clear the guard

def _guard_case(name):
    """A gravity state for the certificate's soundness cases."""
    if name.startswith("sigma"):
        return gaussian_state(make_grid(60.0, 1001), float(name[len("sigma"):]))
    if name == "chirped":
        packet = gaussian_state(make_grid(60.0, 1001), 1.0)
        return replace(packet, u=packet.u * np.exp(0.25j * packet.grid.nodes ** 2))
    points = int(name[len("ground"):])
    return state_from_profile(rescale_to_physical(solve_states([0], make_grid(40.0, points))[0]))


GUARD_CASES = ["sigma0.5", "sigma1", "sigma3", "chirped", "ground401", "ground4001"]


@pytest.fixture(scope="module")
def guard_states():
    """Each case twice: as a run's first step, carrying nothing, and one
    step of dt 1 later, carrying the relaxed potential that step solved with."""
    cases = {}
    for name in GUARD_CASES:
        start = _guard_case(name)
        later = step(start, 1.0, NonlinearityKind.gravity())
        cases[name] = [(start, None), (later, later._relaxation[0])]
    return cases


def _midpoint(state, dt, carried):
    """What ``_advance`` forms before its guard: the starting evaluation,
    the relaxed potential, the midpoint's evaluation and max|V[u]|."""
    ev = sng.evolution._Evaluation(state.grid, state.u, NonlinearityKind.gravity())
    phi = ev.v if carried is None else 2.0 * ev.v - carried
    u_mid = sng.evolution._solve(state.u, phi, sng.evolution._lam(state.grid, dt), dt)
    mid = sng.evolution._Evaluation(state.grid, u_mid, ev.nl)
    return ev, phi, mid, float(np.abs(ev.v).max())


@pytest.mark.parametrize("dt", [0.1, 1.0, 2.0, 4.0, 8.0, 12.0, 20.0, 50.0])
@pytest.mark.parametrize("name", GUARD_CASES)
def test_certificate_bounds_the_exact_guard_and_refuses_as_it_does(name, dt, guard_states):
    # both halves of the exact change, from the Poisson solve of the
    # midpoint density, lie under the certificate; _advance refuses exactly
    # where the larger exceeds 0.5, naming that change, whether or not it
    # solved the midpoint
    for state, carried in guard_states[name]:
        ev, phi, mid, scale = _midpoint(state, dt, carried)
        v_mid = solve_radial_poisson(mid.density, state.grid, 4.0 * np.pi / mid.norm)
        halves = [float(np.abs(v_mid - reference).max()) / scale for reference in (ev.v, phi)]
        assert sng.evolution._certificate(ev, mid, phi, scale) >= max(halves)
        lam = sng.evolution._lam(state.grid, dt)
        if max(halves) > 0.5:
            with pytest.raises(StepRejectedError) as refused:
                sng.evolution._advance(ev, dt, lam, carried)
            assert refused.value.change == max(halves)
        else:
            sng.evolution._advance(ev, dt, lam, carried)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-3, 1e3), st.integers(3, 300).flatmap(
    lambda n: st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
def test_poisson_kernel_is_bounded_by_its_origin_weights(rho_max, source):
    # the shell theorem on the kernel's own cells: for a signed source,
    # max|P[Delta]| <= w . |Delta|, where -w . Delta is P[Delta] at the
    # origin.  The bound needs w >= 0: a kernel whose cells put negative
    # weight on a node cannot be certified so
    grid = make_grid(rho_max, len(source))
    delta = np.array(source)
    w = grid._poisson_origin_weights
    assert (w >= 0.0).all()
    bound = float(np.dot(w, np.abs(delta)))
    potential = solve_radial_poisson(delta, grid, 1.0)
    assert float(np.abs(potential).max()) <= bound * (1.0 + 1e-12)
    assert potential[0] == pytest.approx(-float(np.dot(w, delta)), rel=1e-12, abs=1e-12 * bound)


def test_an_undefined_certificate_clears_nothing_and_warns_of_nothing(natural_ground_profile,
                                                                    monkeypatch):
    # the dt 50 stride of the exact eigenstate is certified (5.2e-6 against
    # an exact 1.2e-6); a midpoint whose norm is 0, or so small that 4 pi /
    # norm overflows, has no certificate, and a NaN or infinite one sends
    # the step to the exact test, which solves the midpoint and lets the
    # step through with the same bits
    state = state_from_profile(natural_ground_profile)
    ev, phi, mid, scale = _midpoint(state, 50.0, None)
    assert sng.evolution._certificate(ev, mid, phi, scale) < 1e-5
    grid = state.grid
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for factor in (0.0, 1e-155):
            empty = sng.evolution._Evaluation(grid, factor * mid.u, ev.nl)
            assert empty.norm == 0.0 or empty.coupling == np.inf
            assert not sng.evolution._certificate(ev, empty, phi, scale) <= 0.5, factor
    assert [str(w.message) for w in caught] == []
    calls = _count_calls(monkeypatch, sng.evolution, "solve_radial_poisson")
    certified = _series_sha256(evolve(state, 50.0, 50.0, NonlinearityKind.gravity()))
    assert len(calls) == 2  # V[u] and V[u'], and none at the midpoint
    for certificate in (np.nan, np.inf):
        monkeypatch.setattr(sng.evolution, "_certificate", lambda *args, c=certificate: c)
        calls.clear()
        assert _series_sha256(evolve(state, 50.0, 50.0, NonlinearityKind.gravity())) == certified
        assert len(calls) == 3


def test_invalid_dt_rejected(packet):
    for dt in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="dt must be positive"):
            step(packet, dt, NonlinearityKind.free())
        with pytest.raises(InvalidArgumentError, match="dt must be positive"):
            evolve(packet, t_final=1.0, dt=dt, nl=NonlinearityKind.free())


# --- evolve bookkeeping ------------------------------------------------------

def test_observable_series_shapes_and_cadence(packet):
    series = evolve(packet, t_final=0.2, dt=0.01, nl=NonlinearityKind.free(),
                    observe_every=5, snapshot_every=10)
    # recorded at steps 0, 5, 10, 15, 20
    assert len(series.times) == 5
    assert np.allclose(np.diff(series.times), 0.05)
    # snapshots at steps 0, 10, 20
    assert len(series.snapshots) == 3
    t0, field0 = series.snapshots[0]
    assert t0 == 0.0
    assert field0.values[0] == pytest.approx(np.abs(packet.psi()[0]) ** 2)


def test_observable_series_validates_time_ordering():
    with pytest.raises(InvalidArgumentError):
        ObservableSeries(times=np.array([0.0, 0.0]), norms=np.ones(2),
                         energies=np.ones(2), widths=np.ones(2))


def test_observable_series_refuses_series_of_different_lengths():
    with pytest.raises(InvalidArgumentError, match="lengths differ"):
        ObservableSeries(times=np.array([0.0, 1.0]), norms=np.ones(2),
                         energies=np.ones(3), widths=np.ones(2))


def test_nonlinearity_kind_refuses_an_unknown_kind():
    with pytest.raises(InvalidArgumentError, match="unknown nonlinearity kind 'quartic'"):
        NonlinearityKind("quartic")


def _oversized_runs():
    """(label, call) for a step and an evolve of each kind."""
    kinds = {"free": NonlinearityKind.free(), "cubic": NonlinearityKind.cubic(1.0, 1),
             "gravity": NonlinearityKind.gravity()}
    runs = []
    for name, nl in kinds.items():
        runs.append((f"step-{name}", lambda state, nl=nl: step(state, 0.1, nl)))
        runs.append((f"evolve-{name}", lambda state, nl=nl: evolve(state, 0.3, 0.1, nl)))
    return runs


OVERSIZED_RUNS = _oversized_runs()


def test_free_step_refuses_sine_modes_that_overflow():
    # the one door for a state's scale: a u whose norm overflows (1e308 on
    # 40/201), or whose norm fits while its density |u/r|^2 overflows (1e60
    # on 1e-100/201), is refused where the state is built, whatever then
    # runs it, by name, without naming dt and with no numpy warning
    # (warnings are errors here); no sine mode of such a u is ever formed
    cases = [(make_grid(40.0, 201), 1e308), (make_grid(1e-100, 201), 1e60)]
    for grid, sample in cases:
        u = np.r_[0.0, np.full(199, sample), 0.0]
        for label, run in OVERSIZED_RUNS:
            with pytest.raises(InvalidArgumentError, match="^u is too large: ") as info:
                run(RadialState(grid, u, 0.0))
            assert "dt" not in str(info.value), (sample, label)


@pytest.mark.parametrize("label, run", OVERSIZED_RUNS, ids=[label for label, _ in OVERSIZED_RUNS])
def test_u_of_1e200_is_refused_by_name(label, run):
    # u = 1e200 on 40/201 met six outcomes: a free step returned a state of
    # infinite norm; a free or cubic evolve warned and then refused "norm is
    # inf"; a cubic step warned and blamed dt; a gravity step named u "for a
    # gravity step", and a gravity evolve warned first
    u = np.r_[0.0, np.full(199, 1e200), 0.0]
    with pytest.raises(InvalidArgumentError,
                       match="^u is too large: its norm or its density overflows a double$"):
        run(RadialState(make_grid(40.0, 201), u, 0.0))


def test_evolve_warns_when_packet_reaches_boundary():
    state = gaussian_state(make_grid(8.0, 201), sigma=1.0)
    with pytest.warns(UserWarning, match="outer boundary"):
        evolve(state, t_final=4.0, dt=0.02, nl=NonlinearityKind.free())


def test_evolve_rejects_bad_cadence(packet):
    with pytest.raises(InvalidArgumentError):
        evolve(packet, t_final=0.1, dt=0.01, nl=NonlinearityKind.free(),
               observe_every=0)
    with pytest.raises(InvalidArgumentError):
        evolve(packet, t_final=-1.0, dt=0.01, nl=NonlinearityKind.free())


def test_evolve_refuses_a_step_count_beyond_a_double():
    # (t_final - time)/dt overflows to inf, which int(round(...)) cannot take
    state = gaussian_state(make_grid(10.0, 201), 1.0)
    with pytest.raises(InvalidArgumentError,
                       match=r"^t_final = 1e\+308 is too many steps of dt = 1e-308 away"):
        evolve(state, 1e308, 1e-308, NonlinearityKind.free())


# --- continuity --------------------------------------------------------------

def test_continuity_residual_tiny_for_stationary_state(natural_ground_profile):
    state = state_from_profile(natural_ground_profile)
    nl = NonlinearityKind.gravity()
    after = step(state, 0.1, nl)
    assert continuity_residual(state, after) < 1e-6


def test_continuity_residual_refines_at_second_order():
    def residual(points, dt, warm):
        state = gaussian_state(make_grid(60.0, points), sigma=1.0)
        nl = NonlinearityKind.free()
        for _ in range(warm):
            state = step(state, dt, nl)
        return continuity_residual(state, step(state, dt, nl))

    coarse = residual(2001, 0.01, 10)
    fine = residual(4001, 0.005, 20)
    assert coarse < 5e-6
    assert 2.5 < coarse / fine < 6.5


def test_continuity_residual_rejects_mismatched_states(packet):
    other_grid = gaussian_state(make_grid(60.0, 1001), sigma=1.0)
    with pytest.raises(InvalidArgumentError):
        continuity_residual(packet, other_grid)
    with pytest.raises(InvalidArgumentError):
        continuity_residual(packet, packet)  # no time elapsed


def test_time_reversal_round_trip(packet):
    # Crank-Nicolson is time-symmetric: stepping forward then conjugating,
    # stepping, and conjugating again returns the start to roundoff
    nl = NonlinearityKind.free()
    fwd = step(packet, 0.01, nl)
    back = replace(fwd, u=np.conj(fwd.u), time=0.0)
    round_trip = step(back, 0.01, nl)
    assert np.abs(np.conj(round_trip.u) - packet.u).max() < 1e-13


# --- bitwise pins and work counts ------------------------------------------
#
# sha256 of norms, energies, widths and snapshot densities; any reordering
# of the floating-point work shows up here.  All were recorded when the
# Crank–Nicolson solve began to return the step's midpoint and |u|^2 became
# re^2 + im^2 (norms, energies and widths moved by at most 8e-15 relative,
# the gravity snapshots by 7.3e-14 of the peak density); before that the
# free runs agreed with the LAPACK stepper's series to 6e-15 relative.

def _series_sha256(series):
    arrays = [series.norms, series.energies, series.widths]
    if series.snapshots is not None:
        arrays += [fld.values for _, fld in series.snapshots]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


PINNED_SERIES = {
    ("free", 1): (101, "db2f033a1aa31a496c982b4ad3e75fe6daac0eeddd766ed4a6db72d5ea92b5bc"),
    ("free", 50): (3, "76bffbb9c76288c5ad7e9c720069eeaf860f671c2d4be08b38fd73de63c5e3e9"),
    ("cubic", 1): (51, "814b20007bc06845b9d318fe983d0b0c3d6f724048b6966fc63090dfe84a5fe6"),
    ("cubic", -1): (51, "e20a7e1571f1b8d936a5c951eb453dd6ffb740cc7c722fbba1faf939f335d5dd"),
    ("gravity", 1): (101, "de6b95cc6aae070723742202fdb12a5623c070b9ca42a1ce9b059413d7853c1a"),
    ("gravity", 50): (3, "04707db0835b8f080f3e22983beeb5042d12bb838c35ac6ec883d094aec1e965"),
}


@pytest.fixture(scope="module")
def coarse_ground_state():
    """n = 0 in natural units on a coarse grid, for fast gravity runs."""
    sol = solve_states([0], make_grid(40.0, 801))[0]
    return state_from_profile(rescale_to_physical(sol))


def test_evolution_outputs_are_bitwise_pinned(coarse_ground_state):
    packet = gaussian_state(make_grid(30.0, 401), sigma=1.0)
    runs = {}
    for every in (1, 50):
        runs["free", every] = evolve(packet, t_final=1.0, dt=0.01,
                                     nl=NonlinearityKind.free(), observe_every=every)
        runs["gravity", every] = evolve(coarse_ground_state, t_final=10.0, dt=0.1,
                                        nl=NonlinearityKind.gravity(),
                                        observe_every=every, snapshot_every=25)
        assert len(runs["gravity", every].snapshots) == 5
    for sign in (1, -1):
        runs["cubic", sign] = evolve(packet, t_final=0.5, dt=0.01,
                                     nl=NonlinearityKind.cubic(kappa=1.0, sign=sign))
    for key, (length, digest) in PINNED_SERIES.items():
        assert len(runs[key].times) == length, key
        assert _series_sha256(runs[key]) == digest, key


@pytest.mark.parametrize("kind", ["gravity", "cubic"])
def test_repeated_steps_reproduce_evolve_bitwise(kind, coarse_ground_state):
    # step and evolve run one kernel: n steps taken one at a time end on the
    # norm, energy and width that evolve records after n steps, bit for bit
    if kind == "gravity":
        state, dt, nl = coarse_ground_state, 0.1, NonlinearityKind.gravity()
    else:
        state = gaussian_state(make_grid(30.0, 401), 1.0)
        dt, nl = 0.01, NonlinearityKind.cubic(1.0, -1)
    n_steps = 10
    series = evolve(state, t_final=n_steps * dt, dt=dt, nl=nl, observe_every=n_steps)
    current = state
    for _ in range(n_steps):
        current = step(current, dt, nl)
    assert current.time == series.times[-1]
    assert (state_norm(current), scheme_energy(current, nl), rms_width(current)) == (
        series.norms[-1], series.energies[-1], series.widths[-1])


def _count_calls(monkeypatch, module, name):
    """Record each call of ``module.name`` made by code that looks the name
    up on ``module`` at call time."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_zero_potential_calls_no_lapack_and_a_potential_step_one_zgtsv(
        packet, coarse_ground_state, monkeypatch):
    # with V = 0 the step is a jump of the sine modes, done by numpy's FFT
    sng.evolution._sine_spectrum.cache_clear()
    # the stepper calls LAPACK through the module, which each solve imports
    names = ("zgttrf", "zgttrs", "zgtsv")
    calls = {name: _count_calls(monkeypatch, scipy.linalg.lapack, name) for name in names}
    for nl in (NonlinearityKind.free(), NonlinearityKind.cubic(0.0, -1)):
        evolve(packet, t_final=0.07, dt=0.01, nl=nl, observe_every=3)
        step(packet, 0.01, nl)
    assert [len(calls[name]) for name in names] == [0, 0, 0]

    # a step with a potential is one solve under the relaxed potential, and
    # it uses its matrix once: one fused factor-and-solve, on a run's first
    # step and on the steps that extrapolate the carried potential
    for state, dt, nl in [(coarse_ground_state, 0.1, NonlinearityKind.gravity()),
                          (packet, 0.01, NonlinearityKind.cubic(1.0, -1))]:
        for start in (state, step(state, dt, nl)):
            for found in calls.values():
                found.clear()
            step(start, dt, nl)
            assert [len(calls[name]) for name in names] == [0, 0, 1], nl.kind


def _banded_reference(u, v, dt, grid):
    """The Crank–Nicolson step (I + iK) u' = (I - iK) u as scipy's general
    banded solver does it."""
    dr = grid.spacing
    lam = dt / (4.0 * dr * dr)
    vterm = 0.5j * dt * v
    ab = np.empty((3, grid.n_points - 2), dtype=np.complex128)
    ab[0, :] = -1.0j * lam
    ab[1, :] = (1.0 + 2.0j * lam + vterm)[1:-1]
    ab[2, :] = -1.0j * lam
    rhs = (1.0 - 2.0j * lam - vterm)[1:-1] * u[1:-1] + 1.0j * lam * (u[2:] + u[:-2])
    out = np.zeros(grid.n_points, dtype=np.complex128)
    out[1:-1] = solve_banded((1, 1), ab, rhs)
    return out


def _relative_error(got, expected):
    return float(np.abs(got - expected).max() / np.abs(expected).max())


def _edge_state():
    """A moving packet on 401 points whose outer end u[-1] is far from 0."""
    grid = make_grid(10.0, 401)
    r = grid.nodes
    u = r * np.exp(-r * r / 8.0) * np.exp(0.3j * r)
    u[-1] = 0.2 - 0.1j
    return RadialState(grid, u, 0.0)


@pytest.mark.parametrize("jump", [1, 7, 50])
@pytest.mark.parametrize("start", ["packet", "outer_end"])
def test_sine_mode_jump_equals_repeated_banded_solves(jump, start, packet):
    # g Crank–Nicolson steps at V = 0 as g banded solves, against one jump
    # of the sine modes and against g calls of step; the first banded
    # solve reads u[-1], the later ones the zero step leaves there
    state = packet if start == "packet" else _edge_state()
    assert (state.u[-1] != 0.0) == (start == "outer_end")
    dt, nl = 0.01, NonlinearityKind.free()
    expected = state.u
    stepped = state
    for _ in range(jump):
        expected = _banded_reference(expected, np.zeros(len(expected)), dt, state.grid)
        stepped = step(stepped, dt, nl)
    sine = sng.evolution._SineModes(state.grid, dt, state.u)
    assert _relative_error(sine.jump(jump), expected) < 1e-13
    assert _relative_error(stepped.u, expected) < 1e-13
    assert stepped.u[-1] == 0.0


def test_zero_potential_drift_is_round_off_over_1000_steps(packet):
    # each sine mode only turns its phase, so the norm and the scheme
    # energy hold to round-off however many steps pass
    for nl in (NonlinearityKind.free(), NonlinearityKind.cubic(0.0, 1)):
        series = evolve(packet, t_final=10.0, dt=0.01, nl=nl)
        assert len(series.times) == 1001
        assert np.abs(series.norms / series.norms[0] - 1.0).max() <= 1e-14
        assert np.abs(series.energies / series.energies[0] - 1.0).max() <= 1e-14


def _chirped_packet(r_max, points):
    """A unit Gaussian of sigma 1 on r_max/points moving outward, u e^{0.3i r}."""
    packet = gaussian_state(make_grid(r_max, points), 1.0)
    return replace(packet, u=packet.u * np.exp(0.3j * packet.grid.nodes))


# (start, nonlinearity, dt) of a first step; "pivoted" makes zgttrf swap rows,
# and "outer_end" starts from an outer end u[-1] = 0.2 - 0.1j
STEP_CASES = {
    "free": (lambda: _chirped_packet(30.0, 401), NonlinearityKind.free(), 0.01),
    "cubic": (lambda: _chirped_packet(30.0, 401), NonlinearityKind.cubic(3.0, -1), 0.01),
    "gravity": (lambda: _chirped_packet(30.0, 401), NonlinearityKind.gravity(), 0.01),
    "pivoted": (lambda: _chirped_packet(60.0, 2001), NonlinearityKind.cubic(1e3, -1), 0.5),
    "outer_end": (lambda: _edge_state(), NonlinearityKind.cubic(3.0, -1), 0.01),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_a_step_solves_its_crank_nicolson_equations(case):
    # whatever algebra the kernel uses, the u' that step returns meets
    # A u' = conj(A) u on the interior rows, A = I + iK with
    # iK x = i lam (2 x_k - x_{k+1} - x_{k-1}) + i (dt/2) phi_k x_k on the
    # full vectors, ends included, under the potential phi the step solved
    # with: to n eps (||A|| ||u'|| + ||conj(A)|| ||u||) in the sup norm, the
    # a-priori bound of a backward-stable tridiagonal solve (partial
    # pivoting grows a tridiagonal factor at most twofold) and of forming
    # both sides.  Measured: at most 0.0014 of the bound
    start, nl, dt = STEP_CASES[case]
    state = start()
    grid = state.grid
    if case == "pivoted":  # the guard refuses this step (96.6%): u' as the kernel forms it
        with pytest.raises(StepRejectedError):
            step(state, dt, nl)
        phi = sng.evolution._Evaluation(grid, state.u, nl).v
        after = 2.0 * sng.evolution._solve(state.u, phi, sng.evolution._lam(grid, dt), dt)
        after -= state.u
    else:
        stepped = step(state, dt, nl)
        after = stepped.u
        phi = np.zeros(grid.n_points) if stepped._relaxation is None else stepped._relaxation[0]
    lam = dt / (4.0 * grid.spacing ** 2)

    def ik(x):
        return 1j * lam * (2.0 * x[1:-1] - x[2:] - x[:-2]) + 0.5j * dt * phi[1:-1] * x[1:-1]

    residual = np.abs(after[1:-1] + ik(after) - (state.u[1:-1] - ik(state.u))).max()
    norm_a = float(np.abs(1.0 + 2.0j * lam + 0.5j * dt * phi[1:-1]).max()) + 2.0 * lam
    bound = grid.n_points * np.finfo(float).eps * norm_a * (
        np.abs(after).max() + np.abs(state.u).max())
    assert residual <= bound, (residual, bound)
    assert after[0] == after[-1] == 0.0


def _midpoint_reference(u, v, dt, grid):
    """The Crank–Nicolson midpoint as scipy's general banded solver finds
    it: the right-hand side is u on the interior, its last row carrying
    half the old outer end's i lam u[-1]."""
    lam = dt / (4.0 * grid.spacing ** 2)
    ab = np.empty((3, grid.n_points - 2), dtype=np.complex128)
    ab[0, :] = ab[2, :] = -1.0j * lam
    ab[1, :] = 1.0 + 2.0j * lam + 0.5j * dt * v[1:-1]
    rhs = u[1:-1].copy()
    rhs[-1] += 0.5j * lam * u[-1]
    out = np.zeros(grid.n_points, dtype=np.complex128)
    out[1:-1] = solve_banded((1, 1), ab, rhs)
    out[-1] = 0.5 * u[-1]
    return out


@pytest.mark.parametrize("nl", [NonlinearityKind.free(), NonlinearityKind.cubic(3.0, -1),
                                NonlinearityKind.gravity()], ids=lambda nl: nl.kind)
def test_crank_nicolson_solve_equals_banded_solve_bitwise(nl):
    state = _chirped_packet(30.0, 401)
    grid, u = state.grid, state.u
    v = sng.evolution._Evaluation(grid, u, nl).v
    lam = sng.evolution._lam(grid, 0.01)
    expected = _midpoint_reference(u, v, 0.01, grid)
    assert np.array_equal(sng.evolution._solve(u, v, lam, 0.01), expected)
    if nl.kind == "free":
        assert _relative_error(step(state, 0.01, nl).u, 2.0 * expected - u) < 1e-13


def test_pivoted_crank_nicolson_solve_equals_factor_and_back_substitute_bitwise():
    # a strongly attractive cubic potential makes zgttrf swap rows; the fused
    # zgtsv solve must still match the factor-then-solve pair and scipy's
    # banded solver byte for byte.  The outer end is 0, so the right-hand
    # side is u's interior itself
    dt = 0.5
    state = _chirped_packet(60.0, 2001)
    grid, u = state.grid, state.u
    assert u[-1] == 0.0
    v = sng.evolution._Evaluation(grid, u, NonlinearityKind.cubic(1e3, -1)).v
    lam = sng.evolution._lam(grid, dt)
    off = np.full(grid.n_points - 3, -1.0j * lam)
    *lu, info = zgttrf(off, 1.0 + 2.0j * lam + 0.5j * dt * v[1:-1], off)
    assert info == 0
    ipiv = lu[-1]
    assert np.count_nonzero(ipiv != np.arange(1, len(ipiv) + 1)) > 0
    x, info = zgttrs(*lu, u[1:-1])
    assert info == 0
    got = sng.evolution._solve(u, v, lam, dt)
    assert got[1:-1].tobytes() == x.tobytes()
    assert got.tobytes() == _midpoint_reference(u, v, dt, grid).tobytes()


def test_crank_nicolson_midpoint_of_a_huge_u_is_finite_and_no_larger():
    # the midpoint's right-hand side is u itself, so no product overflows:
    # the u of 1e300 whose (1 - 2i lam) u overflowed when the solve formed
    # (I - iK) u gives a finite y = (I + iK)^-1 u, no larger than u, as
    # ||(I + iK)^-1||_2 <= 1 for Hermitian K (max|y| is 1.25e293 here)
    grid = make_grid(10.0, 101)
    u = np.zeros(grid.n_points, dtype=np.complex128)
    u[1:-1] = 1e300
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        y = sng.evolution._solve(u, np.zeros(grid.n_points), 1e10, 0.01)
    assert [w.category for w in caught] == []
    assert np.isfinite(y).all()
    assert np.abs(y).max() <= np.abs(u).max()
    assert np.linalg.norm(y / 1e300) <= np.linalg.norm(u / 1e300)


@pytest.mark.parametrize("nl", [NonlinearityKind.cubic(3.0, -1), NonlinearityKind.gravity()],
                         ids=lambda nl: nl.kind)
def test_crank_nicolson_solve_leaves_its_inputs_alone(nl):
    # zgtsv overwrites every array it is handed: the solve hands it its own
    grid = make_grid(30.0, 401)
    u = gaussian_state(grid, sigma=1.0).u * np.exp(0.3j * grid.nodes)
    v = sng.evolution._Evaluation(grid, u, nl).v
    lam = sng.evolution._lam(grid, 0.01)
    before = [a.copy() for a in (u, v)]
    got = sng.evolution._solve(u, v, lam, 0.01)
    for a, b in zip((u, v), before):
        assert a.tobytes() == b.tobytes()
        assert not np.shares_memory(got, a)
    # the midpoint's ends: u[0] = 0, and u[-1]/2 between u[-1] and the new 0
    assert got[0] == 0.0 and got[-1] == 0.5 * u[-1] != 0.0


def test_gravity_evolve_solves_poisson_once_per_step(coarse_ground_state, monkeypatch):
    # one solve for each observed state (shared by its energy row and the
    # next step), plus the initial state; the certificate clears every
    # step of the stationary run, so no midpoint is solved.  Every solve
    # goes through the one Poisson kernel
    calls = _count_calls(monkeypatch, sng.evolution, "solve_radial_poisson")
    n_steps = 7
    evolve(coarse_ground_state, t_final=n_steps * 0.1, dt=0.1,
           nl=NonlinearityKind.gravity(), observe_every=1)
    assert len(calls) == n_steps + 1


def test_a_step_the_certificate_cannot_clear_solves_its_midpoint(monkeypatch):
    # a sigma = 1 packet's step of dt 12 changes its potential by 33.4%,
    # under the guard's 50%, but the certificate reads 54.8%: the midpoint
    # is solved, and the step goes through
    calls = _count_calls(monkeypatch, sng.evolution, "solve_radial_poisson")
    evolve(gaussian_state(make_grid(60.0, 1001), 1.0), t_final=12.0, dt=12.0,
           nl=NonlinearityKind.gravity())
    assert len(calls) == 3


def test_gravity_evolve_evaluates_each_state_once(coarse_ground_state, monkeypatch):
    # |u|^2 once per observed state, shared by its norm, width and density
    # (its energy row, the boundary check, its snapshot and the next step's
    # potential), and once at each step's midpoint; no psi = u/r is formed.
    # The line integrals are int |u|^2 dr and the width's int r^2 |u|^2 dr
    # per observed state, and int |u|^2 dr per midpoint; evolve keeps no
    # phase ledger, so it takes no E_grav/norm.
    squares = []
    derive = sng.evolution._Evaluation.u2.func

    def counted(ev):
        squares.append(ev)
        return derive(ev)

    u2 = functools.cached_property(counted)
    u2.__set_name__(sng.evolution._Evaluation, "u2")
    monkeypatch.setattr(sng.evolution._Evaluation, "u2", u2)
    psis = _count_calls(monkeypatch, sng.evolution, "psi_from_u")
    lines = _count_calls(monkeypatch, sng.evolution, "integrate_line")
    n_steps = 7
    evolve(coarse_ground_state, t_final=n_steps * 0.1, dt=0.1,
           nl=NonlinearityKind.gravity(), observe_every=1, snapshot_every=1)
    assert len(squares) == (n_steps + 1) + n_steps
    assert psis == []
    assert len(lines) == 2 * (n_steps + 1) + n_steps


def test_density_is_u2_over_r2_with_psi_origin_limit():
    # past the origin |u|^2 / r^2 is |u/r|^2 to rounding; at the origin the
    # density is |psi(0)|^2 of psi's even-function limit, bit for bit
    state = _chirped_packet(30.0, 401)
    density = sng.evolution._Evaluation(state.grid, state.u).density
    psi = state.psi()
    assert density[0] == abs(psi[0]) ** 2
    assert np.abs(density - np.abs(psi) ** 2).max() <= 4 * np.finfo(float).eps * density.max()
