"""Release-gate criteria, one test per criterion.

Each test records exactly one PASS/FAIL line in the end-of-run report (see
conftest).  Tolerances here are the gate's contract — they must not be
loosened to make a failing build green; a red line plus analysis is the
honest outcome when something regresses.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from sng.checks import run_suite
from sng.cli import main as cli_main
from sng.evolution import NonlinearityKind, scheme_energy, state_from_profile
from sng.physical import (
    HBAR,
    NEWTON_G,
    NUCLEON_MASS,
    UnitScales,
    energy_breakdown,
    half_max_radius,
    rescale_to_physical,
)

pytestmark = pytest.mark.filterwarnings("error")


def _load_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def _require_rows(block, rows, names=None):
    """Assert the named suite rows pass, with measured/bound detail on failure."""
    for row in rows:
        if names is not None and row.name not in names:
            continue
        block.require(
            row.passed,
            f"{row.suite}/{row.name}: measured {row.measured:.3e} vs bound {row.bound:.3e}",
        )


def _sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values[np.abs(values) > 1e-12])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


# criterion 1 -----------------------------------------------------------------

def test_criterion_01_spectrum_structure(criterion, tmp_path):
    title = "spectrum n=0..4: node counts, monotone gamma0, brackets <= 1e-8, < 60 s"
    with criterion(1, title) as c:
        out = tmp_path / "spectrum.json"
        t0 = time.perf_counter()
        code = cli_main(["spectrum", "--n-max", "4", "--out-json", str(out)])
        elapsed = time.perf_counter() - t0
        c.require(code == 0, f"spectrum exited {code}")
        c.require(elapsed < 60.0, f"spectrum took {elapsed:.1f} s (budget 60 s)")
        states = json.loads(out.read_text())
        c.require(len(states) == 5, f"expected 5 states, got {len(states)}")
        c.require([s["node_count"] for s in states] == [0, 1, 2, 3, 4],
                  f"node counts {[s['node_count'] for s in states]}")
        gammas = [s["gamma0"] for s in states]
        c.require(all(a > b for a, b in zip(gammas, gammas[1:])),
                  f"gamma0 not strictly decreasing: {gammas}")
        worst_width = max(s["bracket_width"] for s in states)
        c.require(worst_width <= 1e-8, f"worst bracket width {worst_width:.2e}")

        # profile shapes, straight from the CSV files the tool writes
        for n in (0, 1):
            code = cli_main(["solve", "--n", str(n),
                             "--out-json", str(tmp_path / f"n{n}.json")])
            c.require(code == 0, f"solve --n {n} exited {code}")
        f0 = _load_csv(tmp_path / "n0.csv")["f_star"]
        f1 = _load_csv(tmp_path / "n1.csv")["f_star"]
        head = f0[: int(0.9 * len(f0))]
        c.require(bool(np.all(np.diff(head) < 0.0) and np.all(np.diff(f0) <= 0.0)),
                  "n=0 profile is not monotonically decaying")
        c.require(_sign_changes(f0) == 0, "n=0 profile changes sign")
        c.require(_sign_changes(f1) == 1,
                  f"n=1 profile has {_sign_changes(f1)} sign changes, want 1")
        c.note(f"spectrum wall time {elapsed:.1f} s; worst bracket {worst_width:.1e}")


# criterion 2 -----------------------------------------------------------------

def test_criterion_02_oracle_equivalence(criterion, request):
    title = "shooting matches the self-consistent-field oracle (n=0 to 1e-4, n=1 to 1e-3), < 5 min"
    with criterion(2, title) as c:
        # materialize the session fixture inside the timer so the budget
        # covers the actual SCF + shooting work (this test runs first)
        t0 = time.perf_counter()
        rows = request.getfixturevalue("oracle_suite_rows")
        elapsed = time.perf_counter() - t0
        _require_rows(c, rows)
        c.require(elapsed < 300.0, f"oracle comparison took {elapsed:.0f} s (budget 300 s)")
        worst = max(r.measured / r.bound for r in rows)
        c.note(f"worst margin {worst:.1%} of bound; wall time {elapsed:.1f} s")


# criterion 3 -----------------------------------------------------------------

def test_criterion_03_virial_identity(criterion):
    title = "virial residual <= 1e-3 for n=0..2, shrinking at second order"
    with criterion(3, title) as c:
        _require_rows(c, run_suite("virial"))


# criterion 4 -----------------------------------------------------------------

def test_criterion_04_eigenvalue_chain(criterion, natural_ground_profile):
    title = "eigenvalue three ways (3/2 gravity, rescale, 3x scheme energy) within 1e-3"
    with criterion(4, title) as c:
        eb = energy_breakdown(natural_ground_profile)
        # the stepper's own energy functional: E = eps/3 on a stationary state
        scheme = scheme_energy(state_from_profile(natural_ground_profile),
                               NonlinearityKind.gravity())
        routes = {
            "threehalves_gravity": 1.5 * eb.e_gravity,
            "rescale": natural_ground_profile.epsilon_ag,
            "three_single": 3.0 * scheme,
        }
        for (na, va), (nb, vb) in [
            (("threehalves_gravity", routes["threehalves_gravity"]),
             ("rescale", routes["rescale"])),
            (("rescale", routes["rescale"]),
             ("three_single", routes["three_single"])),
            (("threehalves_gravity", routes["threehalves_gravity"]),
             ("three_single", routes["three_single"])),
        ]:
            rel = abs(va - vb) / abs(va)
            c.require(rel <= 1e-3, f"{na} vs {nb}: {rel:.2e}")
        c.note("quadrature vs rescale rel diff "
               f"{abs(routes['threehalves_gravity'] / routes['rescale'] - 1):.1e}")


# criterion 5 -----------------------------------------------------------------

def test_criterion_05_homogeneity(criterion):
    title = "energy functional is degree-2 homogeneous to 1e-12 (three states, three scales)"
    with criterion(5, title) as c:
        _require_rows(c, run_suite("homogeneity"))


# criterion 6 -----------------------------------------------------------------

def test_criterion_06_physical_scales(criterion, ground_state):
    title = "nucleon scales: half-max size ~ 10 Bohr radii ~ 1e23 m (N=1), ~ 1 m (N=1e23)"
    with criterion(6, title) as c:
        single = UnitScales.of(NUCLEON_MASS, 1.0)
        a_g = single.length
        c.require(abs(a_g / (HBAR**2 / (NEWTON_G * NUCLEON_MASS**3)) - 1) < 1e-12,
                  "Bohr-radius arithmetic broken")
        r_half_ag = half_max_radius(rescale_to_physical(ground_state))
        r_half = r_half_ag * single.length
        ratio_10ag = 10.0 * a_g / r_half
        c.require(1.0 / 3.0 <= ratio_10ag <= 3.0,
                  f"10 a_g vs half-max radius off by {ratio_10ag:.2f}x")
        ratio_23 = r_half / 1e23
        c.require(1.0 / 3.0 <= ratio_23 <= 3.0,
                  f"half-max radius {r_half:.3e} m vs 1e23 m off by {ratio_23:.2f}x")

        r_half_23 = r_half_ag * UnitScales.of(NUCLEON_MASS, 1e23).length
        c.require(0.3 <= r_half_23 <= 10.0,
                  f"N=1e23 localization {r_half_23:.3f} m outside [0.3, 10] m")
        c.note(f"a_g {a_g:.3e} m, half-max {r_half:.3e} m (N=1), "
               f"{r_half_23:.2f} m (N=1e23); 10 a_g / 1e23 m = {10 * a_g / 1e23:.2f} "
               "(order-of-magnitude claim, not asserted)")


# criterion 7 -----------------------------------------------------------------

def test_criterion_07_evolution_conservation(criterion, evolution_suite_rows):
    title = "norm drift <= 1e-8, energy drift <= 1e-5 over 1000 steps; free width law to 1e-3"
    with criterion(7, title) as c:
        wanted = {
            "norm_drift_free", "energy_drift_free", "free_width_law",
            "norm_drift_cubic_repulsive", "energy_drift_cubic_repulsive",
            "norm_drift_cubic_attractive", "energy_drift_cubic_attractive",
            "norm_drift_gravity", "energy_drift_gravity",
        }
        rows = [r for r in evolution_suite_rows if r.name in wanted]
        c.require(len(rows) == len(wanted), "evolution suite rows missing")
        _require_rows(c, rows)
        worst = max(r.measured / r.bound for r in rows)
        c.note(f"worst margin {worst:.1%} of bound")


# criterion 8 -----------------------------------------------------------------

def test_criterion_08_stationary_eigenstate(criterion, evolution_suite_rows):
    title = "n=0 density stays within 1e-3 (L-inf / peak) over one full phase period"
    with criterion(8, title) as c:
        rows = [r for r in evolution_suite_rows if r.name == "stationary_density"]
        c.require(len(rows) == 1, "stationary_density row missing")
        _require_rows(c, rows)
        if rows:
            c.note(f"density wander {rows[0].measured:.1e} over one period")


# criterion 9 -----------------------------------------------------------------

def test_criterion_09_continuity(criterion):
    title = "continuity residual: <= 1e-6 stationary; second order on a dispersing packet"
    with criterion(9, title) as c:
        _require_rows(c, run_suite("continuity"))


# criterion 10 ----------------------------------------------------------------

def test_criterion_10_poisson_ball(criterion):
    title = "Poisson solver matches the uniform-ball closed form and -G M/r tail to 1e-4"
    with criterion(10, title) as c:
        rows = run_suite("poisson")
        _require_rows(c, rows, names={"uniform_ball_interior", "uniform_ball_tail"})
        got = {r.name for r in rows}
        c.require({"uniform_ball_interior", "uniform_ball_tail"} <= got,
                  f"ball rows missing from poisson suite: {got}")
