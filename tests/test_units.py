"""Homology scaling: every (m, N) is one problem in units of a_g.

Property tests draw log10 m in [-60, 3] (kg) and log10 N in [0, 80], with
the corners of that box and the masses once refused as explicit examples.
The nucleon N = 1e23 ``evolve`` free rows were recorded when the stepper
still ran in SI units; the gravity rows, whose default dt is 1/200 of the
period 2 pi/|eps/3| of the solve's own eigenvalue, were recorded in a_g units.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sng.cli import main
from sng.grids import make_grid
from sng.physical import (
    HBAR,
    NUCLEON_MASS,
    EnergyBreakdown,
    UnitScales,
    energy_breakdown,
    half_max_radius,
    rescale_to_physical,
)
from sng.shooting import solve_states

LOG_MASS = st.floats(-60.0, 3.0)
LOG_COUNT = st.floats(0.0, 80.0)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CLI = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def _box_examples(test):
    """The four corners of the (log10 m, log10 N) box, and 1e2, 1e3 and
    1.8e-58 kg with N = 1."""
    for log_m, log_n in ((-60.0, 0.0), (-60.0, 80.0), (3.0, 0.0), (3.0, 80.0),
                         (2.0, 0.0), (math.log10(1.8e-58), 0.0)):
        test = example(log_m=log_m, log_n=log_n)(test)
    return test


@pytest.fixture(scope="module")
def coarse_ground():
    return solve_states([0], make_grid(40.0, 401))[0]


@pytest.fixture(scope="module")
def natural_reference(coarse_ground):
    profile = rescale_to_physical(coarse_ground)
    return profile.epsilon_ag / 3.0, energy_breakdown(profile), half_max_radius(profile)


@PROPERTY
@_box_examples
@given(log_m=LOG_MASS, log_n=LOG_COUNT)
def test_scaled_energy_and_radius_do_not_depend_on_mass_or_number(
        coarse_ground, natural_reference, log_m, log_n):
    # the SI values are the a_g values times the UnitScales factors
    mass = 10.0**log_m
    units = UnitScales.of(mass, 10.0**log_n)
    profile = rescale_to_physical(coarse_ground)
    eb = energy_breakdown(profile)
    e_single, e_kinetic, e_gravity = (e * units.energy for e in
                                      (profile.epsilon_ag / 3.0, eb.e_kinetic, eb.e_gravity))
    a_g = units.length
    natural_e_single, natural_eb, natural_half_max = natural_reference
    # e_single m a_g^2 / hbar^2, grouped so no intermediate leaves the normal range
    scaled = e_single * (mass * a_g * a_g / (HBAR * HBAR))
    assert scaled == pytest.approx(natural_e_single, rel=1e-12, abs=0.0)
    assert half_max_radius(profile) * units.length / a_g == pytest.approx(
        natural_half_max, rel=1e-12, abs=0.0)
    assert EnergyBreakdown(e_kinetic, e_gravity).virial_residual == pytest.approx(
        natural_eb.virial_residual, rel=0.0, abs=1e-10)


@pytest.fixture(scope="module")
def cli_ground(tmp_path_factory):
    root = tmp_path_factory.mktemp("units")
    assert main(["solve", "--n", "0", "--points", "401",
                 "--out-json", str(root / "ground.json")]) == 0
    return root


@CLI
@_box_examples
@given(log_m=LOG_MASS, log_n=LOG_COUNT)
def test_rescale_and_gravity_evolve_run_for_every_mass_and_number(cli_ground, log_m, log_n):
    units = ["--mass-kg", repr(10.0**log_m), "--n-particles", repr(10.0**log_n)]
    ground = str(cli_ground / "ground.json")
    assert main(["rescale", ground, *units, "--out-json", str(cli_ground / "r.json"),
                 "--out-csv", str(cli_ground / "r.csv")]) == 0
    assert main(["evolve", "--gravity", "--from", ground, *units, "--steps", "3",
                 "--out-csv", str(cli_ground / "e.csv")]) == 0


def test_unrepresentable_snapshot_density_is_exit_2_and_named(cli_ground, capsys):
    # at 1e-60 kg and N = 1, a_g ~ 1.7e122 m, so a_g^-3 underflows
    out = cli_ground / "snap.csv"
    assert main(["evolve", "--gravity", "--from", str(cli_ground / "ground.json"),
                 "--mass-kg", "1e-60", "--n-particles", "1", "--steps", "1",
                 "--snapshot-every", "1", "--out-csv", str(out)]) == 2
    assert "density unit" in capsys.readouterr().err
    assert not out.exists()


# t, norm, energy, rms_width of the SI-unit stepper, nucleon mass, N = 1e23;
# the gravity rows from the 401-point ground state as shot in u = rho f,
# v = rho g
NUCLEON_ROWS = {
    "free": [
        [0.0, 1.0000000000000002, 2.4917030644714122e-42, 1.7320508075688772],
        [1.5860673466964081e05, 1.0000000000000002, 2.4917030644714128e-42, 1.7320723998327563],
        [3.1721346933928161e05, 1.0000000000000002, 2.4917030644714122e-42, 1.7321371750094197],
        [4.7582020400892245e05, 1.0000000000000002, 2.4917030644714122e-42, 1.7322451282545517],
    ],
    "gravity": [
        [0.0, 1.0000000000000002, -2.8502949122668495e-42, 1.6505285482173506],
        [1.164466512432705e06, 0.9999999992604565, -2.8502949839816773e-42, 1.6505266479559522],
        [2.32893302486541e06, 0.9999999999999348, -2.8502952255309234e-42, 1.650520950663925],
        [3.4933995372981145e06, 0.9999999992605878, -2.8502955836146262e-42, 1.650511476428644],
    ],
}


@pytest.mark.parametrize("kind", ["free", "gravity"])
def test_nucleon_si_rows_match_the_si_stepper(kind, cli_ground):
    start = {"free": ["--free", "--gaussian-sigma", "1.0", "--r-max", "16", "--points", "201"],
             "gravity": ["--gravity", "--from", str(cli_ground / "ground.json")]}[kind]
    out = cli_ground / f"nucleon_{kind}.csv"
    assert main(["evolve", *start, "--mass-kg", repr(NUCLEON_MASS), "--n-particles", "1e23",
                 "--steps", "3", "--out-csv", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(table, NUCLEON_ROWS[kind], rtol=1e-10, atol=0.0)
