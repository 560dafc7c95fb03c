"""Command-line surface: schemas, determinism, exit codes, file formats."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sng.checks
import sng.cli
from sng.checks import CheckResult
from sng.cli import main
from sng.errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidBracketError,
    SngError,
    StepRejectedError,
    WrongStateError,
)
from sng.physical import UnitScales

# one float field in the fixed CSV format: 17 significant digits, e-notation
FLOAT_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def _read_json(path):
    return json.loads(path.read_text())


# --- solve -------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One coarse-grid solve shared by the schema/determinism tests."""
    root = tmp_path_factory.mktemp("solve")
    out = root / "ground.json"
    code = main(["solve", "--n", "0", "--points", "2001", "--out-json", str(out)])
    assert code == 0
    return root


def test_solve_json_schema(solved):
    data = _read_json(solved / "ground.json")
    assert set(data) == {
        "n", "gamma0", "gamma1", "epsilon_star", "node_count",
        "bracket_width", "grid", "generated_by", "x_csv",
    }
    assert data["n"] == 0 and data["node_count"] == 0
    assert data["generated_by"] == "sng 0.1.0"
    assert data["grid"] == {"rho_max": 40.0, "points": 2001}
    assert data["x_csv"] == "ground.csv"
    assert data["gamma0"] == pytest.approx(-0.91858, abs=1e-4)


def test_solve_csv_format(solved):
    lines = (solved / "ground.csv").read_text().splitlines()
    assert lines[0] == "rho,f_star,g_star"
    assert len(lines) == 2002
    for line in (lines[1], lines[1000], lines[-1]):
        fields = line.split(",")
        assert len(fields) == 3
        assert all(FLOAT_RE.match(f) for f in fields), line
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_solve_stdout_when_no_output_path(capsys):
    code = main(["solve", "--n", "0", "--points", "1201", "--rho-max", "30"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["node_count"] == 0
    assert "x_csv" not in data  # no CSV written without a path to derive


def test_solve_reruns_are_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        sub = tmp_path / tag
        sub.mkdir()
        out = sub / "state.json"
        assert main(["solve", "--n", "1", "--points", "2001",
                     "--out-json", str(out)]) == 0
        paths.append(sub)
    assert (paths[0] / "state.json").read_bytes() == (paths[1] / "state.json").read_bytes()
    assert (paths[0] / "state.csv").read_bytes() == (paths[1] / "state.csv").read_bytes()


# --- spectrum ----------------------------------------------------------------

def test_spectrum_reruns_are_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"spec_{tag}.json"
        assert main(["spectrum", "--n-max", "2", "--points", "2001",
                     "--out-json", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    states = json.loads(blobs[0])
    assert [s["n"] for s in states] == [0, 1, 2]
    gammas = [s["gamma0"] for s in states]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


# sha256 of the outputs the benchmark reads, recorded before bisection was
# aimed from a coarse grid: the aim only chooses where to shoot
PINNED_SPECTRUM = "5ab4f56b53f00a7cd6bf447ae6e9990d0873cc47e8eb7285690d749e119cf9c8"
PINNED_GROUND_4001 = ("a9cc67d7e1da9de642327d434b7166a243039bc64382fb55a7440ac4a9281ddf",
                      "348ed014d31c85237618b825f93d5fcf56cfd7cf5515407bf8a4d30065796955")


def _sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_spectrum_output_is_bitwise_pinned(tmp_path):
    # spectrum --n-max 4 on the default grid
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n-max", "4", "--out-json", str(out)]) == 0
    assert _sha256_file(out) == PINNED_SPECTRUM


def test_ground_state_outputs_are_bitwise_pinned(tmp_path):
    # the ground state an evolve --gravity --from run starts from
    out = tmp_path / "ground.json"
    assert main(["solve", "--n", "0", "--points", "4001", "--out-json", str(out)]) == 0
    assert (_sha256_file(out), _sha256_file(tmp_path / "ground.csv")) == PINNED_GROUND_4001


# each refusal names its flag: spectrum's once named none ("need one or
# more node counts, got none"), and solve's named the library's n
@pytest.mark.parametrize("argv", [["solve", "--n", "-1"], ["spectrum", "--n-max", "-1"]])
def test_negative_node_count_is_exit_2_before_shooting(argv, monkeypatch, capsys):
    def no_shot(*args, **kwargs):
        raise AssertionError("shot taken for a rejected node count")

    monkeypatch.setattr("sng.shooting._shoot", no_shot)  # the kernel of every shot
    assert main([*argv, "--points", "801"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[1]} must be an integer >= 0, got -1\n"


# rho_max and tol values at and past the ends of the doubles
EXTREME = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 7), points=st.integers(3, 401),
       rho_max=st.one_of(st.sampled_from(EXTREME), st.floats(1.0, 200.0)),
       tol=st.one_of(st.sampled_from(EXTREME), st.floats(1e-12, 1e-2)))
# a spacing of 5e-324 / 10 = 0 divided the first RK4 step by zero
@example(n=0, points=11, rho_max=5e-324, tol=1e-10)
def test_solve_exits_with_a_documented_code(n, points, rho_max, tol):
    _assert_documented_exit(["solve", "--n", str(n), "--points", str(points),
                             f"--rho-max={rho_max!r}", f"--tol={tol!r}"])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n_max=st.integers(0, 2), points=st.integers(3, 401),
       rho_max=st.one_of(st.sampled_from(EXTREME), st.floats(1.0, 200.0)),
       tol=st.one_of(st.sampled_from(EXTREME), st.floats(1e-12, 1e-2)))
# the draws above exit 2 or 4; these reach an answer, a missing bracket and
# a bisection that runs out of doubles
@example(n_max=2, points=401, rho_max=40.0, tol=1e-6)
@example(n_max=2, points=101, rho_max=1.5, tol=1e-10)
@example(n_max=2, points=401, rho_max=40.0, tol=5e-324)
def test_spectrum_exits_with_a_documented_code(n_max, points, rho_max, tol):
    _assert_documented_exit(["spectrum", "--n-max", str(n_max), "--points", str(points),
                             f"--rho-max={rho_max!r}", f"--tol={tol!r}"])


def _assert_documented_exit(argv):
    """``sng argv`` in process exits 0, 2, 3 or 4 (or 5, for evolve), with no
    traceback and no numpy RuntimeWarning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in ((0, 2, 3, 4, 5) if argv[0] == "evolve" else (0, 2, 3, 4)), argv
    assert "Traceback" not in err.getvalue()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
    return code


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_is_exit_2(tol, monkeypatch, capsys):
    def no_shot(*args, **kwargs):
        raise AssertionError("shot taken for a rejected tol")

    monkeypatch.setattr("sng.shooting._shoot", no_shot)  # the kernel of every shot
    assert main(["solve", "--n", "0", "--points", "801", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --- rescale -----------------------------------------------------------------

# a_g is 0.36 m for the nucleon condensate and 1.7e-67 m for one tonne
NUCLEON_FLAGS = ["--mass-kg", "1.67262192369e-27", "--n-particles", "1e23"]
KILO_FLAGS = ["--mass-kg", "1e3", "--n-particles", "1"]


@pytest.fixture(scope="module")
def rescaled_natural(solved, tmp_path_factory):
    out = tmp_path_factory.mktemp("rescale") / "natural.json"
    code = main(["rescale", str(solved / "ground.json"), "--natural",
                 "--out-json", str(out)])
    assert code == 0
    return _read_json(out)


def test_rescale_json_schema(rescaled_natural):
    assert set(rescaled_natural) == {
        "bohr_radius_m", "half_max_radius_m", "rms_radius_m",
        "e_kinetic_J", "e_gravity_J", "e_total_J", "epsilon_J", "e_single_J",
        "virial_residual", "renormalized", "x_norm", "x_phi_tail_shift",
        "generated_by",
    }


def test_rescale_natural_units_identity(rescaled_natural):
    assert rescaled_natural["bohr_radius_m"] == 1.0
    assert rescaled_natural["half_max_radius_m"] == pytest.approx(3.8882, abs=2e-3)
    assert rescaled_natural["epsilon_J"] == pytest.approx(-0.16277, abs=2e-4)
    assert rescaled_natural["virial_residual"] < 1e-4
    assert rescaled_natural["renormalized"] is False
    assert rescaled_natural["x_norm"] == pytest.approx(1.0, abs=1e-9)


def test_rescale_physical_units_scales(solved, tmp_path):
    out = tmp_path / "condensate.json"
    assert main(["rescale", str(solved / "ground.json"),
                 "--mass-kg", "1.67262192369e-27", "--n-particles", "1e23",
                 "--out-json", str(out), "--out-csv", str(tmp_path / "prof.csv")]) == 0
    data = _read_json(out)
    assert 0.3 <= data["half_max_radius_m"] <= 10.0
    assert data["e_total_J"] < 0.0
    header = (tmp_path / "prof.csv").read_text().splitlines()[0]
    assert header == "r_m,f,phi"
    assert data["x_csv"] == "prof.csv"


def test_rescale_requires_a_unit_choice(solved, capsys):
    code = main(["rescale", str(solved / "ground.json")])
    assert code == 2
    assert "pick units" in capsys.readouterr().err


def test_rescale_natural_excludes_physical_flags(solved):
    assert main(["rescale", str(solved / "ground.json"), "--natural",
                 "--mass-kg", "1e-27"]) == 2


def test_rescale_missing_companion_csv_is_exit_2(solved, tmp_path):
    orphan = tmp_path / "orphan.json"
    orphan.write_text((solved / "ground.json").read_text())
    assert main(["rescale", str(orphan), "--natural"]) == 2


def test_summary_and_table_in_sibling_directories_read_back(tmp_path):
    # x_csv was the table's bare name, so a summary in a/ pointed at a/g.csv
    # and rescale and evolve --from refused the pair as "profile table missing"
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    ground = tmp_path / "a" / "g.json"
    assert main(["solve", "--n", "0", "--points", "401", "--out-json", str(ground),
                 "--out-csv", str(tmp_path / "b" / "g.csv")]) == 0
    assert _read_json(ground)["x_csv"] == os.path.join("..", "b", "g.csv")
    rescaled = tmp_path / "c" / "r.json"
    assert main(["rescale", str(ground), "--natural", "--out-json", str(rescaled),
                 "--out-csv", str(tmp_path / "b" / "r.csv")]) == 0
    assert _read_json(rescaled)["x_csv"] == os.path.join("..", "b", "r.csv")
    assert main(["evolve", "--gravity", "--from", str(ground), "--natural", "--steps", "3",
                 "--out-csv", str(tmp_path / "c" / "e.csv")]) == 0
    assert len((tmp_path / "c" / "e.csv").read_text().splitlines()) == 1 + 4


def test_rescale_refuses_a_summary_that_is_not_utf8(tmp_path, capsys):
    # json.load raised UnicodeDecodeError, which is not a JSONDecodeError
    summary = tmp_path / "ground.json"
    summary.write_bytes(b"\xff\xfe{}")
    assert main(["rescale", str(summary), "--natural"]) == 2
    assert "cannot read" in capsys.readouterr().err


# the refusal of a profile table: numpy warned before refusing one of its
# header alone, and f*^2 overflowed inside the rescaling, refused as a bare
# "field contains non-finite samples"
UNUSABLE_PROFILE = {
    "header": "holds no data rows",
    "square": "column f_star holds a sample that is not finite or whose square "
              "overflows a double",
}


@pytest.mark.parametrize("command", [["rescale", "--natural"],
                                     ["evolve", "--gravity", "--natural", "--steps", "1"]],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("cut", sorted(UNUSABLE_PROFILE))
def test_unusable_profile_table_is_exit_2_naming_it(cut, command, solved, tmp_path, capsys):
    rows = (solved / "ground.csv").read_text().splitlines(keepends=True)
    if cut == "header":
        rows = rows[:1]
    else:
        cells = rows[100].split(",")
        rows[100] = ",".join([cells[0], "1e300", cells[2]])
    (tmp_path / "ground.csv").write_text("".join(rows))
    (tmp_path / "ground.json").write_text((solved / "ground.json").read_text())
    verb, *flags = command
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([verb, *(["--from"] if verb == "evolve" else []),
                     str(tmp_path / "ground.json"), *flags,
                     *(["--out-csv", str(tmp_path / "x.csv")] if verb == "evolve" else [])])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == f"error: profile table {tmp_path / 'ground.csv'} {UNUSABLE_PROFILE[cut]}\n"


def test_rescale_needs_both_physical_flags(solved, capsys):
    assert main(["rescale", str(solved / "ground.json"), "--mass-kg", "1e-27"]) == 2
    assert "--mass-kg and --n-particles go together" in capsys.readouterr().err


# a summary value edited away from the one read off its profile table
EDITED_SUMMARY = {
    "gamma1": lambda value: value * 1.01,
    "epsilon_star": lambda value: value * 1.001,
    "gamma0": lambda value: float(np.nextafter(value, 0.0)),
}


@pytest.mark.parametrize("command", [["rescale", "--natural"],
                                     ["evolve", "--gravity", "--natural", "--steps", "2"]],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("field", sorted(EDITED_SUMMARY))
def test_summary_that_disagrees_with_its_table_is_exit_2(field, command, coarse_solved,
                                                         tmp_path, capsys):
    # the table is the solution; a summary value that is not read off it
    # is refused, naming the field, before anything is written
    data = _read_json(coarse_solved / "ground.json")
    data[field] = EDITED_SUMMARY[field](data[field])
    (tmp_path / "ground.csv").write_bytes((coarse_solved / "ground.csv").read_bytes())
    (tmp_path / "ground.json").write_text(json.dumps(data))
    verb, *flags = command
    out = tmp_path / "out.csv"
    assert main([verb, *(["--from"] if verb == "evolve" else []), str(tmp_path / "ground.json"),
                 *flags, "--out-csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} = {data[field]!r} in ")
    assert "disagrees with" in err and "read off " in err
    assert not out.exists()


def test_rescale_refuses_a_summary_whose_node_count_is_not_n(solved, tmp_path, capsys):
    data = _read_json(solved / "ground.json")
    data["node_count"] = 1
    (tmp_path / "ground.csv").write_bytes((solved / "ground.csv").read_bytes())
    (tmp_path / "ground.json").write_text(json.dumps(data))
    assert main(["rescale", str(tmp_path / "ground.json"), "--natural"]) == 4
    assert "n = 0 and node_count = 1 in " in capsys.readouterr().err


# the labels of a summary edited to name another state than its table's f*
RELABELLED = {"relabelled": {"n": 3, "node_count": 3}, "n": {"n": 3}}


@pytest.mark.parametrize("command", [["rescale", "--natural"],
                                     ["evolve", "--gravity", "--natural", "--steps", "2"]],
                         ids=lambda command: command[0])
@pytest.mark.parametrize("edit", sorted(RELABELLED))
def test_summary_whose_node_count_is_not_its_tables_is_exit_4(edit, command, coarse_solved,
                                                               tmp_path, capsys):
    # n is read off the table's f*: a summary that names another state, in
    # n alone or in n and node_count, is refused naming both files, before
    # anything is written
    data = {**_read_json(coarse_solved / "ground.json"), **RELABELLED[edit]}
    (tmp_path / "ground.csv").write_bytes((coarse_solved / "ground.csv").read_bytes())
    (tmp_path / "ground.json").write_text(json.dumps(data))
    verb, *flags = command
    out = tmp_path / "out.csv"
    assert main([verb, *(["--from"] if verb == "evolve" else []), str(tmp_path / "ground.json"),
                 *flags, "--out-csv", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: n = {data['n']} and node_count = {data['node_count']} in ")
    assert str(tmp_path / "ground.json") in err
    assert f"disagree with the 0 nodes of f* in {tmp_path / 'ground.csv'}" in err
    assert not out.exists()


# sha256 of the rescale JSON and CSV of a 401-point ground state, recorded
# once the state's tail was matched at rho_m
PINNED_RESCALE = {
    "natural": ("b381258a41b2ee0151122f497658345c4b591d176a3033f15374ead24650fc82",
                "594a830284fa91b6bdbd9a0c1d3045b8d192b2a760b9ed84983a53fe0711ebd2"),
    "nucleon": ("cf0558089f3693ca286a952197832cecdff8be91d849f32131f70bb9ff7128cc",
                "646344e6dcfd2718ead0220f248766bddb0f604dd73bd27a6153c15270a64496"),
}


@pytest.fixture(scope="module")
def coarse_solved(tmp_path_factory):
    root = tmp_path_factory.mktemp("coarse")
    assert main(["solve", "--n", "0", "--points", "401",
                 "--out-json", str(root / "ground.json")]) == 0
    return root


@pytest.mark.parametrize("units", sorted(PINNED_RESCALE))
def test_rescale_outputs_are_bitwise_pinned(units, coarse_solved, tmp_path):
    flags = {"natural": ["--natural"],
             "nucleon": ["--mass-kg", "1.67262192369e-27", "--n-particles", "1e23"]}[units]
    out_json, out_csv = tmp_path / "rescale.json", tmp_path / "rescale.csv"
    assert main(["rescale", str(coarse_solved / "ground.json"), *flags,
                 "--out-json", str(out_json), "--out-csv", str(out_csv)]) == 0
    digests = tuple(_sha256_file(p) for p in (out_json, out_csv))
    assert digests == PINNED_RESCALE[units]


def _epsilon_ag(summary_path):
    """The eigenvalue 2 eps*/gamma1^2 in a_g units of a solve summary."""
    summary = _read_json(summary_path)
    return (2.0 / summary["gamma1"] ** 2) * summary["epsilon_star"]


def test_rescale_energies_are_the_solves_eigenvalue(coarse_solved, tmp_path):
    # the virial identities of a stationary state: T = -eps/3, W = 2 eps/3, E = eps/3
    out = tmp_path / "rescale.json"
    assert main(["rescale", str(coarse_solved / "ground.json"), "--natural",
                 "--out-json", str(out)]) == 0
    data, eps = _read_json(out), _epsilon_ag(coarse_solved / "ground.json")
    assert data["epsilon_J"] == eps
    assert data["e_single_J"] == data["e_total_J"] == eps / 3.0
    assert data["e_kinetic_J"] == -eps / 3.0
    assert data["e_gravity_J"] == 2.0 * eps / 3.0


def test_evolve_from_defaults_dt_to_the_solves_period(coarse_solved, tmp_path):
    # 1/200 of the period 2 pi/|E| of the single-particle energy E = eps/3
    out = tmp_path / "run.csv"
    assert main(["evolve", "--gravity", "--from", str(coarse_solved / "ground.json"),
                 "--natural", "--steps", "1", "--out-csv", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    eps = _epsilon_ag(coarse_solved / "ground.json")
    assert table[1, 0] == 2.0 * np.pi / abs(eps / 3.0) / 200.0


def test_rescale_refuses_a_subnormal_summary_value(coarse_solved, tmp_path, capsys):
    # at 1e-60 kg and 5e-28 particles the energy unit is a normal double,
    # but the kinetic energy, 5.4e-309 J, is not
    out_json = tmp_path / "rescale.json"
    assert main(["rescale", str(coarse_solved / "ground.json"), "--mass-kg", "1e-60",
                 "--n-particles", "5e-28", "--out-json", str(out_json)]) == 2
    assert "error: e_kinetic in SI units = 5.43" in capsys.readouterr().err
    assert not out_json.exists()


# the summary's fields as key paths, and what the fuzz puts in one: a value
# at or past the ends of the doubles, a fraction, a number too large for a
# double, a wrong type, or nothing (DELETE drops the key)
SUMMARY_FIELDS = [("n",), ("node_count",), ("gamma0",), ("gamma1",), ("epsilon_star",),
                  ("bracket_width",), ("grid", "rho_max"), ("grid", "points"), ("grid",),
                  ("x_csv",)]
COUNTS = {"n", "node_count", "points"}
DELETE = "<delete>"
ODD_FIELD_VALUES = [*EXTREME, 1.5, 401.5, 1e154, 10**400, "0", None, [], True, DELETE]
# what the fuzz puts in one profile cell; DELETE drops the cell from its row
ODD_CELLS = ["nan", "inf", "-inf", "a", "", "1e309", "1e300", "-1.7e308", "5e-324", "0", DELETE]


def _corrupt_summary(text, field, value, cut):
    data = json.loads(text)
    if field is not None:
        *outer, key = field
        target = data
        for name in outer:
            target = target[name]
        if value == DELETE:
            del target[key]
        else:
            target[key] = value
    return json.dumps(data)[:cut]


def _corrupt_profile(text, row, column, cell, cut):
    lines = text.splitlines()
    if cell is not None:
        cells = lines[row].split(",")
        if cell == DELETE:
            del cells[column]
        else:
            cells[column] = cell
        lines[row] = ",".join(cells)
    return "".join(line + "\n" for line in lines[:cut])


# the draws of a fuzz over solve's JSON + CSV pair, and the unit flags
MUTATIONS = dict(field=st.none() | st.sampled_from(SUMMARY_FIELDS),
                 value=st.sampled_from(ODD_FIELD_VALUES), cut_json=st.none() | st.integers(0, 300),
                 row=st.integers(1, 401), column=st.integers(0, 2),
                 cell=st.none() | st.sampled_from(ODD_CELLS),
                 cut_csv=st.none() | st.integers(0, 402),
                 units=st.sampled_from([["--natural"], NUCLEON_FLAGS, KILO_FLAGS]))


def _exit_on_corrupted_pair(argv, solved, field, value, cut_json, row, column, cell, cut_csv):
    """_assert_documented_exit of ``argv(summary, root)`` on a mutated copy
    of the pair in ``solved``, written to a fresh directory ``root``."""
    with tempfile.TemporaryDirectory() as root:
        summary = os.path.join(root, "ground.json")
        with open(summary, "w", encoding="utf-8") as fh:
            fh.write(_corrupt_summary((solved / "ground.json").read_text(),
                                      field, value, cut_json))
        with open(os.path.join(root, "ground.csv"), "w", encoding="utf-8") as fh:
            fh.write(_corrupt_profile((solved / "ground.csv").read_text(),
                                      row, column, cell, cut_csv))
        code = _assert_documented_exit(argv(summary, root))
    # a non-finite number, or a fractional count, in the summary is refused
    if field is not None and isinstance(value, float) and (
            not math.isfinite(value) or field[-1] in COUNTS and not value.is_integer()):
        assert code == 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**MUTATIONS)
# int() of an infinite count raised OverflowError, and a fractional count was
# truncated
@example(field=("n",), value=math.inf, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("grid", "points"), value=math.inf, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("n",), value=1.5, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("grid", "points"), value=401.5, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
# a cell numpy cannot read, and a row of two cells, raised from np.loadtxt
@example(field=None, value=DELETE, cut_json=None, row=5, column=0, cell="a",
         cut_csv=None, units=["--natural"])
@example(field=None, value=DELETE, cut_json=None, row=5, column=2, cell=DELETE,
         cut_csv=None, units=["--natural"])
# numpy warned "invalid value encountered in subtract" before the refusal
@example(field=("epsilon_star",), value=math.inf, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
# a NaN bracket width, or a NaN gamma0, passed the g*(0) check and exited 0
@example(field=("bracket_width",), value=math.nan, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("gamma0",), value=math.nan, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
# float() of an integer too large for a double raised OverflowError
@example(field=("gamma0",), value=10**400, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
# an infinite gamma1 divided by zero; gamma1^2 overflowed (OverflowError),
# or 2/gamma1^2 did, or the profile's norm underflowed to 0 (numpy warnings)
@example(field=("gamma1",), value=math.inf, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("gamma1",), value=1e300, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("gamma1",), value=1e-300, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
@example(field=("gamma1",), value=1e154, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
# numpy warned that f*^2 overflowed before the refusal
@example(field=None, value=DELETE, cut_json=None, row=5, column=1, cell="1e300",
         cut_csv=None, units=["--natural"])
# a profile table named by a number raised TypeError from os.path.join
@example(field=("x_csv",), value=True, cut_json=None, row=1, column=0, cell=None,
         cut_csv=None, units=["--natural"])
# numpy warned about the SI potential's overflow before the refusal
@example(field=None, value=DELETE, cut_json=None, row=2, column=2, cell="-1.7e308",
         cut_csv=None, units=KILO_FLAGS)
# numpy warned that the rho column's distance from the grid overflowed
@example(field=("grid", "rho_max"), value=1.7e308, cut_json=None, row=340, column=0,
         cell="-1.7e308", cut_csv=None, units=["--natural"])
def test_rescale_exits_with_a_documented_code(field, value, cut_json, row, column, cell,
                                              cut_csv, units, coarse_solved):
    _exit_on_corrupted_pair(
        lambda summary, root: ["rescale", summary, *units,
                               "--out-json", os.path.join(root, "out.json"),
                               "--out-csv", os.path.join(root, "out.csv")],
        coarse_solved, field, value, cut_json, row, column, cell, cut_csv)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**MUTATIONS)
def test_evolve_from_exits_with_a_documented_code(field, value, cut_json, row, column, cell,
                                                  cut_csv, units, coarse_solved):
    # evolve --from reads the files rescale reads, so it meets the same mutations
    _exit_on_corrupted_pair(
        lambda summary, root: ["evolve", "--gravity", "--from", summary, *units, "--steps", "2",
                               "--out-csv", os.path.join(root, "out.csv")],
        coarse_solved, field, value, cut_json, row, column, cell, cut_csv)


@pytest.mark.parametrize("mass", ["1e-200", "1e200"])
@pytest.mark.parametrize("command", ["rescale", "evolve"])
def test_unrepresentable_bohr_radius_is_exit_2(command, mass, solved, tmp_path, capsys):
    # G N m^3 underflows to 0 at 1e-200 kg and overflows at 1e200 kg
    ground = str(solved / "ground.json")
    argv = {"rescale": ["rescale", ground],
            "evolve": ["evolve", "--gravity", "--from", ground, "--steps", "1",
                       "--out-csv", str(tmp_path / "x.csv")]}[command]
    assert main([*argv, "--mass-kg", mass, "--n-particles", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: G N m^3 = ")


# --- evolve ------------------------------------------------------------------

# sha256 of each evolve CSV, then of its snapshot CSVs in order: the cubic
# run recorded before an observation and the next step shared one
# evaluation of the state, the free run when V = 0 moved to the sine modes
# (within 2e-15 of the LAPACK stepper's), the gravity runs from the
# tail-matched ground state
PACKET_FLAGS = ["--gaussian-sigma", "1", "--points", "401", "--r-max", "30", "--natural",
                "--steps", "30", "--dt", "0.01"]
PINNED_EVOLVE = {
    "gravity-natural": (["--gravity", "--natural"], (
        "00f9367d25583c87b2ad88f3a68e642e22f371eee11fd0a0de5637bece11ee06",
        "99260d30400459bb28e0e37ec9e9eb2ee260aef777b996835ecfb1dbdc175f2a",
        "ef105eef4e48d87d904992e86fbf2139a14f2e47a5a9780186826e71ae5d27b2",
        "9d69a493ab88159e6a812b9ca77ec7faca3fc61a464c30fbe83cc205a1f7fb30",
        "b1f37b30d86b76c52b49326a3150239b9d74f390785c58aa741b9a8436dcdead")),
    "gravity-nucleon": (["--gravity", *NUCLEON_FLAGS], (
        "c0720a733ec9b62958bb82447e37718a8105b503cd6b5a76f76056350929edb2",
        "5bb65b76b8c0321d67e8d5a7f2f499e1ccdff61d624e10ba935dfd9d36ca674f",
        "f5f2871a1e86ff5d745c387d16c13cfca7fb47d4d3acfe131c8263543bbb983c",
        "4b3753fcf61b68b89c98d011222a607ffaee31fc7d6e0d848d247d389416ffd6",
        "e4c3129bd58fe12abb63f6eab8ad36cff2e900d541a69b225cafea635511c945")),
    "free": (["--free", *PACKET_FLAGS], (
        "94f0ecf92656078a9cfdc385b526fae80ea200f30663c014487a76f80024ea4d",)),
    "cubic": (["--cubic", "--kappa", "1", "--sign", "-1", *PACKET_FLAGS], (
        "e7c108a42cb344672b4a48c957bbd72bee770a6fd0f78e8ececa6c8e49bd859d",)),
}


@pytest.mark.parametrize("run", sorted(PINNED_EVOLVE))
def test_evolve_outputs_are_bitwise_pinned(run, coarse_solved, tmp_path):
    flags, expected = PINNED_EVOLVE[run]
    if "--gravity" in flags:
        flags = [*flags, "--from", str(coarse_solved / "ground.json"), "--steps", "30",
                 "--observe-every", "2", "--snapshot-every", "10"]
    out = tmp_path / "run.csv"
    assert main(["evolve", *flags, "--out-csv", str(out)]) == 0
    paths = [out, *sorted(tmp_path.glob("run_snap_*.csv"))]
    digests = tuple(_sha256_file(p) for p in paths)
    assert digests == expected


# --- one parser per process ---------------------------------------------------

def test_parser_reuse_carries_nothing_between_runs(tmp_path):
    # a solve's --out-csv does not leak into the next solve
    for tag in ("a", "b", "c"):
        sub = tmp_path / tag
        sub.mkdir()
        flags = ["--out-csv", str(sub / "other.csv")] if tag == "b" else []
        assert main(["solve", "--n", "0", "--points", "401",
                     "--out-json", str(sub / "state.json"), *flags]) == 0
    for name in ("state.json", "state.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    sng.cli._build_parser.cache_clear()
    try:
        counts = []
        for argv in (["solve", "--n", "-1"], ["spectrum", "--n-max", "-1"],
                     ["evolve", "--free", "--gaussian-sigma", "1", "--steps", "0"]):
            before = len(built)
            assert main(argv) == 2
            counts.append(len(built) - before)
    finally:
        sng.cli._build_parser.cache_clear()
    # the top-level parser and one per subcommand, all in the first call
    assert counts == [6, 0, 0]
    assert capsys.readouterr().out == ""


def test_evolve_free_gaussian_observables(tmp_path):
    out = tmp_path / "free.csv"
    code = main(["evolve", "--free", "--gaussian-sigma", "1.0",
                 "--points", "1001", "--r-max", "40", "--steps", "50",
                 "--dt", "0.01", "--out-csv", str(out)])
    assert code == 0
    table = np.genfromtxt(out, delimiter=",", names=True)
    assert list(table.dtype.names) == ["t", "norm", "energy", "rms_width"]
    assert len(table) == 51
    assert np.abs(table["norm"] - 1.0).max() < 1e-9
    assert np.abs(table["energy"] / table["energy"][0] - 1.0).max() < 1e-9
    assert table["rms_width"][-1] > table["rms_width"][0]  # packet disperses


def test_evolve_cubic_zero_coupling_matches_free_bytes(tmp_path):
    outputs = []
    for tag, flags in (("free", ["--free"]),
                       ("cubic", ["--cubic", "--kappa", "0"])):
        out = tmp_path / f"{tag}.csv"
        assert main(["evolve", *flags, "--gaussian-sigma", "1.0",
                     "--points", "1001", "--r-max", "40", "--steps", "20",
                     "--dt", "0.01", "--out-csv", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_evolve_from_profile_with_snapshots(solved, tmp_path):
    out = tmp_path / "grav.csv"
    code = main(["evolve", "--gravity", "--from", str(solved / "ground.json"),
                 "--steps", "40", "--observe-every", "10",
                 "--snapshot-every", "20", "--out-csv", str(out)])
    assert code == 0
    table = np.genfromtxt(out, delimiter=",", names=True)
    assert len(table) == 5  # steps 0, 10, 20, 30, 40
    assert np.abs(table["norm"] - 1.0).max() < 1e-8
    snaps = sorted(tmp_path.glob("grav_snap_*.csv"))
    assert [p.name for p in snaps] == [
        "grav_snap_0000.csv", "grav_snap_0001.csv", "grav_snap_0002.csv"]
    header = snaps[0].read_text().splitlines()[0]
    assert header == "r,density"


def test_evolve_needs_exactly_one_initial_state(tmp_path, solved):
    base = ["--steps", "5", "--out-csv", str(tmp_path / "x.csv")]
    assert main(["evolve", "--free", *base]) == 2
    assert main(["evolve", "--free", "--gaussian-sigma", "1.0",
                 "--from", str(solved / "ground.json"), *base]) == 2
    # a packet far narrower than the spacing samples u = 0 at every node
    for kind in ("--free", "--gravity"):
        assert main(["evolve", kind, "--gaussian-sigma", "1e-4", "--points", "201",
                     *base]) == 2


def test_evolve_refuses_a_packet_the_grid_cannot_hold(tmp_path, capsys):
    # spacing 0.3: the sampled packet has norm 0.319 and RMS width 0.300
    out = tmp_path / "x.csv"
    assert main(["evolve", "--free", "--gaussian-sigma", "0.1", "--points", "201",
                 "--steps", "3", "--out-csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sigma 0.1" in err and "spacing 0.3" in err and "r_max 60" in err
    assert not out.exists()


@pytest.mark.parametrize("sigma, r_max, named", [("1e-160", "1e-158", "sigma^2"),
                                                 ("1e-155", "1e-153", "sigma^2")])
def test_out_of_range_packet_is_exit_2_in_a_g_units(sigma, r_max, named, tmp_path, capsys):
    # natural units: nothing is converted, so SI units are not to blame
    out = tmp_path / "x.csv"
    with np.errstate(over="ignore"):
        assert main(["evolve", "--free", "--natural", "--gaussian-sigma", sigma,
                     "--r-max", r_max, "--points", "201", "--steps", "3",
                     "--out-csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err and "SI units" not in err
    assert not out.exists()


# an absent flag (None), or a value at or past the ends of the doubles
def _evolve_values(typical):
    return st.one_of(st.none(), st.sampled_from(EXTREME), typical)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["--free", "--gravity", "--cubic"]),
       points=st.integers(3, 401), steps=st.integers(0, 3),
       dt=_evolve_values(st.floats(1e-4, 10.0)), r_max=_evolve_values(st.floats(1.0, 100.0)),
       sigma=_evolve_values(st.floats(0.05, 10.0)), kappa=_evolve_values(st.floats(-10.0, 10.0)),
       units=st.sampled_from([[], NUCLEON_FLAGS, KILO_FLAGS]))
# the packet's r^2 overflowed a double and numpy warned before the refusal
@example(kind="--free", points=303, steps=2, dt=0.01, r_max=1.7e308, sigma=1.0, kappa=None,
         units=[])
# a spacing of 1.5e-257 a_g, whose square underflows: the quadrature
# weights divided by zero
@example(kind="--free", points=3, steps=0, dt=None, r_max=5e-324, sigma=1.0, kappa=None,
         units=KILO_FLAGS)
def test_evolve_exits_with_a_documented_code(kind, points, steps, dt, r_max, sigma, kappa,
                                             units):
    values = {"--dt": dt, "--r-max": r_max, "--gaussian-sigma": sigma, "--kappa": kappa}
    with tempfile.TemporaryDirectory() as root:
        _assert_documented_exit(["evolve", kind, "--points", str(points), "--steps", str(steps),
                                 *(f"{flag}={value!r}" for flag, value in values.items()
                                   if value is not None),
                                 *units, "--out-csv", os.path.join(root, "x.csv")])


# flags that do not apply to the run, with the flag each refusal names
INAPPLICABLE_FLAGS = {
    "from-points": (["--gravity", "--from", "ground.json", "--points", "2001", "--r-max", "5"],
                    "--points"),
    "from-r-max": (["--gravity", "--from", "ground.json", "--r-max", "5"], "--r-max"),
    "free-kappa": (["--free", "--gaussian-sigma", "1", "--kappa", "3", "--sign", "-1"],
                   "--kappa"),
    "free-sign": (["--free", "--gaussian-sigma", "1", "--sign", "-1"], "--sign"),
    "gravity-kappa": (["--gravity", "--gaussian-sigma", "1", "--kappa", "3"], "--kappa"),
}


@pytest.mark.parametrize("flags, named", INAPPLICABLE_FLAGS.values(), ids=INAPPLICABLE_FLAGS)
def test_evolve_refuses_a_flag_that_does_not_apply(flags, named, solved, tmp_path, capsys):
    flags = [str(solved / flag) if flag == "ground.json" else flag for flag in flags]
    out = tmp_path / "x.csv"
    assert main(["evolve", *flags, "--steps", "2", "--out-csv", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named} applies only to ")
    assert not out.exists()


@pytest.mark.parametrize("start", [["--gaussian-sigma", "1.0"], ["--from", "ground.json"]])
def test_evolve_refuses_zero_steps_naming_the_flag(start, solved, tmp_path, monkeypatch, capsys):
    # it was refused as "t_final - state.time must be positive", after the
    # initial state was built
    def no_state(*args, **kwargs):
        raise AssertionError("initial state built for a rejected step count")

    monkeypatch.setattr(sng.cli, "gaussian_state", no_state)
    monkeypatch.setattr(sng.cli, "_load_solution", no_state)
    start = [str(solved / flag) if flag == "ground.json" else flag for flag in start]
    out = tmp_path / "x.csv"
    assert main(["evolve", "--gravity", *start, "--steps", "0", "--out-csv", str(out)]) == 2
    assert capsys.readouterr().err == "error: --steps must be an integer >= 1, got 0\n"
    assert not out.exists()


# each step flag was refused by the library's name for it (observe_every,
# snapshot_every, dt), after the initial state was built or read
@pytest.mark.parametrize("flag, value, message", [
    ("--observe-every", "0", "--observe-every must be an integer >= 1, got 0"),
    ("--snapshot-every", "0", "--snapshot-every must be an integer >= 1, got 0"),
    ("--dt", "-1", "--dt must be positive and finite, got -1.0"),
], ids=["observe-every", "snapshot-every", "dt"])
@pytest.mark.parametrize("start", [["--gaussian-sigma", "1.0"], ["--from", "missing.json"]],
                         ids=["gaussian", "from"])
def test_evolve_refuses_a_bad_step_flag_naming_it(start, flag, value, message, tmp_path,
                                                  monkeypatch, capsys):
    def no_state(*args, **kwargs):
        raise AssertionError("initial state built for a rejected step flag")

    monkeypatch.setattr(sng.cli, "gaussian_state", no_state)
    monkeypatch.setattr(sng.cli, "_load_solution", no_state)
    start = [str(tmp_path / arg) if arg == "missing.json" else arg for arg in start]
    out = tmp_path / "x.csv"
    assert main(["evolve", "--gravity", *start, flag, value, "--out-csv", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evolve_cubic_requires_kappa(tmp_path):
    assert main(["evolve", "--cubic", "--gaussian-sigma", "1.0",
                 "--steps", "5", "--out-csv", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_non_finite_kappa_is_exit_2(kappa, tmp_path, capsys):
    assert main(["evolve", "--cubic", "--kappa", kappa, "--gaussian-sigma", "1.0",
                 "--points", "201", "--steps", "3", "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: kappa must be")


# solve writes its profile table first, next to the summary
@pytest.mark.parametrize("argv, named", [
    (["solve", "--n", "0", "--points", "201", "--out-json", "missing/x.json"], "missing/x.csv"),
    (["spectrum", "--n-max", "0", "--points", "201", "--out-json", "missing/x.json"],
     "missing/x.json"),
    (["evolve", "--free", "--gaussian-sigma", "1.0", "--points", "201", "--steps", "3",
      "--out-csv", "missing/a.csv"], "missing/a.csv"),
])
def test_unwritable_output_path_is_exit_2(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {named}: ")


# --- exit codes for solver failures -----------------------------------------

def test_each_error_type_carries_its_documented_exit_code():
    types = (SngError, InvalidArgumentError, InvalidBracketError, WrongStateError,
             ConvergenceError, StepRejectedError)
    assert [t.exit_code for t in types] == [1, 2, 3, 4, 4, 5]


@pytest.mark.parametrize("error", [
    SngError("a failure of no narrower type"),
    InvalidArgumentError("x must be positive and finite, got nan"),
    InvalidBracketError("no bracket"),
    WrongStateError("trajectory has 1 nodes, wanted n=0"),
    ConvergenceError("no convergence"),
    StepRejectedError(0.75, 50.0, 16.0),
], ids=lambda error: type(error).__name__)
def test_main_reports_an_error_by_its_type(error, monkeypatch, capsys):
    def fail(args):
        raise error

    monkeypatch.setattr(sng.cli, "_cmd_check", fail)
    assert main(["check"]) == error.exit_code
    captured = capsys.readouterr()
    hint = "suggested dt: 1.600000e+01\n" if isinstance(error, StepRejectedError) else ""
    assert captured.out == ""
    assert captured.err == f"error: {error}\n{hint}"


def test_step_rejection_carries_its_numbers():
    error = StepRejectedError(0.75, 50.0, 16.0)
    assert (error.change, error.dt, error.suggested_dt) == (0.75, 50.0, 16.0)
    assert str(error) == "potential changed 75.0% within one step of dt=5.000e+01"


@pytest.mark.parametrize("error", [
    SngError("a failure of no narrower type"),
    InvalidArgumentError("x must be positive and finite, got nan"),
    InvalidBracketError("no bracket"),
    WrongStateError("trajectory has 1 nodes, wanted n=0"),
    ConvergenceError("no convergence"),
    StepRejectedError(0.75, 50.0, 16.0),
], ids=lambda error: type(error).__name__)
def test_every_error_type_survives_pickle(error):
    # a step rejection's args hold only its message, and unpickling it
    # called StepRejectedError(message): TypeError
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.exit_code == error.exit_code
    if isinstance(error, StepRejectedError):
        assert (copy.change, copy.dt, copy.suggested_dt) == (0.75, 50.0, 16.0)


def test_unbracketable_state_is_exit_3(capsys):
    code = main(["solve", "--n", "40", "--points", "801"])
    assert code == 3
    assert "no bracket" in capsys.readouterr().err


def test_rising_node_count_is_exit_3_and_names_points(capsys):
    # at a spacing of 1.36 the count rises from 2 at gamma0 = -5 to 6 at -2.5;
    # the n = 0 state was bisected and refused for its tail (exit 4)
    assert main(["spectrum", "--n-max", "5", "--rho-max", "76.1", "--points", "57"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node count rises" in captured.err
    assert "--points" in captured.err


def test_state_below_the_count_at_the_lattice_end_is_exit_3(capsys):
    # count(-5) = 2 on this grid, so no lattice cell brackets n = 2; the
    # cell where the shots' divergence turned at count 2 once did, and its
    # bisection was refused (exit 4)
    assert main(["solve", "--n", "2", "--rho-max", "53.759540648726485", "--points", "16"]) == 3
    captured = capsys.readouterr()
    assert "no bracket" in captured.err
    assert "--rho-max" in captured.err


def test_state_in_a_shared_cell_solves(tmp_path):
    # n = 10 shares its lattice cell with n = 9; a finer lattice once gave a
    # cell whose upper end had no decaying tail at its match radius (exit 4)
    gamma0 = {}
    for rho_max, points in (("61.59410825826832", "972"), ("75.3", "1137")):
        out = tmp_path / f"{points}.json"
        assert main(["solve", "--n", "10", "--rho-max", rho_max, "--points", points,
                     "--out-json", str(out)]) == 0
        gamma0[points] = _read_json(out)["gamma0"]
    # the larger grid agrees to its own discretization error
    assert gamma0["972"] == pytest.approx(gamma0["1137"], abs=1e-6)


def test_unreachable_decay_regime_is_exit_4(capsys):
    code = main(["solve", "--n", "2", "--rho-max", "10", "--points", "1001"])
    assert code == 4
    err = capsys.readouterr().err
    assert "rho_max" in err or "oscillatory" in err


def test_match_radius_past_the_default_grid_is_exit_4(capsys):
    # n = 6 has its last node near rho = 25.2, so rho_m lies past rho_max = 40
    assert main(["solve", "--n", "6"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--rho-max" in captured.err


@pytest.mark.parametrize("points", ["5", "11", "41"])
def test_under_resolved_state_is_exit_4(points, capsys):
    # at 5 points E came out as +4.6e4 with exit 0, at 41 points 21% off
    assert main(["solve", "--n", "0", "--points", points]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--points" in captured.err


def test_coarse_tol_refusal_is_exit_4_and_names_tol(capsys):
    assert main(["solve", "--n", "0", "--points", "2001", "--tol", "1e-7"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def test_oversized_step_is_exit_5(tmp_path, capsys):
    # a dispersing packet under gravity changes shape too fast at dt=50
    # (an exact eigenstate would sail through: its potential is static)
    code = main(["evolve", "--gravity", "--gaussian-sigma", "1.0",
                 "--points", "1001", "--dt", "50", "--steps", "3",
                 "--out-csv", str(tmp_path / "x.csv")])
    assert code == 5
    assert "suggested dt" in capsys.readouterr().err


def test_refused_run_warns_of_nothing(tmp_path, capsys):
    # step 1 spreads the packet to the outer boundary and step 2 is
    # refused: the boundary warning is a run's, given once it is complete
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["evolve", "--gravity", "--gaussian-sigma", "1.0", "--points", "1001",
                     "--steps", "3", "--dt", "19.02351", "--out-csv", str(out)])
    assert code == 5
    assert "suggested dt" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def _follow_suggested_dt(argv, dt, capsys):
    """Rerun with each printed suggested dt until a run is accepted; the dts tried."""
    tried = [dt]
    while main([*argv, "--dt", repr(tried[-1])]) == 5:
        err = capsys.readouterr().err
        assert f"dt={tried[-1]:.3e}" in err
        tried.append(float(re.search(r"suggested dt: (\S+)", err).group(1)))
        assert len(tried) <= 4
    return tried


@pytest.mark.parametrize("mass, n", [("1.67262192369e-27", "1e23"), ("1e3", "1")])
def test_oversized_step_suggests_dt_in_seconds(mass, n, tmp_path, capsys):
    # the rejected run above at physical units (time unit ~2e6 s and ~3e-97 s):
    # the rejected dt and each suggestion are in seconds, like --dt, and
    # following them retraces the natural-unit run up to an accepted step
    units = UnitScales.of(float(mass), float(n))
    common = ["evolve", "--gravity", "--points", "1001", "--steps", "3",
              "--out-csv", str(tmp_path / "x.csv")]
    # a rejected run can spread the packet to the outer boundary before the
    # step that is refused; it warns of nothing, and the accepted run does
    # not reach the boundary
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        natural = _follow_suggested_dt([*common, "--gaussian-sigma", "1.0"], 50.0, capsys)
        si = _follow_suggested_dt([*common, "--mass-kg", mass, "--n-particles", n,
                                   "--gaussian-sigma", repr(units.length),
                                   "--r-max", repr(60.0 * units.length)],
                                  50.0 * units.time, capsys)
    assert [str(w.message) for w in caught] == []
    assert len(natural) == len(si) > 1
    assert [t / units.time for t in si] == pytest.approx(natural, rel=1e-5)


@pytest.mark.parametrize("dt", ["inf", "nan"])
def test_non_finite_dt_is_exit_2(dt, tmp_path, capsys):
    code = main(["evolve", "--free", "--gaussian-sigma", "1.0", "--points", "201",
                 "--dt", dt, "--steps", "3", "--out-csv", str(tmp_path / "x.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "dt must be positive" in captured.err
    assert not (tmp_path / "x.csv").exists()


def test_csv_bytes_match_the_per_value_formatter(tmp_path):
    # the formatter every CSV used to be written with, value by value
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, -1.0 / 3.0, -2.5e-10, 1.0])
    columns = [values, values[::-1], -values]
    expected = "a,b,c\n" + "".join(",".join(f"{x:.16e}" for x in row) + "\n"
                                   for row in zip(*columns))
    path = tmp_path / "c.csv"
    sng.cli._write_csv(str(path), "a,b,c", columns)
    assert path.read_bytes() == expected.encode()
    assert "-0.0000000000000000e+00," in expected and ",-4.9406564584124654e-324," in expected


def test_overflowing_crank_nicolson_system_is_exit_2(tmp_path, capsys):
    # a finite dt whose cubic matrix overflows; a raw solver traceback exited 1
    # numpy's overflow warning used to be printed before the error line
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["evolve", "--cubic", "--kappa", "1e308", "--dt", "1e300",
                     "--gaussian-sigma", "1", "--points", "401", "--r-max", "30", "--steps", "1",
                     "--natural", "--out-csv", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dt is too large") and "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("kind", [["--free"], ["--cubic", "--kappa", "1"], ["--gravity"]],
                         ids=["free", "cubic", "gravity"])
def test_packet_whose_peak_density_overflows_is_exit_2_naming_sigma(kind, tmp_path, capsys):
    # sigma 1e-151 is a normal sigma^2 whose packet peaks at (2 pi sigma^2)^-1.5
    # = 2e452: a free run was refused as a bare non-finite field, a cubic one
    # as "energy is nan" after two numpy warnings, and a gravity one as a
    # non-finite Poisson source; each is now refused before sampling
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["evolve", *kind, "--natural", "--gaussian-sigma", "1e-151",
                     "--r-max", "1e-150", "--points", "201", "--steps", "3",
                     "--snapshot-every", "1", "--out-csv", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma 1e-151 is too small"), err
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_unknown_check_suite_is_exit_2(capsys, monkeypatch):
    assert main(["check", "--suites", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err

    def not_run():
        raise AssertionError("suite run before every name was checked")

    monkeypatch.setitem(sng.checks._SUITE_FNS, "virial", not_run)
    assert main(["check", "--suites", "virial", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite(s): nonsense;" in err


# --- check -------------------------------------------------------------------

def test_check_runs_a_repeated_suite_once(capsys):
    assert main(["check", "--suites", "poisson", "poisson"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS  poisson") for line in lines[:4])
    assert lines[4] == "4/4 checks passed"


# the two suites cheap enough to draw, and names that are not suites:
# empty, blank, another case, padded, a comma list, and drawn words
CHEAP_SUITES = ("poisson", "homogeneity")
NOT_SUITES = st.one_of(
    st.sampled_from(["", " ", "Poisson", "poisson ", "poisson,homogeneity", "all"]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", max_size=12),
).filter(lambda name: name not in sng.checks.SUITES)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(names=st.lists(st.one_of(st.sampled_from(CHEAP_SUITES), NOT_SUITES), max_size=5))
@example(names=[])
@example(names=["poisson", "homogeneity", "poisson"])
@example(names=["homogeneity", "nonsense"])
@example(names=[""])
def test_check_suites_exit_with_a_documented_code(names):
    argv = ["check", "--suites", *names]
    if not names:
        # argparse refuses --suites without a name before any suite runs
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        return
    code = _assert_documented_exit(argv)
    assert code == (0 if set(names) <= set(CHEAP_SUITES) else 2), names


def test_check_single_suite_reports_rows(capsys):
    code = main(["check", "--suites", "homogeneity"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 3
    assert all(l.startswith("PASS") for l in lines)
    assert "3/3 checks passed" in out


@pytest.mark.parametrize("measured, passed", [
    (0.5, False),         # below the lower bound
    (2.5, True),          # between the bounds
    (4.0, True),          # on the bound
    (4.5, False),         # above the bound
    (math.nan, False),
])
def test_check_row_passes_only_between_its_bounds(measured, passed):
    assert CheckResult("s", "row", measured, 4.0, lower=1.0).passed is passed
    # with no lower bound, only the upper one judges
    assert CheckResult("s", "row", measured, 4.0).passed is (measured <= 4.0)
