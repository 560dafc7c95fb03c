"""Command-line front end.

Five subcommands: ``solve`` (one universal bound state), ``spectrum``
(states 0..n_max), ``rescale`` (universal solution to physical units),
``evolve`` (Crank–Nicolson time evolution), and ``check`` (release-gate
suites).  Data goes to JSON summaries and CSV tables; identical flags
produce byte-identical files, so no timestamps appear anywhere.

Exit codes: 0 success; 1 check-suite failure; otherwise the ``exit_code``
of the error's type (:mod:`sng.errors`): 2 invalid flags or input
(InvalidArgumentError), 3 no eigenvalue bracket found
(InvalidBracketError), 4 convergence failure (ConvergenceError,
WrongStateError), 5 evolution step rejected (StepRejectedError; a
suggested smaller dt is printed).

The library computes and reports in units of the gravitational Bohr
radius a_g only; this module is the one place SI enters.  SI flags are
divided by their :class:`~sng.physical.UnitScales` factor when read, and
SI outputs are the a_g values times that factor when written.  In
natural units every factor is exactly 1.0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .checks import SUITES, run_suites
from .errors import (
    InvalidArgumentError,
    SngError,
    StepRejectedError,
    WrongStateError,
    check_count,
    check_positive,
)
from .evolution import NonlinearityKind, evolve, gaussian_state, state_from_profile
from .grids import RadialField, make_grid
from .physical import (
    UnitScales,
    energy_breakdown,
    half_max_radius,
    rescale_to_physical,
    rms_radius,
)
from .shooting import DEFAULT_POINTS, DEFAULT_RHO_MAX, DEFAULT_TOL, UniversalSolution, solve_states

__all__ = ["main"]

_GENERATED_BY = f"sng {__version__}"


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _si(name: str, values, unit: float):
    """``values`` (an array or a float) in a_g units times their SI ``unit``;
    InvalidArgumentError names the column when a product is not finite (so
    numpy's overflow warning is silenced)."""
    with np.errstate(over="ignore"):
        out = values * unit
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError(f"{name} in SI units is not representable as a double")
    return out


def _si_scalar(name: str, value: float, unit: float) -> float:
    """:func:`_si` of one summary value, refused also where it is nonzero
    but subnormal: it would be written with too few significant bits.  A
    table column is left to underflow, as the far tail of f does."""
    out = _si(name, value, unit)
    if out != 0.0 and abs(out) < sys.float_info.min:
        raise InvalidArgumentError(f"{name} in SI units = {out!r} is subnormal, "
                                   "below the smallest normal double")
    return out


def _open_output(path: str):
    """``path`` opened for writing; InvalidArgumentError names it when it cannot be."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror}") from exc


def _formatted(column: np.ndarray) -> list[str]:
    """Each value of ``column`` as :func:`_write_csv` writes it."""
    return ["%.16e" % value for value in column.tolist()]


def _write_csv(path: str, header: str, columns: list[np.ndarray | list[str]]) -> None:
    """One row per sample; every value in 17 significant digits, scientific,
    which round-trips any double.  A column may also be given as the
    :func:`_formatted` strings of its values, so that a column shared by
    many files (the radius of a run's snapshots) is formatted once."""
    row_format = ",".join("%s" if isinstance(column, list) else "%.16e"
                          for column in columns) + "\n"
    # the values row by row, formatted by one % over the whole table
    width, n_rows = len(columns), len(columns[0])
    values = [None] * (width * n_rows)
    for k, column in enumerate(columns):
        values[k::width] = column if isinstance(column, list) else column.tolist()
    text = (row_format * n_rows) % tuple(values)
    with _open_output(path) as fh:
        fh.write(header + "\n")
        fh.write(text)


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _open_output(path) as fh:
            fh.write(text)


def _solution_summary(sol: UniversalSolution) -> dict:
    return {
        "n": sol.n,
        "gamma0": sol.gamma0,
        "gamma1": sol.gamma1,
        "epsilon_star": sol.epsilon_star,
        "node_count": sol.n,
        "bracket_width": sol.bracket_width,
        "grid": {"rho_max": sol.grid.rho_max, "points": sol.grid.n_points},
        "generated_by": _GENERATED_BY,
    }


# ---------------------------------------------------------------------------
# physical-parameter flags (shared by rescale and evolve)
# ---------------------------------------------------------------------------

def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--natural", action="store_true",
                     help="natural units: mass = hbar = G = particle count = 1")
    sub.add_argument("--mass-kg", type=float, default=None,
                     help="constituent particle mass in kg")
    sub.add_argument("--n-particles", type=float, default=None,
                     help="number of particles in the condensate")


def _units_from_flags(args, required: bool) -> UnitScales:
    physical = args.mass_kg is not None or args.n_particles is not None
    if args.natural and physical:
        raise InvalidArgumentError("--natural excludes --mass-kg/--n-particles")
    if physical and (args.mass_kg is None or args.n_particles is None):
        raise InvalidArgumentError("--mass-kg and --n-particles go together")
    if physical:
        return UnitScales.of(args.mass_kg, args.n_particles)
    if args.natural or not required:
        return UnitScales(1.0, 1.0, 1.0, 1.0)
    raise InvalidArgumentError("pick units: --natural, or --mass-kg with --n-particles")


# ---------------------------------------------------------------------------
# reading a solve summary back
# ---------------------------------------------------------------------------

def _table_reference(csv_path: str, json_path: str | None) -> str:
    """The ``x_csv`` of a summary: its table's path relative to the
    summary's directory (the working directory when it goes to stdout),
    which :func:`_load_solution` joins back; the bare file name when the
    two files share a directory."""
    json_dir = os.path.dirname(os.path.abspath(json_path)) if json_path is not None else os.curdir
    return os.path.relpath(csv_path, json_dir)


def _load_solution(json_path: str) -> UniversalSolution:
    """Rebuild a UniversalSolution from a solve JSON's profile CSV; refuse
    a summary whose n or node_count is not the node count of its f*
    (WrongStateError), or whose gamma0, gamma1 or epsilon_star is not read
    off it (InvalidArgumentError)."""
    try:
        with open(json_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise InvalidArgumentError(f"cannot read {json_path}: {exc}") from exc
    try:
        n, node_count, points = data["n"], data["node_count"], data["grid"]["points"]
        summary = {name: float(data[name]) for name in ("gamma0", "gamma1", "epsilon_star")}
        bracket_width = float(data["bracket_width"])
        rho_max = float(data["grid"]["rho_max"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{json_path} is not a solve summary: {exc}") from exc
    # counts are refused, not truncated, when infinite or fractional
    n, node_count = check_count("n", n, 0), check_count("node_count", node_count, 0)
    points = check_count("points", points, 3)
    csv_name = data.get("x_csv")
    if not (isinstance(csv_name, str) and csv_name):
        raise InvalidArgumentError(
            f"{json_path} carries no profile table (x_csv); "
            "re-run solve with --out-json to get the companion CSV"
        )
    csv_path = os.path.join(os.path.dirname(os.path.abspath(json_path)), csv_name)
    try:
        with warnings.catch_warnings():
            # a table without data rows is refused below, naming the file
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise InvalidArgumentError(f"profile table missing: {exc}") from exc
    except ValueError as exc:
        raise InvalidArgumentError(
            f"profile table {csv_path} is not rows of three numbers: {exc}") from exc
    if table.size == 0:
        raise InvalidArgumentError(f"profile table {csv_path} holds no data rows")
    if table.ndim != 2 or table.shape[1] != 3 or table.shape[0] != points:
        raise InvalidArgumentError(
            f"{csv_path} does not match the summary grid ({points} points)"
        )
    grid = make_grid(rho_max, points)
    with np.errstate(over="ignore"):  # an overflowing difference disagrees too
        agrees = np.allclose(table[:, 0], grid.nodes, rtol=0.0, atol=1e-9 * rho_max)
    if not agrees:
        raise InvalidArgumentError(f"{csv_path} rho column disagrees with the grid")
    # the rescaling squares f* into a density
    with np.errstate(over="ignore"):
        columns = {"f_star": table[:, 1] ** 2, "g_star": table[:, 2]}
    for name, values in columns.items():
        if not np.isfinite(values).all():
            raise InvalidArgumentError(
                f"profile table {csv_path} column {name} holds a sample that is not finite"
                + (" or whose square overflows a double" if name == "f_star" else ""))
    sol = UniversalSolution(RadialField(grid, table[:, 1]), RadialField(grid, table[:, 2]),
                            bracket_width)
    if n != sol.n or node_count != sol.n:
        raise WrongStateError(f"n = {n} and node_count = {node_count} in {json_path} disagree "
                              f"with the {sol.n} nodes of f* in {csv_path}")
    # both files round-trip their doubles, so an untampered pair agrees bit for bit
    for name, value in summary.items():
        if value != getattr(sol, name):
            raise InvalidArgumentError(f"{name} = {value!r} in {json_path} disagrees with "
                                       f"{getattr(sol, name)!r}, read off {csv_path}")
    return sol


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    [sol] = solve_states([check_count("--n", args.n, 0)], make_grid(args.rho_max, args.points),
                         tol=args.tol)
    summary = _solution_summary(sol)
    csv_path = args.out_csv
    if csv_path is None and args.out_json is not None:
        csv_path = os.path.splitext(args.out_json)[0] + ".csv"
    if csv_path is not None:
        _write_csv(csv_path, "rho,f_star,g_star",
                   [sol.grid.nodes, sol.f_star.values, sol.g_star.values])
        summary["x_csv"] = _table_reference(csv_path, args.out_json)
    _emit_json(summary, args.out_json)
    return 0


def _cmd_spectrum(args) -> int:
    solutions = solve_states(range(check_count("--n-max", args.n_max, 0) + 1),
                             make_grid(args.rho_max, args.points), tol=args.tol)
    gammas = [s.gamma0 for s in solutions]
    if not all(a > b for a, b in zip(gammas, gammas[1:])):
        raise WrongStateError(f"gamma0 sequence is not strictly decreasing: {gammas}")
    _emit_json([_solution_summary(s) for s in solutions], args.out_json)
    return 0


def _cmd_rescale(args) -> int:
    sol = _load_solution(args.in_json)
    units = _units_from_flags(args, required=True)
    profile = rescale_to_physical(sol)
    eps = profile.epsilon_ag  # the virial identities: T = -eps/3, W = 2 eps/3, E = eps/3
    energies = {f"{name}_J": _si_scalar(name, value, units.energy) for name, value in (
        ("e_kinetic", -eps / 3.0), ("e_gravity", 2.0 * eps / 3.0), ("e_total", eps / 3.0),
        ("epsilon", eps), ("e_single", eps / 3.0))}
    summary = {
        "bohr_radius_m": units.length,
        "half_max_radius_m": _si_scalar("half_max_radius", half_max_radius(profile),
                                        units.length),
        "rms_radius_m": _si_scalar("rms_radius", rms_radius(profile), units.length),
        **energies,
        # the quadrature's check of the identities above
        "virial_residual": energy_breakdown(profile).virial_residual,
        # kept so that the schema does not change: gamma1 is f*'s own norm
        "renormalized": False,
        "x_norm": profile.norm,
        "x_phi_tail_shift": _si_scalar("phi_tail_shift", profile.phi_tail_shift_ag,
                                       units.potential),
        "generated_by": _GENERATED_BY,
    }
    if args.out_csv is not None:
        grid = profile.f_ag.grid
        _write_csv(args.out_csv, "r_m,f,phi",
                   [make_grid(grid.rho_max * units.length, grid.n_points).nodes,
                    _si("f", profile.f_ag.values, units.amplitude),
                    _si("phi", profile.phi_ag.values, units.potential)])
        summary["x_csv"] = _table_reference(args.out_csv, args.out_json)
    _emit_json(summary, args.out_json)
    return 0


def _cmd_evolve(args) -> int:
    check_count("--steps", args.steps, 1)
    check_count("--observe-every", args.observe_every, 1)
    if args.snapshot_every is not None:
        check_count("--snapshot-every", args.snapshot_every, 1)
    if args.dt is not None:
        check_positive("--dt", args.dt)
    if (args.gaussian_sigma is None) == (args.from_json is None):
        raise InvalidArgumentError("pick an initial state: --gaussian-sigma or --from")
    if args.cubic and args.kappa is None:
        raise InvalidArgumentError("--cubic needs --kappa (and --sign, default +1)")
    # a flag that does not apply to the run is refused, not ignored
    for flag, value, applies, kind in (
            ("--kappa", args.kappa, args.cubic, "--cubic runs"),
            ("--sign", args.sign, args.cubic, "--cubic runs"),
            ("--points", args.points, args.from_json is None, "--gaussian-sigma starts"),
            ("--r-max", args.r_max, args.from_json is None, "--gaussian-sigma starts")):
        if value is not None and not applies:
            raise InvalidArgumentError(f"{flag} applies only to {kind}")

    units = _units_from_flags(args, required=False)
    density_unit = units.density if args.snapshot_every is not None else None
    if args.free:
        nl = NonlinearityKind.free()
    elif args.cubic:
        nl = NonlinearityKind.cubic(kappa=args.kappa / units.coupling,
                                    sign=1 if args.sign is None else args.sign)
    else:
        nl = NonlinearityKind.gravity()

    # every (m, N) evolves the same a_g-unit state
    profile = None
    if args.from_json is not None:
        profile = rescale_to_physical(_load_solution(args.from_json))
        state = state_from_profile(profile)
    else:
        sigma = args.gaussian_sigma / units.length
        r_max = 60.0 if args.r_max is None else args.r_max
        points = 4001 if args.points is None else args.points
        state = gaussian_state(make_grid(r_max / units.length, points), sigma)

    if args.dt is not None:
        dt = args.dt / units.time
    elif profile is not None:
        dt = 2.0 * np.pi / abs(profile.epsilon_ag / 3.0) / 200.0
    else:
        dt = 2.0 * sigma**2 / 200.0

    try:
        series = evolve(state, t_final=state.time + args.steps * dt, dt=dt, nl=nl,
                        observe_every=args.observe_every,
                        snapshot_every=args.snapshot_every)
    except StepRejectedError as exc:  # the stepper's dt is in m a_g^2/hbar; --dt's in seconds
        raise StepRejectedError(exc.change, exc.dt * units.time,
                                _si("suggested dt", exc.suggested_dt, units.time)) from exc
    columns = [_si("t", series.times, units.time), series.norms,
               _si("energy", series.energies, units.energy),
               _si("rms_width", series.widths, units.length)]
    snapshots = series.snapshots or ()
    if snapshots:  # all of a run's snapshots share its grid and unit
        radius = _formatted(_si("r", state.grid.nodes, units.length))
    densities = [_si("density", field.values, density_unit) for _, field in snapshots]
    _write_csv(args.out_csv, "t,norm,energy,rms_width", columns)
    stem = os.path.splitext(args.out_csv)[0]
    for idx, density in enumerate(densities):
        _write_csv(f"{stem}_snap_{idx:04d}.csv", "r,density", [radius, density])
    return 0


def _cmd_check(args) -> int:
    rows = run_suites(args.suites)
    width = max(len(r.name) for r in rows)
    for row in rows:
        flag = "PASS" if row.passed else "FAIL"
        print(f"{flag}  {row.suite:12s} {row.name:{width}s} "
              f"measured={row.measured:.3e} bound={row.bound:.3e}")
    failed = sum(not r.passed for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of all five subcommands, built on the first :func:`main`
    call and reused by the later ones: parsing keeps no state on it.  The
    reuse pays only where one process runs many commands (the benchmark
    loop, the tests); the ``sng`` script runs one and builds it once."""
    parser = argparse.ArgumentParser(
        prog="sng",
        description="Self-gravitating bound states: solve, rescale, evolve, check.",
    )
    parser.add_argument("--version", action="version", version=_GENERATED_BY)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--rho-max", type=float, default=DEFAULT_RHO_MAX,
                       help="outer radius of the universal grid")
        p.add_argument("--points", type=int, default=DEFAULT_POINTS,
                       help="grid points including both ends")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="bisection bracket-width target")

    p = sub.add_parser("solve", help="solve one universal bound state")
    p.add_argument("--n", type=int, required=True, help="number of radial nodes")
    add_grid_flags(p)
    p.add_argument("--out-json", default=None, help="summary path (default: stdout)")
    p.add_argument("--out-csv", default=None,
                   help="profile table path (default: alongside --out-json)")

    p = sub.add_parser("spectrum", help="solve states n = 0..n_max")
    p.add_argument("--n-max", type=int, required=True)
    add_grid_flags(p)
    p.add_argument("--out-json", default=None, help="summary-array path (default: stdout)")

    p = sub.add_parser("rescale", help="map a solve summary to physical units")
    p.add_argument("in_json", help="JSON written by solve (with its profile CSV)")
    _add_params_flags(p)
    p.add_argument("--out-json", default=None, help="summary path (default: stdout)")
    p.add_argument("--out-csv", default=None, help="physical profile table path")

    p = sub.add_parser("evolve", help="integrate the time-dependent equation")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--free", action="store_true", help="no interaction")
    kind.add_argument("--cubic", action="store_true", help="local |psi|^2 interaction")
    kind.add_argument("--gravity", action="store_true", help="self-gravity interaction")
    p.add_argument("--kappa", type=float, default=None,
                   help="cubic coupling strength (with --cubic)")
    p.add_argument("--sign", type=int, choices=(-1, 1), default=None,
                   help="cubic interaction sign: +1 repulsive (default), -1 attractive")
    p.add_argument("--gaussian-sigma", type=float, default=None,
                   help="start from a Gaussian with this per-axis width")
    p.add_argument("--from", dest="from_json", default=None,
                   help="start from a solve summary (rescaled to the given units)")
    p.add_argument("--r-max", type=float, default=None,
                   help="domain radius for --gaussian-sigma starts (default 60)")
    p.add_argument("--points", type=int, default=None,
                   help="grid points for --gaussian-sigma starts (default 4001)")
    _add_params_flags(p)
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default: 1/200 of the natural timescale)")
    p.add_argument("--steps", type=int, default=200, help="number of steps")
    p.add_argument("--observe-every", type=int, default=1,
                   help="record observables every k steps")
    p.add_argument("--snapshot-every", type=int, default=None,
                   help="write a density snapshot every k steps")
    p.add_argument("--out-csv", default="evolve.csv",
                   help="observable table path (snapshots share its stem)")

    p = sub.add_parser("check", help="run release-gate check suites")
    p.add_argument("--suites", nargs="+", default=None,
                   help=f"subset to run (default: all of {', '.join(SUITES)})")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code.  Safe to call repeatedly in one process."""
    args = _build_parser().parse_args(argv)
    # looked up at call time, so that a replaced _cmd_* function is the one that runs
    commands = {"solve": _cmd_solve, "spectrum": _cmd_spectrum, "rescale": _cmd_rescale,
                "evolve": _cmd_evolve, "check": _cmd_check}
    try:
        return commands[args.command](args)
    except SngError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, StepRejectedError):
            sys.stderr.write(f"suggested dt: {exc.suggested_dt:.6e}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
