"""The four benchmark workloads and the checker for their outputs.

Each workload is one ``sng`` CLI command run through ``sng.cli.main``, with
inputs drawn from the seed so that every seed does the same amount of
work; seed 0 uses sigma = 1 and natural units.  After every iteration
``check`` reads the command's output files back, compares them with the
references in ``references.json`` and returns the operation counts, the
physics record and the sha256 digests of the outputs.

Two kinds of check are kept apart.  A *failed* operation broke the
program's own contract: the command raised or exited non-zero, an output
is missing or malformed, a step was rejected, or a value is outside the
tolerance the program's own release gate sets (energy drift 1e-5, norm
drift 1e-8, width law 1e-3, each check row's bound).  An *off-reference*
operation completed but disagrees with a published value; only the
spectrum workload has those.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCES_PATH = Path(__file__).parent / "references.json"

NUCLEON_KG = 1.67262192369e-27


@dataclass
class IterationCheck:
    attempted: int
    failed: int
    off_reference: int
    answer_err: float | None
    physics: dict
    digests: dict = field(default_factory=dict)
    csv_rows: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_table(path: Path, columns: int) -> np.ndarray | None:
    """The data rows of a CLI CSV file, or None when missing or malformed."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    if table.shape[1] != columns or not np.all(np.isfinite(table)):
        return None
    return table


def _rel_drift(values: np.ndarray) -> np.ndarray:
    return np.abs(values - values[0]) / abs(values[0])


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.ref = json.loads(REFERENCES_PATH.read_text())
        self.inputs: dict = {}
        self.argv: list[str] = []

    def prepare(self, cli) -> None:
        """Input preparation, timed as part of set-up."""

    def outputs(self) -> list[Path]:
        return []

    def before_iteration(self, sng_modules) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def check(self, rc: int | None, stdout: str) -> IterationCheck:
        raise NotImplementedError


class Spectrum(Workload):
    name = "spectrum"
    why = ("all work is RK4 shooting (1 scan, 5 bisections) on the default grid; "
           "evolution idle; runs the spectrum thread pool with one worker")
    N_MAX = 4
    TOL = 1e-10
    # With two pool workers the interpreter-lock hand-off between cores made
    # wall_s spread 23% from run to run on a shared 2-core machine.  One
    # worker still runs the pool path; the test suite covers determinism
    # across thread counts.
    THREADS = "1"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # The command takes no input but the grid, and changing the grid
        # changes which states the default domain truncates, so every seed
        # runs the same command.
        self.out = workdir / "spectrum.json"
        self.inputs = {"n_max": self.N_MAX, "rho_max": 40.0, "points": 8001, "tol": self.TOL,
                       "SNG_THREADS": self.THREADS}
        self.argv = ["spectrum", "--n-max", str(self.N_MAX), "--out-json", str(self.out)]

    def prepare(self, cli):
        os.environ["SNG_THREADS"] = self.THREADS

    def outputs(self):
        return [self.out]

    def check(self, rc, stdout):
        ref = self.ref["spectrum"]
        n_states = self.N_MAX + 1
        try:
            states = json.loads(self.out.read_text()) if rc == 0 else None
        except (OSError, json.JSONDecodeError):
            states = None
        if not isinstance(states, list) or len(states) != n_states:
            return IterationCheck(n_states, n_states, 0, None, {"rc": rc})
        failed = off = 0
        worst = 0.0
        record = []
        gammas = [s.get("gamma0") for s in states]
        ordered = all(isinstance(g, float) for g in gammas) and all(
            a > b for a, b in zip(gammas, gammas[1:]))
        for n, s in enumerate(states):
            try:
                energy = 2.0 * s["epsilon_star"] / s["gamma1"] ** 2
                sound = (ordered and s["n"] == n and s["node_count"] == n
                         and 0.0 < s["bracket_width"] <= self.TOL and np.isfinite(energy))
            except (KeyError, TypeError, ZeroDivisionError):
                sound, energy = False, None
            if not sound:
                failed += 1
                record.append({"n": n, "sound": False})
                continue
            rel = abs(energy - ref["E"][n]) / abs(ref["E"][n])
            within = abs(energy - ref["E"][n]) <= ref["abs_tol"][n]
            off += not within
            worst = max(worst, rel)
            record.append({"n": n, "gamma0": s["gamma0"], "gamma1": s["gamma1"],
                           "epsilon_star": s["epsilon_star"], "E": energy,
                           "E_ref": ref["E"][n], "rel_err": rel, "within_ref": within})
        return IterationCheck(n_states, failed, off, worst, {"states": record},
                              {self.out.name: _sha256(self.out)})


class _Evolve(Workload):
    STEPS = 1000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = workdir / f"{self.name}.csv"

    def outputs(self):
        return [self.out]

    def _observed(self) -> np.ndarray | None:
        table = _csv_table(self.out, 4)
        if table is None or len(table) != self.expected_rows:
            return None
        return table

    def _drift_failures(self, table) -> tuple[np.ndarray, dict]:
        tol = self.ref["evolution"]
        norm_drift = _rel_drift(table[:, 1])
        energy_drift = _rel_drift(table[:, 2])
        bad = (norm_drift > tol["norm_drift"]) | (energy_drift > tol["energy_drift"])
        return bad[1:], {"norm_drift": float(norm_drift.max()),
                         "energy_drift": float(energy_drift.max()),
                         "t_final": float(table[-1, 0])}

    def _result(self, bad, answer_err, physics) -> IterationCheck:
        """One operation per step; a step fails when its observation does."""
        paths = self.outputs()
        return IterationCheck(self.STEPS, int(np.count_nonzero(bad)), 0, answer_err, physics,
                              {p.name: _sha256(p) for p in paths},
                              sum(len(p.read_text().splitlines()) - 1 for p in paths))


class EvolveGravity(_Evolve):
    name = "evolve-gravity"
    why = ("Poisson-driven predictor-corrector steps and per-step observables from "
           "a set-up ground state; snapshot CSVs; no shooting after set-up")
    SNAP_EVERY = 100
    POINTS = 4001

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ground = workdir / "ground.json"
        if seed == 0:
            units = ["--natural"]
            self.inputs = {"units": "natural"}
        else:
            # homology scaling: any (m, N) gives the same dimensionless run
            n_particles = 10.0 ** self.rng.uniform(22.0, 24.0)
            units = ["--mass-kg", repr(NUCLEON_KG), "--n-particles", repr(n_particles)]
            self.inputs = {"units": "physical", "mass_kg": NUCLEON_KG, "n_particles": n_particles}
        self.inputs.update(ground_points=self.POINTS, steps=self.STEPS,
                           snapshot_every=self.SNAP_EVERY)
        self.expected_rows = self.STEPS + 1
        self.argv = ["evolve", "--gravity", "--from", str(self.ground), *units,
                     "--steps", str(self.STEPS), "--snapshot-every", str(self.SNAP_EVERY),
                     "--out-csv", str(self.out)]

    def prepare(self, cli):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["solve", "--n", "0", "--points", str(self.POINTS),
                           "--out-json", str(self.ground)])
        if rc != 0:
            raise RuntimeError(f"ground-state solve exited {rc}")
        ground = json.loads(self.ground.read_text())
        self.inputs["ground"] = {k: ground[k] for k in ("gamma0", "gamma1", "epsilon_star")}

    def outputs(self):
        snaps = self.STEPS // self.SNAP_EVERY + 1
        return [self.out] + [self.workdir / f"{self.out.stem}_snap_{i:04d}.csv"
                             for i in range(snaps)]

    def check(self, rc, stdout):
        table = self._observed() if rc == 0 else None
        snaps_ok = table is not None and all(
            (s := _csv_table(p, 2)) is not None and len(s) == self.POINTS
            for p in self.outputs()[1:])
        if not snaps_ok:
            return IterationCheck(self.STEPS, self.STEPS, 0, None, {"rc": rc})
        bad, physics = self._drift_failures(table)
        return self._result(bad, physics["energy_drift"], physics)


class EvolveFree(_Evolve):
    name = "evolve-free"
    why = ("the same Crank-Nicolson stepper with V = 0 and sparse observation: "
           "no Poisson solve, no shooting")
    OBSERVE_EVERY = 50
    POINTS = 2001

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Scaling sigma, r_max and (through the default dt) the time step
        # together leaves the discrete problem unchanged in units of sigma.
        scale = 1.0 if seed == 0 else self.rng.uniform(0.9, 1.1)
        self.sigma = scale
        r_max = 60.0 * scale
        self.inputs = {"sigma": self.sigma, "r_max": r_max, "points": self.POINTS,
                       "steps": self.STEPS, "observe_every": self.OBSERVE_EVERY}
        self.expected_rows = self.STEPS // self.OBSERVE_EVERY + 1
        self.argv = ["evolve", "--free", "--gaussian-sigma", repr(self.sigma),
                     "--r-max", repr(r_max), "--points", str(self.POINTS),
                     "--steps", str(self.STEPS), "--observe-every", str(self.OBSERVE_EVERY),
                     "--out-csv", str(self.out)]

    def check(self, rc, stdout):
        table = self._observed() if rc == 0 else None
        if table is None:
            return IterationCheck(self.STEPS, self.STEPS, 0, None, {"rc": rc})
        bad, physics = self._drift_failures(table)
        t, width = table[:, 0], table[:, 3]
        law = np.sqrt(3.0) * self.sigma * np.sqrt(1.0 + (t / (2.0 * self.sigma**2)) ** 2)
        width_dev = np.abs(width / law - 1.0)
        bad |= width_dev[1:] > self.ref["free_dispersion"]["rel_tol"]
        physics["width_law_dev"] = float(width_dev.max())
        return self._result(bad, physics["width_law_dev"], physics)


_ROW = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+(\S+)\s+measured=(\S+) bound=(\S+)$")


class Gate(Workload):
    name = "gate"
    why = ("all six check suites from cold caches: single-state shooting dominated "
           "by scans, plus the SCF oracle and the cubic evolution path")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # `check` takes no input, so every seed runs the same command.
        self.inputs = {"suites": "all"}
        self.argv = ["check"]

    def before_iteration(self, sng_modules):
        # Start cold: sng.checks caches its solved states per process.
        for mod in sng_modules:
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def check(self, rc, stdout):
        expected = self.ref["gate"]["rows"]
        rows = {}
        for line in stdout.splitlines():
            m = _ROW.match(line.strip())
            if m:
                rows[f"{m[2]}.{m[3]}"] = (m[1] == "PASS", float(m[4]), float(m[5]))
        if rc not in (0, 1) or not rows:
            return IterationCheck(len(expected), len(expected), 0, None, {"rc": rc})
        failed = 0
        worst = 0.0
        for name in expected.keys() | rows.keys():
            ref = expected.get(name)
            if name not in rows:
                failed += 1
                continue
            passed, measured, bound = rows[name]
            if ref is not None:
                passed = (passed and abs(bound - ref["bound"]) <= 1e-3 * ref["bound"]
                          and measured >= ref.get("lower", -np.inf))
                bound = ref["bound"]
            failed += not passed
            worst = max(worst, measured / bound)
        physics = {"rows": {k: {"passed": v[0], "measured": v[1], "bound": v[2]}
                            for k, v in rows.items()}}
        digest = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        return IterationCheck(len(expected.keys() | rows.keys()), failed, 0, worst,
                              physics, digest)


WORKLOADS = {w.name: w for w in (Spectrum, EvolveGravity, EvolveFree, Gate)}
