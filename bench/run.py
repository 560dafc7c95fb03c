"""Benchmark of the sng CLI: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of spectrum, evolve-gravity, evolve-free, gate, or ``all``,
which runs the four one after another, each in its own process, and prints
one table.  Run it from the repository root or anywhere else: the package
is imported from the ``src/`` directory next to this one, never from an
installed copy.  Each workload is a closed loop: one client thread in this
one process calls ``sng.cli.main`` back to back until S seconds have
passed, starting at least one iteration.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (wall_s, setup_s, peak_rss_mb, pass_frac,
answer_err); wall_s and setup_s are rescaled by the machine speed that
``calibration_kernel`` measures in the same run.  With ``--trace 1`` the loop first runs untraced for half the
time, then with the tracer installed for the other half, and the JSON holds
the per-layer metrics and the tracing overhead.  Outputs and result files
go to ``.bench_work/`` in the repository root; the result file keeps every
iteration's timing, physics record and output digests, plus the recorded
inputs and environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("spectrum", "evolve-gravity", "evolve-free", "gate")

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "fraction", "higher"),
    ("answer_err", "ratio", "lower"),
)

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sng; print(time.perf_counter() - t)")
IMPORT_SAMPLES = 3
PREPARE_SAMPLES = 3

# About the median time of calibration_kernel on the shared 2-core machine
# the README baseline was measured on.  wall_s and setup_s are rescaled by
# CALIBRATION_REF_S over the kernel's median time in the same run.
CALIBRATION_REF_S = 0.019
CALIBRATION_REPS = 3
CALIBRATION_EVERY_S = 2.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """HEAD of the repository this file sits in, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its C API."""
    import ctypes

    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        return out
    for lib_path in sorted({p for p in maps if "openblas" in p and p.endswith(".so")}):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(lib_path).name] = fn()
                break
    return out


def _environment(np, scipy, sng) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sng": sng.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "SNG_THREADS": os.environ.get("SNG_THREADS"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "load": "closed loop, one client thread in one process",
    }


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

def calibration_kernel(np, solve_banded) -> float:
    """Seconds taken by a fixed mix of work like the workloads': scalar
    Python float arithmetic stored into numpy arrays, like the RK4 stepper,
    and complex vector work with a banded solve, like a Crank-Nicolson step.

    The shared machine's speed drifts by +-20% over minutes, and every
    workload slows down with it.  The kernel, timed between iterations,
    measures that drift so the bounded times can divide it out.
    """
    t0 = time.perf_counter()
    n = 3000
    f = np.empty(n)
    fp = np.empty(n)
    y, yp, h = 1.0, 0.0, 1e-3
    for i in range(1, n):
        r = i * h
        a = -y - 2.0 * yp / r
        y += h * yp
        yp += h * a
        f[i], fp[i] = y, yp
    ab = np.empty((3, 4001), dtype=np.complex128)
    ab[0] = ab[2] = -0.1j
    ab[1] = 1.0 + 0.2j
    u = np.linspace(0.0, 1.0, 4001).astype(np.complex128)
    for _ in range(60):
        rhs = (1.0 - 0.2j) * u + 0.1j * (np.roll(u, 1) + np.roll(u, -1))
        u = solve_banded((1, 1), ab, rhs)
        w = np.cumsum(np.abs(u) ** 2)
    if not (np.isfinite(w[-1]) and np.isfinite(f[-1])):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def _import_samples(in_process: float) -> list[float]:
    samples = [in_process]
    for _ in range(IMPORT_SAMPLES - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def _loop(wl, cli, sng_modules, seconds: float, iterations: list, calibrate,
          tracer=None) -> None:
    """Run the workload's command back to back for ``seconds``, timing the
    calibration kernel before every iteration."""
    start = time.perf_counter()
    while True:
        calibrate()
        wl.before_iteration(sng_modules)
        index = len(iterations)
        if tracer is not None:
            tracer.iteration = index
        out = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(wl.argv))
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an untyped error escaped the CLI: every operation fails
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        result = wl.check(rc, out.getvalue())
        if error is not None:
            sys.stderr.write(error)
            result.failed = result.attempted
        iterations.append({"iteration": index, "traced": tracer is not None, "wall_s": wall,
                           "rc": rc, "error": error, **vars(result)})
        if time.perf_counter() - start >= seconds:
            return


def run_one(args) -> int:
    if not (SRC / "sng" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sng package under {SRC}\n")
        return 2
    # Time the package import before this script imports numpy itself.
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sng
    import sng.cli
    import_in_process = time.perf_counter() - t0
    if Path(sng.__file__).resolve().parent != SRC / "sng":
        sys.stderr.write(f"error: imported sng from {sng.__file__}, not {SRC}\n")
        return 2

    import numpy as np
    import scipy
    from scipy.linalg import solve_banded

    import tracer as tracing
    from workloads import WORKLOADS

    environment = _environment(np, scipy, sng)
    calibration: list[float] = []
    last_burst = -CALIBRATION_EVERY_S

    def calibrate(force: bool = False):
        nonlocal last_burst
        if force or time.perf_counter() - last_burst >= CALIBRATION_EVERY_S:
            calibration.extend(calibration_kernel(np, solve_banded)
                               for _ in range(CALIBRATION_REPS))
            last_burst = time.perf_counter()

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    sng_modules = [m for k, m in sys.modules.items()
                   if (k == "sng" or k.startswith("sng.")) and m is not None]
    try:
        calibrate()
        import_s = _import_samples(import_in_process)
        prepare_s = []
        for _ in range(PREPARE_SAMPLES if args.trace == 0 else 1):
            t0 = time.perf_counter()
            wl.prepare(sng.cli)
            prepare_s.append(time.perf_counter() - t0)

        iterations: list[dict] = []
        tracer = None
        if args.trace == 0:
            _loop(wl, sng.cli, sng_modules, args.seconds, iterations, calibrate)
        else:
            _loop(wl, sng.cli, sng_modules, args.seconds / 2, iterations, calibrate)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _loop(wl, sng.cli, sng_modules, args.seconds / 2, iterations, calibrate,
                      tracer)
            finally:
                tracer.uninstall()
        calibrate(force=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Byte-identical outputs: every iteration must reproduce the first one's.
    first = iterations[0]["digests"]
    for it in iterations:
        it["digest_matches_first"] = it["digests"] == first
        if not it["digest_matches_first"]:
            it["failed"] = it["attempted"]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    off_reference = sum(it["off_reference"] for it in iterations if it["failed"] == 0)
    errors = [it["answer_err"] for it in iterations if it["answer_err"] is not None]
    untraced = [it["wall_s"] for it in iterations if not it["traced"]]
    q1, wall_s, q3 = _quartiles(untraced)
    speed = CALIBRATION_REF_S / statistics.median(calibration)

    summary = {
        "wall_s": wall_s * speed,
        "setup_s": (statistics.median(import_s) + statistics.median(prepare_s)) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed - off_reference) / attempted,
        "answer_err": max(errors) if errors else None,
    }
    if tracer is None:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        traced_ids = [it["iteration"] for it in iterations if it["traced"]]
        layers = tracing.layer_metrics(tracer, traced_ids)
        layers["cli.csv_rows"] = statistics.median(
            it["csv_rows"] for it in iterations if it["traced"])
        traced_wall = statistics.median(it["wall_s"] for it in iterations if it["traced"])
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = wall_s
        layers["trace.overhead_s"] = traced_wall - wall_s
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
        spans_path = WORK / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)

    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed, "inputs": wl.inputs,
        "argv": wl.argv, "seconds": args.seconds, "trace": args.trace,
        "environment": environment,
        "setup": {"import_s": import_s, "prepare_s": prepare_s},
        "calibration": {"ref_s": CALIBRATION_REF_S, "median_s": statistics.median(calibration),
                        "speed": speed, "samples": calibration},
        "wall_raw_s": {"samples": len(untraced), "q1": q1, "median": wall_s, "q3": q3},
        "summary": summary, "failed_frac": 1.0 - summary["pass_frac"],
        "attempted": attempted, "failed": failed, "off_reference": off_reference,
        "tracer_missing": tracer.missing if tracer else [],
        "metrics": metrics, "iterations": iterations,
    }
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(iterations)} iterations "
          f"({len(untraced)} untraced), inputs {json.dumps(wl.inputs)}")
    print(f"  wall_raw_s quartiles {q1:.4f} / {wall_s:.4f} / {q3:.4f} s; machine speed "
          f"{speed:.4f} of the reference ({len(calibration)} calibration samples)")
    print(f"  failed_frac {record['failed_frac']:.4g} ({failed} failed and {off_reference} "
          f"off the published reference, of {attempted} operations)")
    if tracer is not None and tracer.missing:
        print(f"  tracer found no {', '.join(tracer.missing)}")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value:>14s} {m['unit']}")
    print(f"  result file {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# all four workloads, each in its own process
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    results = {}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = child.stdout.splitlines()
        if len(lines) > 1:
            print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            sys.stderr.write(f"error: workload {name} exited {child.returncode}\n")
            return child.returncode
        results[name] = json.loads(lines[-1])
        metrics = results[name]["metrics"]
        if "pass_frac" in metrics:
            metrics["failed_frac"] = {"value": 1.0 - metrics["pass_frac"]["value"],
                                      "unit": "fraction"}

    print(f"\n{'metric':32s} {'unit':>8s}" + "".join(f"{n:>16s}" for n in NAMES))
    for metric, m in results[NAMES[0]]["metrics"].items():
        values = [results[n]["metrics"][metric]["value"] for n in NAMES]
        print(f"{metric:32s} {m['unit']:>8s}" + "".join(
            f"{'null' if v is None else format(v, '.6g'):>16s}" for v in values))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
