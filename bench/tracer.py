"""Outside-in span tracer for the sng benchmark.

The tracer replaces the public entry points of each sng module with thin
wrappers that record one span per call: name, start, end, parent span,
thread and iteration.  Every module that binds a traced function by name
gets the same wrapper, so a call is recorded once whichever module it goes
through.  Nothing under ``src/`` is edited; ``uninstall`` puts the original
objects back.

Spans are kept in memory and written out once, when the run ends.  Self
time is computed per thread: a span only loses the time of children that
ran on its own thread, because the spectrum command's worker threads
overlap under the interpreter lock and their busy times add up to more
than the wall time.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# (defining module, function name).  solve_banded and eigh_tridiagonal are
# scipy functions; only their bindings inside sng modules are replaced.
TRACED = (
    ("sng.cli", "main"),
    ("sng.shooting", "integrate_universal"),
    ("sng.shooting", "scan_brackets"),
    ("sng.shooting", "find_bracket"),
    ("sng.shooting", "shoot_gamma0"),
    ("sng.grids", "solve_radial_poisson"),
    ("sng.physical", "rescale_to_physical"),
    ("sng.physical", "energy_breakdown"),
    ("sng.evolution", "step"),
    ("sng.evolution", "evolve"),
    ("sng.evolution", "solve_banded"),
    ("sng.scf", "scf_solve"),
    ("sng.scf", "eigh_tridiagonal"),
    ("sng.checks", "run_suite"),
)

SUITES = ("virial", "homogeneity", "poisson", "oracle", "evolution", "continuity")

# name, unit, better: the per-layer metrics a traced run reports
LAYER_METRICS = (
    ("shooting.shots", "count", "lower"),
    ("shooting.rk4_steps", "count", "lower"),
    ("shooting.ns_per_rk4_step", "ns", "lower"),
    ("shooting.scan_s", "s", "lower"),
    ("shooting.bisect_s", "s", "lower"),
    ("shooting.finish_s", "s", "lower"),
    ("shooting.scans", "count", "lower"),
    ("shooting.shots_per_state", "count", "lower"),
    ("grids.poisson_calls", "count", "lower"),
    ("grids.poisson_s", "s", "lower"),
    ("evolution.steps", "count", "higher"),
    ("evolution.rejected_steps", "count", "lower"),
    ("evolution.step_ms", "ms", "lower"),
    ("evolution.step_p99_ms", "ms", "lower"),
    ("evolution.observe_s", "s", "lower"),
    ("evolution.cn_solves_per_step", "count", "lower"),
    ("evolution.poisson_per_step", "count", "lower"),
    ("scf.solve_s", "s", "lower"),
    ("scf.iterations", "count", "lower"),
    ("scf.eigensolves", "count", "lower"),
    ("physical.rescale_s", "s", "lower"),
    ("physical.energy_s", "s", "lower"),
    *((f"checks.suite_s.{s}", "s", "lower") for s in SUITES),
    ("checks.rows_failed", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_rows", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "iteration", "info")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _span_info(name: str, args, result, exc) -> dict | None:
    """The few facts a layer metric needs from a call's arguments or result."""
    if exc is not None:
        return {"raised": type(exc).__name__}
    if name == "shooting.integrate_universal":
        return {"valid_points": int(result.valid_points)}
    if name == "scf.scf_solve":
        return {"iterations": int(result.iterations)}
    if name == "checks.run_suite":
        return {"suite": args[0], "failed": sum(not r.passed for r in result)}
    return None


class Tracer:
    """Records spans around the traced sng functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._root: dict[int, int] = {}  # iteration -> id of its cli.main span
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = Span()
            span.id = next(tracer._ids)
            span.name = name
            span.iteration = tracer.iteration
            # a worker thread's first span hangs under the iteration's main span
            span.parent = stack[-1] if stack else tracer._root.get(span.iteration)
            span.thread = threading.get_ident()
            if name == "cli.main":
                tracer._root[span.iteration] = span.id
            stack.append(span.id)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.info = _span_info(name, args, result, exc)
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if (k == "sng" or k.startswith("sng.")) and m is not None}
        for mod_name, fn_name in TRACED:
            original = getattr(mods.get(mod_name), fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name[4:]}.{fn_name}", original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one iteration
# ---------------------------------------------------------------------------

def _dur(s: Span) -> float:
    return s.end - s.start


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def iteration_layers(spans: list[Span]) -> tuple[dict, list[float]]:
    """Per-layer figures of one iteration, plus its step durations."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def same_thread_children(s: Span) -> list[Span]:
        return [c for c in children[s.id] if c.thread == s.thread]

    def self_time(s: Span) -> float:
        return _dur(s) - sum(_dur(c) for c in same_thread_children(s))

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name[name])

    shots = by_name["shooting.integrate_universal"]
    rk4 = sum(s.info["valid_points"] - 1 for s in shots if s.info and "valid_points" in s.info)
    states = by_name["shooting.shoot_gamma0"]
    out = {
        "shooting.shots": len(shots),
        "shooting.rk4_steps": rk4,
        "shooting.ns_per_rk4_step": 1e9 * total("shooting.integrate_universal") / rk4 if rk4 else 0.0,
        "shooting.scan_s": total("shooting.scan_brackets"),
        "shooting.bisect_s": sum(_dur(c) for s in states for c in same_thread_children(s)
                                 if c.name == "shooting.integrate_universal"),
        "shooting.finish_s": sum(self_time(s) for s in states),
        "shooting.scans": len(by_name["shooting.scan_brackets"]),
        "shooting.shots_per_state": len(shots) / len(states) if states else 0.0,
        "grids.poisson_calls": len(by_name["grids.solve_radial_poisson"]),
        "grids.poisson_s": total("grids.solve_radial_poisson"),
    }

    steps = by_name["evolution.step"]
    out["evolution.steps"] = len(steps)
    out["evolution.rejected_steps"] = sum(
        1 for s in steps if s.info and s.info.get("raised") == "StepRejectedError")
    out["evolution.observe_s"] = sum(
        _dur(e) - sum(_dur(c) for c in same_thread_children(e) if c.name == "evolution.step")
        for e in by_name["evolution.evolve"])

    # Calls charged to a step: those inside it, plus the Poisson solves of the
    # observation evolve makes right after it (before the next step starts).
    def nested(s: Span, name: str) -> int:
        return sum((c.name == name) + nested(c, name) for c in children[s.id])

    cn = {s.id: nested(s, "evolution.solve_banded") for s in steps}
    poisson = {s.id: nested(s, "grids.solve_radial_poisson") for s in steps}
    for e in by_name["evolution.evolve"]:
        last = None
        for c in sorted(same_thread_children(e), key=lambda c: c.start):
            if c.name == "evolution.step":
                last = c.id
            elif c.name == "grids.solve_radial_poisson" and last is not None:
                poisson[last] += 1
    out["evolution.cn_solves_per_step"] = statistics.median(cn.values()) if steps else 0.0
    out["evolution.poisson_per_step"] = statistics.median(poisson.values()) if steps else 0.0

    out["scf.solve_s"] = total("scf.scf_solve")
    out["scf.iterations"] = sum(s.info["iterations"] for s in by_name["scf.scf_solve"]
                                if s.info and "iterations" in s.info)
    out["scf.eigensolves"] = len(by_name["scf.eigh_tridiagonal"])
    out["physical.rescale_s"] = total("physical.rescale_to_physical")
    out["physical.energy_s"] = total("physical.energy_breakdown")

    suites = by_name["checks.run_suite"]
    for name in SUITES:
        out[f"checks.suite_s.{name}"] = sum(
            _dur(s) for s in suites if s.info and s.info.get("suite") == name)
    out["checks.rows_failed"] = sum(s.info.get("failed", 0) for s in suites if s.info)

    # cli.self_s: main minus the time any library span covers, on any thread
    self_s = 0.0
    for m in by_name["cli.main"]:
        covered = [(max(s.start, m.start), min(s.end, m.end)) for s in spans
                   if s.id != m.id and s.start < m.end and s.end > m.start]
        self_s += _dur(m) - _union_length(covered)
    out["cli.self_s"] = self_s
    return out, [_dur(s) for s in steps]


def layer_metrics(tracer: Tracer, traced_iterations: list[int]) -> dict:
    """Median over traced iterations of each per-iteration figure; step
    percentiles pool the steps of all traced iterations."""
    per_iter: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        per_iter[s.iteration].append(s)
    figures, step_times = [], []
    for it in traced_iterations:
        fig, durs = iteration_layers(per_iter[it])
        figures.append(fig)
        step_times.extend(durs)
    out = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    if len(step_times) >= 2:
        out["evolution.step_ms"] = 1e3 * statistics.median(step_times)
        out["evolution.step_p99_ms"] = 1e3 * statistics.quantiles(step_times, n=100)[98]
    else:
        out["evolution.step_ms"] = out["evolution.step_p99_ms"] = 0.0
    return out
