"""Shooting solver for the dimensionless universal bound-state system.

The pair of radial ODEs

    f'' + (2/rho) f' = g f,      g'' + (2/rho) g' = f^2,

with f(0)=1, f'(0)=0, g(0)=gamma0, g'(0)=0, has square-integrable solutions
only for a discrete set of central values gamma0(n) < 0, labelled by the
node count n of f.  This module integrates the initial-value problem
outward with fixed-step RK4 (series start at the origin), classifies
trajectories by node count and divergence direction, brackets eigenvalues
by scanning gamma0, and bisects to convergence; :func:`solve_states` is the
one path from node counts to solved states.  Every shot runs one RK4
kernel.  Scan, bracket-end and bisection shots keep only their label;
only :func:`integrate_universal`, and through it the final shot of each
solved state, records the samples.  :func:`solve_states` takes each
bracket end's label from the scan rather than shooting it again, unless
the scan shot stopped at its node ceiling.  Converged trajectories are
clamped at the break of the exponential tail and extended analytically so
the moment integrals gamma1 = int f^2 rho^2 drho and
eps_star = (3/gamma1) int f^2 g rho^2 drho converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidBracketError,
    InvalidFieldError,
    WrongStateError,
    check_count,
    check_positive,
)
from .grids import RadialField, RadialGrid, integrate_radial, make_grid

__all__ = [
    "DEFAULT_RHO_MAX",
    "DEFAULT_POINTS",
    "DEFAULT_TOL",
    "ShootOutcome",
    "UniversalSolution",
    "default_grid",
    "integrate_universal",
    "scan_brackets",
    "find_brackets",
    "shoot_gamma0",
    "solve_states",
]

DEFAULT_RHO_MAX = 40.0
DEFAULT_POINTS = 8001
DEFAULT_TOL = 1e-10

# |f| past this marks a shot as diverged.
_CAP = 1e3

# A trajectory extremum below this amplitude is tail residue, not a lobe.
_LOBE_FLOOR = 1e-2

# The scan ladder: (gamma0 range, lattice points) per rung, each rung scanned
# only when the ones before it left a requested state without a bracket.
_SCAN_LADDER = (((-5.0, 0.0), 101), ((-5.0, 0.0), 404), ((-10.0, 0.0), 808))


def default_grid() -> RadialGrid:
    """The grid the CLI solves on unless told otherwise."""
    return make_grid(DEFAULT_RHO_MAX, DEFAULT_POINTS)


@dataclass(frozen=True)
class ShootOutcome:
    """Result of one outward integration at fixed gamma0.

    ``trajectory`` holds the computed samples (f, g) on the first
    ``valid_points`` grid nodes, where the shot stopped; ``derivs`` holds
    the raw RK4 slope samples (f', g') on the same nodes.  All four arrays
    are read-only.
    """

    gamma0: float
    # converged | diverged_up | diverged_down | max_radius_reached | node_ceiling
    classification: str
    node_count: int
    trajectory: tuple[np.ndarray, np.ndarray] = field(repr=False)
    derivs: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @property
    def valid_points(self) -> int:
        return len(self.trajectory[0])

    @property
    def label(self) -> tuple[int, str]:
        """Bracket label: node count first, divergence direction as tie-break."""
        return (self.node_count, self.classification)


@dataclass(frozen=True)
class UniversalSolution:
    """A converged bound state of the universal system.

    ``f_star`` is clamped at ``clamp_index`` and continued by the fitted
    exponential tail; ``g_star`` is continued by its mass-function quadrature.
    ``clamp_index`` is None for solutions reconstructed from serialized data.
    """

    n: int
    gamma0: float
    gamma1: float
    epsilon_star: float
    f_star: RadialField
    g_star: RadialField
    bracket_width: float
    grid: RadialGrid
    clamp_index: Optional[int] = None

    def __post_init__(self):
        f = self.f_star.values
        if f[0] != 1.0:
            raise WrongStateError(f"f*(0) must be exactly 1, got {f[0]!r}")
        if not self.gamma1 > 0:
            raise WrongStateError(f"gamma1 must be positive, got {self.gamma1}")
        if abs(self.g_star.values[0] - self.gamma0) > max(self.bracket_width, 1e-12):
            raise WrongStateError("g*(0) disagrees with gamma0 beyond bracket width")
        tail = np.abs(f[-(self.grid.n_points // 10):])
        if not np.all(np.diff(tail) < 0.0):
            raise WrongStateError("|f*| must decay strictly over the final 10% of the grid")


# ---------------------------------------------------------------------------
# outward integration
# ---------------------------------------------------------------------------

def integrate_universal(gamma0: float, grid: RadialGrid, *,
                        max_nodes: int | None = None) -> ShootOutcome:
    """Integrate the universal system outward from the origin at one gamma0.

    Fixed-step RK4 on (f, f', g, g').  The first step leaves rho=0 on the
    series f = 1 + gamma0 rho^2/6, g = gamma0 + rho^2/6 whose coefficients
    are forced by the ODEs; integration stops at rho_max, as soon as
    |f| > 1e3, or, when ``max_nodes`` is given, at the first sign change of f
    past ``max_nodes``, whichever comes first.  Divergence is a
    classification, not an error.  Nodes are strict sign changes between
    consecutive samples; an exact zero does not count.

    Returns
    -------
    ShootOutcome
        classification is ``node_ceiling`` when f changed sign
        ``max_nodes + 1`` times (the count then stops there),
        ``diverged_up``/``diverged_down`` when |f| crossed the cap,
        ``converged`` when the trajectory reached rho_max with
        |f(rho_max)| < 1e-6 still shrinking, ``max_radius_reached`` otherwise.

    Raises
    ------
    InvalidFieldError
        If a sample overflows a double.
    """
    (nodes, classification), samples = _shoot(gamma0, grid, max_nodes, record=True)
    f, fp, g, gp = (np.array(v) for v in samples)
    for v in (f, fp, g, gp):
        v.setflags(write=False)
    return ShootOutcome(
        gamma0=float(gamma0),
        classification=classification,
        node_count=nodes,
        trajectory=(f, g),
        derivs=(fp, gp),
    )


def _shoot(gamma0: float, grid: RadialGrid, max_nodes: int | None,
           record: bool) -> tuple[tuple[int, str], tuple[list, list, list, list] | None]:
    """The RK4 kernel behind every shot; see :func:`integrate_universal`.

    Returns the label ``(node_count, classification)`` and, when ``record``
    is true, the computed samples as the lists (f, f', g, g'); else None,
    and the loop keeps nothing but its state and the previous f.
    """
    if not np.isfinite(gamma0):
        raise InvalidArgumentError(f"gamma0 must be finite, got {gamma0}")
    ceiling = math.inf if max_nodes is None else check_count("max_nodes", max_nodes, 0)

    gamma0 = float(gamma0)
    n = grid.n_points
    h = grid.spacing
    # The loop state must be Python floats: numpy scalars run every one of
    # the ~100 operations per step about 3x slower, to the same bits.
    yf = 1.0 + gamma0 * h * h / 6.0
    yfp = gamma0 * h / 3.0
    yg = gamma0 + h * h / 6.0
    ygp = h / 3.0
    if record:
        fs, fps, gs, gps = [1.0, yf], [0.0, yfp], [gamma0, yg], [0.0, ygp]
    f_prev = 1.0  # the sample before yf, as fs[-2] is when recording
    nodes = int(yf < 0.0)  # the pair (f[0], f[1]) = (1, yf)
    rho = h
    classification = None
    half = 0.5 * h
    sixth = h / 6.0
    cap = _CAP
    for _ in range(n - 2):
        # RK4 stages for y' = (f', g f - 2f'/r, g', f^2 - 2g'/r); the f and g
        # slopes of each stage are its own f' and g' samples
        b1 = yg * yf - 2.0 * yfp / rho
        d1 = yf * yf - 2.0 * ygp / rho

        rm = rho + half
        f2 = yf + half * yfp
        fp2 = yfp + half * b1
        g2 = yg + half * ygp
        gp2 = ygp + half * d1
        b2 = g2 * f2 - 2.0 * fp2 / rm
        d2 = f2 * f2 - 2.0 * gp2 / rm

        f3 = yf + half * fp2
        fp3 = yfp + half * b2
        g3 = yg + half * gp2
        gp3 = ygp + half * d2
        b3 = g3 * f3 - 2.0 * fp3 / rm
        d3 = f3 * f3 - 2.0 * gp3 / rm

        r1 = rho + h
        f4 = yf + h * fp3
        fp4 = yfp + h * b3
        g4 = yg + h * gp3
        gp4 = ygp + h * d3
        b4 = g4 * f4 - 2.0 * fp4 / r1
        d4 = f4 * f4 - 2.0 * gp4 / r1

        f_prev = yf
        yf += sixth * (yfp + 2.0 * (fp2 + fp3) + fp4)
        yfp += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        yg += sixth * (ygp + 2.0 * (gp2 + gp3) + gp4)
        ygp += sixth * (d1 + 2.0 * (d2 + d3) + d4)
        rho = r1
        if record:
            fs.append(yf)
            fps.append(yfp)
            gs.append(yg)
            gps.append(ygp)
        if yf * f_prev < 0.0:
            nodes += 1
            # Checked before the cap, so every shot whose count would pass
            # the ceiling carries the same label, however it would have ended.
            if nodes > ceiling:
                classification = "node_ceiling"
                break
        if abs(yf) > cap:
            classification = "diverged_up" if yf > 0.0 else "diverged_down"
            break

    # a sum with a non-finite term is not finite, so the last samples decide
    if not (math.isfinite(yf) and math.isfinite(yg)):
        raise InvalidFieldError(f"the shot at gamma0={gamma0} overflows a double")
    if classification is None:
        tail_shrinking = abs(yf) < 1e-6 and abs(yf) <= abs(f_prev)
        classification = "converged" if tail_shrinking else "max_radius_reached"
    return (nodes, classification), ((fs, fps, gs, gps) if record else None)


# ---------------------------------------------------------------------------
# bracketing
# ---------------------------------------------------------------------------

def scan_brackets(gamma0_range: tuple[float, float], steps: int, grid: RadialGrid, *,
                  max_nodes: int | None = None) -> list[tuple[int, tuple[float, float]]]:
    """Locate candidate eigenvalue brackets on a uniform gamma0 lattice.

    Every pair of consecutive lattice points whose (node count, divergence)
    labels differ is returned as ``(candidate_n, (lo, hi))`` with candidate_n
    the smaller of the two node counts.  Empty list when no transition is
    found (e.g. any scan over gamma0 >= 0, where g* > 0 forbids decay).

    With ``max_nodes`` every shot stops at its first node past it (see
    :func:`integrate_universal`) and only candidates <= ``max_nodes`` are
    returned: the same ones, with the same brackets, as the unbounded scan.
    """
    return [(candidate, bracket)
            for candidate, bracket, _ in _scan(gamma0_range, steps, grid, max_nodes)]


def _scan(gamma0_range, steps, grid, max_nodes):
    """:func:`scan_brackets`, each bracket followed by its end labels."""
    lo, hi = gamma0_range
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidArgumentError(f"need lo < hi, got {gamma0_range}")
    steps = check_count("steps", steps, 2)
    lattice = np.linspace(lo, hi, steps)
    labels = [_shoot(g0, grid, max_nodes, record=False)[0] for g0 in lattice]
    out = []
    for i in range(steps - 1):
        if labels[i] != labels[i + 1]:
            candidate = min(labels[i][0], labels[i + 1][0])
            if max_nodes is None or candidate <= max_nodes:
                out.append((candidate, (float(lattice[i]), float(lattice[i + 1])),
                            (labels[i], labels[i + 1])))
    return out


def find_brackets(ns: Iterable[int], grid: RadialGrid) -> dict[int, tuple[float, float]]:
    """Brackets for the node counts ``ns`` from one walk of the scan ladder,
    which stops at the first rung after which every n has one.  Each n keeps
    its first bracket in lattice order.  Scan shots stop at their first node
    past the highest requested n.  An empty request or a negative or
    fractional n raises InvalidArgumentError before any shot; an n left
    without a bracket raises InvalidBracketError."""
    return {n: bracket for n, (bracket, _) in _find_brackets(ns, grid).items()}


def _find_brackets(ns, grid):
    """:func:`find_brackets`, each bracket paired with its end labels."""
    wanted = {check_count("n", n, 0) for n in ns}
    if not wanted:
        raise InvalidArgumentError("need one or more node counts, got none")
    found = {}
    for gamma0_range, steps in _SCAN_LADDER:
        for candidate, bracket, labels in _scan(gamma0_range, steps, grid, max(wanted)):
            if candidate in wanted:
                found.setdefault(candidate, (bracket, labels))
        if found.keys() == wanted:
            return found
    missing = ", ".join(str(n) for n in sorted(wanted - found.keys()))
    raise InvalidBracketError(
        f"no bracket with node count {missing} found scanning gamma0 in "
        f"{_SCAN_LADDER[-1][0]}; enlarge rho_max"
    )


# ---------------------------------------------------------------------------
# bisection + tail clamp
# ---------------------------------------------------------------------------

def _clamp_point(f: np.ndarray) -> tuple[int, int]:
    """Index where the exponential tail breaks in the computed samples f.

    Returns (last_lobe_extremum, clamp_index).  The clamp sits at the last
    sample that still carries the final lobe's sign: near-eigenvalue
    trajectories often cross zero spuriously once more just before
    diverging, and that crossing must stay out of both the stored tail and
    the node count.
    """
    slopes = np.diff(f)
    turns = np.where(slopes[:-1] * slopes[1:] < 0.0)[0] + 1
    lobes = turns[np.abs(f[turns]) >= _LOBE_FLOOR] if turns.size else turns
    e = int(lobes[-1]) if lobes.size else 0
    seg = f[e:]
    crossings = np.where(seg[:-1] * seg[1:] < 0.0)[0]
    if crossings.size:
        c = e + int(crossings[0])
    else:
        c = e + int(np.argmin(np.abs(seg)))
    while c > 0 and f[c] == 0.0:
        c -= 1
    return e, c


def _tail_decay_rate(rho: np.ndarray, f: np.ndarray, e: int, c: int,
                     g_at_clamp: float) -> float:
    """Exponential rate of the observed tail, from a log-linear fit of
    |f|*rho over the clean mid-decay decades; falls back to sqrt(g(clamp))
    when the window is degenerate."""
    lobe_amp = abs(f[e]) if e > 0 else 1.0
    mag = np.abs(f[e:c + 1])
    window = np.nonzero((mag >= 10.0 * abs(f[c])) & (mag <= 0.1 * lobe_amp))[0]
    if window.size >= 8:
        idx = e + window
        slope = np.polyfit(rho[idx], np.log(np.abs(f[idx]) * rho[idx]), 1)[0]
        if slope < 0.0:
            return -float(slope)
    return float(np.sqrt(max(g_at_clamp, 1e-12)))


def shoot_gamma0(n: int, bracket: tuple[float, float], grid: RadialGrid,
                 tol: float = DEFAULT_TOL) -> UniversalSolution:
    """Bisect gamma0 inside ``bracket`` until the width falls below ``tol``
    and return the clamped mid-bracket trajectory as a UniversalSolution.

    The bracket ends must classify differently (different node counts, or
    the same count with opposite divergence).  After convergence the
    trajectory is truncated where its exponential decay breaks; beyond the
    clamp f* continues on the fitted exponential (times 1/rho) and g*
    continues by integrating its own ODE with the clamped f* as source,
    starting from the enclosed moment rho_c^2 g'(rho_c).

    Raises
    ------
    InvalidBracketError
        If both bracket ends carry the same label.
    WrongStateError
        If the converged trajectory has the wrong node count, or its tail
        sits where g* <= 0 (no exponentially decaying regime inside the
        grid; enlarge rho_max).
    ConvergenceError
        If bisection exhausts floating point resolution before reaching tol.
    """
    check_count("n", n, 0)
    check_positive("tol", tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidArgumentError(f"need bracket lo < hi, got {bracket}")
    return _bisect(n, (lo, hi), (None, None), grid, tol)


def _bisect(n, bracket, labels, grid, tol):
    """:func:`shoot_gamma0` past its argument checks.  ``labels`` holds each
    bracket end's label from the scan, or None; an end without one, or whose
    scan shot stopped at its node ceiling, is shot here without a ceiling."""
    lo, hi = bracket
    label_lo, label_hi = (
        _shoot(end, grid, None, record=False)[0] if label is None or label[1] == "node_ceiling"
        else label
        for end, label in zip(bracket, labels)
    )
    if label_lo == label_hi:
        raise InvalidBracketError(
            f"bracket ends {bracket} classify identically as {label_lo}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            raise ConvergenceError(
                f"bisection exhausted float resolution at width {hi - lo:.3e} > tol {tol:.3e}"
            )
        if _shoot(mid, grid, None, record=False)[0] == label_lo:
            lo = mid
        else:
            hi = mid

    gamma0 = 0.5 * (lo + hi)
    outcome = integrate_universal(gamma0, grid)
    e, c = _clamp_point(outcome.trajectory[0])
    # extend the shot to the grid; the tail continuation below overwrites
    # every sample past the clamp, and the clamp is a computed sample
    f, g = np.empty((2, grid.n_points))
    f[:outcome.valid_points], g[:outcome.valid_points] = outcome.trajectory
    gp = outcome.derivs[1]
    rho = grid.nodes

    if g[c] <= 0.0:
        raise WrongStateError(
            f"tail clamp at rho={rho[c]:.3f} where g*={g[c]:.3f} <= 0: the "
            "trajectory is still oscillatory there; enlarge rho_max"
        )
    nodes = int(np.count_nonzero(f[:c] * f[1:c + 1] < 0.0))
    if nodes != n:
        raise WrongStateError(
            f"converged trajectory has {nodes} nodes, wanted n={n}; rebracket"
        )

    k = _tail_decay_rate(rho, f, e, c, g[c])
    if c + 1 < grid.n_points:
        tail = rho[c + 1:]
        f[c + 1:] = f[c] * (rho[c] / tail) * np.exp(-k * (tail - rho[c]))
        sub = rho[c:]
        moment = rho[c] ** 2 * gp[c] + cumulative_trapezoid(sub ** 2 * f[c:] ** 2, sub, initial=0.0)
        g[c:] = g[c] + cumulative_trapezoid(moment / sub ** 2, sub, initial=0.0)

    f_star = RadialField(grid, f)
    g_star = RadialField(grid, g)
    f_sq = RadialField(grid, f * f)
    gamma1 = integrate_radial(f_sq)
    epsilon_star = 3.0 / gamma1 * integrate_radial(RadialField(grid, f * f * g))
    return UniversalSolution(
        n=n,
        gamma0=gamma0,
        gamma1=gamma1,
        epsilon_star=epsilon_star,
        f_star=f_star,
        g_star=g_star,
        bracket_width=hi - lo,
        grid=grid,
        clamp_index=c,
    )


def solve_states(ns: Iterable[int], grid: RadialGrid,
                 tol: float = DEFAULT_TOL) -> list[UniversalSolution]:
    """Solve the bound states with the requested node counts, in the order
    given: one walk of the scan ladder brackets them all (see
    :func:`find_brackets`), then :func:`shoot_gamma0` bisects each.  A bad
    ``tol`` raises InvalidArgumentError before any shot."""
    ns = list(ns)
    check_positive("tol", tol)
    found = _find_brackets(ns, grid)
    return [_bisect(n, *found[n], grid, tol) for n in ns]
