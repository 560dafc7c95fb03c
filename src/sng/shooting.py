"""Shooting solver for the dimensionless universal bound-state system.

The pair of radial ODEs

    f'' + (2/rho) f' = g f,      g'' + (2/rho) g' = f^2,

with f(0)=1, f'(0)=0, g(0)=gamma0, g'(0)=0, has square-integrable solutions
only for a discrete set of central values gamma0(n) < 0, labelled by the
node count n of f.  Every shot runs one RK4 kernel outward from a series
start at the origin; :func:`solve_states` brackets the eigenvalues by
halving a gamma0 lattice to find where the shots' labels change, and
bisects each on one condition, a match at rho_m =
(last node of f, or 0 for n = 0) + 16.  Past rho_m the source f^2 is
negligible: g = g_inf - M/rho with M = rho_m^2 g'(rho_m) and g_inf =
g + rho_m g'(rho_m), and u = rho f obeys u'' = (g_inf - M/rho) u, whose
decaying solution is the Whittaker function W_{kappa,1/2}(2 k rho), k^2 =
g_inf, kappa = M/(2k).  The eigenvalue is the gamma0 where the Wronskian
mismatch (f + rho f') - rho f y_tail vanishes at rho_m, y_tail being that
tail's log-derivative; past rho_m the solved f* and g* are the tail itself.
The bisection makes plain bisection's halvings but shoots only at the
midpoints its earlier shots leave undecided, near the root at secant steps
on the mismatch, which is close to linear there.  Its first shots are
aimed by the same bisection on every eighth grid point, at an eighth of
the cost a shot: just above that coarse root, then either side of the
Newton step the coarse slope gives from there, and the bracket ends are
not shot once those shots straddle the root.  A coarse pass that fails
or leaves no two mismatches, or a tol above 1e-9 |gamma0|, leaves the
bisection unaimed.  On the default grid, solve_states(range(5)) takes 51
shots there and 68 on the coarse grid, 245,281 RK4 steps in all, against
91 shots and 373,204 steps unaimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidBracketError,
    InvalidFieldError,
    SngError,
    WrongStateError,
    check_count,
    check_positive,
)
from .grids import RadialField, RadialGrid, integrate_radial, make_grid

__all__ = [
    "DEFAULT_RHO_MAX",
    "DEFAULT_POINTS",
    "DEFAULT_TOL",
    "UniversalSolution",
    "default_grid",
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

# The match radius rho_m sits this far past the last node of f.
_MATCH_MARGIN = 16.0

# The tail's log-derivative starts this far past its last radius, on its
# asymptotic form, and is integrated inward in RK4 steps of at most this.
_RICCATI_RUN_IN = 40.0
_RICCATI_STEP = 0.05

# A secant shot lands this share of tol past the secant root, and never
# closer to it than _SECANT_FLOOR of its size: well clear of the few ulps
# around the eigenvalue where rounding decides the mismatch's sign.
_SECANT_PAST = 0.25
_SECANT_FLOOR = 2.0**-40

# A bisection to a tol below _AIM_OFFSET |gamma0| is aimed from one on every
# _COARSE-th point, whose root gamma_c it first shoots _AIM_OFFSET |gamma_c|
# above, then 8 times as far, and so on.
_COARSE = 8
_AIM_OFFSET = 1e-9

# A solved state whose tail-identity residual exceeds this is under-resolved.
_TAIL_RESIDUAL_LIMIT = 1e-3

# The scan ladder: (gamma0 range, lattice points) per rung, each rung scanned
# only when the ones before it left a requested state without a bracket.
_SCAN_LADDER = (((-5.0, 0.0), 101), ((-5.0, 0.0), 404), ((-10.0, 0.0), 808))

# Shot labels decided inside rho_max; see scan_brackets.
_SETTLED = frozenset({"diverged_up", "diverged_down", "node_ceiling"})


def default_grid() -> RadialGrid:
    """The grid the CLI solves on unless told otherwise."""
    return make_grid(DEFAULT_RHO_MAX, DEFAULT_POINTS)


@dataclass(frozen=True)
class UniversalSolution:
    """A converged bound state of the universal system.

    Up to the match radius rho_m, ``f_star`` and ``g_star`` are the final
    shot's samples; past it they are the matched Coulomb tail u_tail/rho and
    g_inf - M/rho (see the module docstring).  The two lie on one grid,
    ``grid``; a pair on two grids is refused.  So are a non-finite gamma0,
    gamma1 or epsilon_star, and a bracket_width that is not finite and
    positive (InvalidArgumentError).
    """

    n: int
    gamma0: float
    gamma1: float
    epsilon_star: float
    f_star: RadialField
    g_star: RadialField
    bracket_width: float

    def __post_init__(self):
        for name in ("gamma0", "gamma1", "epsilon_star"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite, got {getattr(self, name)!r}")
        check_positive("bracket_width", self.bracket_width)
        if self.g_star.grid != self.f_star.grid:
            raise WrongStateError(
                f"f* and g* lie on different grids: {self.f_star.grid} and {self.g_star.grid}")
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

    @property
    def grid(self) -> RadialGrid:
        return self.f_star.grid

    @property
    def tail_residual(self) -> float:
        """g*(rho_max) + gamma1/rho_max + epsilon_star: 0 for an exact state,
        whose g* = -epsilon_star - gamma1/rho past the mass."""
        return float(self.g_star.values[-1] + self.gamma1 / self.grid.rho_max + self.epsilon_star)


# ---------------------------------------------------------------------------
# outward integration
# ---------------------------------------------------------------------------

def _shoot(gamma0: float, grid: RadialGrid, max_nodes: int | None, record: bool,
           stop: int | None = None) -> tuple[tuple[int, str], tuple]:
    """Integrate the universal system outward from the origin at one gamma0:
    the one RK4 kernel behind every shot.

    Fixed-step RK4 on (f, f', g, g') from the series f = 1 + gamma0 rho^2/6,
    g = gamma0 + rho^2/6 that the ODEs force at rho = 0.  Nodes are strict
    sign changes between consecutive samples; an exact zero does not count.
    The shot stops at rho_max, or as soon as |f| > 1e3 (``diverged_up`` or
    ``diverged_down``, a classification, not an error), or with
    ``max_nodes`` at node max_nodes + 1 (``node_ceiling``; the count stops
    there).  With ``stop`` (and ``max_nodes``), it also ends ``stop``
    samples past f's sign change number ``max_nodes`` (past the origin for
    0): ``match_radius``.  At rho_max it is ``converged`` when |f| < 1e-6
    still shrinks, else ``max_radius_reached``.  A non-finite gamma0 or a
    bad ``max_nodes`` raises InvalidArgumentError; a sample that overflows
    a double raises InvalidFieldError.

    Returns the label ``(node_count, classification)`` and, when ``record``
    is true, the computed samples as the lists (f, f', g, g'); else the
    state ``(index, f, f', g, g')`` of the last computed sample, and the
    loop keeps nothing but its state and the previous f.
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
    # the index the shot stops at once it is known; n is past the grid
    target = nodes + stop if stop is not None and nodes == ceiling else n
    rho = h
    classification = None
    half = 0.5 * h
    sixth = h / 6.0
    cap = _CAP
    for i in range(2, n):
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
            if nodes == ceiling and stop is not None:
                target = i + stop
        if abs(yf) > cap:
            classification = "diverged_up" if yf > 0.0 else "diverged_down"
            break
        if i == target:
            classification = "match_radius"
            break

    # a sum with a non-finite term is not finite, so the last samples decide
    if not (math.isfinite(yf) and math.isfinite(yg)):
        raise InvalidFieldError(f"the shot at gamma0={gamma0} overflows a double")
    if classification is None:
        tail_shrinking = abs(yf) < 1e-6 and abs(yf) <= abs(f_prev)
        classification = "converged" if tail_shrinking else "max_radius_reached"
    return (nodes, classification), ((fs, fps, gs, gps) if record else (i, yf, yfp, yg, ygp))


# ---------------------------------------------------------------------------
# bracketing
# ---------------------------------------------------------------------------

def scan_brackets(gamma0_range: tuple[float, float], steps: int, grid: RadialGrid, *,
                  max_nodes: int | None = None) -> list[tuple[int, tuple[float, float]]]:
    """Locate candidate eigenvalue brackets on a uniform gamma0 lattice.

    Every pair of consecutive lattice points whose (node count, divergence)
    labels differ is returned as ``(candidate_n, (lo, hi))`` with candidate_n
    the smaller of the two node counts, in lattice order.  Empty list when
    no transition is found (e.g. any scan over gamma0 >= 0, where g* > 0
    forbids decay).

    The lattice is searched, not walked: an index interval is halved at
    (i + j) // 2 until its ends are adjacent, and each point is shot at most
    once.  An interval whose ends carry the same settled label
    (``diverged_up``, ``diverged_down`` or ``node_ceiling``) is skipped.
    A diverging f runs off in the sign (-1)^n of its last lobe, so a
    settled label is fixed by its node count, and the count does not rise
    with gamma0; so the count is the same all between such ends.  Ends
    that both reached rho_max unclassified (``max_radius_reached`` or
    ``converged``) are split on: a run of those can hold diverging shots,
    and brackets, inside it.  The converse, an unclassified shot inside a
    run of diverging ones of its count, would be missed; the tests compare
    the search with a shot at every point over a sweep of grids.

    With ``max_nodes`` every shot stops at its first node past it (see
    :func:`_shoot`) and only candidates <= ``max_nodes`` are
    returned: the same ones, with the same brackets, as the unbounded scan.
    """
    lo, hi = gamma0_range
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidArgumentError(f"need lo < hi, got {gamma0_range}")
    steps = check_count("steps", steps, 2)
    lattice = np.linspace(lo, hi, steps)
    labels = {}

    def label(i: int) -> tuple[int, str]:
        if i not in labels:
            labels[i] = _shoot(lattice[i], grid, max_nodes, record=False)[0]
        return labels[i]

    out = []
    pending = [(0, steps - 1)]  # index intervals, the leftmost last
    while pending:
        i, j = pending.pop()
        a, b = label(i), label(j)
        if a == b and a[1] in _SETTLED:
            continue
        if j - i > 1:
            m = (i + j) // 2
            pending += [(m, j), (i, m)]
        elif a != b:
            candidate = min(a[0], b[0])
            if max_nodes is None or candidate <= max_nodes:
                out.append((candidate, (float(lattice[i]), float(lattice[j]))))
    return out


def find_brackets(ns: Iterable[int], grid: RadialGrid) -> dict[int, tuple[float, float]]:
    """Brackets for the node counts ``ns`` from one climb of the scan
    ladder, each rung searched by :func:`scan_brackets`; the climb stops at
    the first rung after which every n has one.  Each n keeps its first
    bracket in lattice order.  Scan shots stop at their first node past
    the highest requested n.  An empty request or a negative or fractional
    n raises InvalidArgumentError before any shot; an n left without a
    bracket raises InvalidBracketError."""
    wanted = {check_count("n", n, 0) for n in ns}
    if not wanted:
        raise InvalidArgumentError("need one or more node counts, got none")
    found = {}
    for gamma0_range, steps in _SCAN_LADDER:
        for candidate, bracket in scan_brackets(gamma0_range, steps, grid, max_nodes=max(wanted)):
            if candidate in wanted:
                found.setdefault(candidate, bracket)
        if found.keys() == wanted:
            return found
    missing = ", ".join(str(n) for n in sorted(wanted - found.keys()))
    raise InvalidBracketError(
        f"no bracket with node count {missing} found scanning gamma0 in "
        f"{_SCAN_LADDER[-1][0]}; enlarge rho_max"
    )


# ---------------------------------------------------------------------------
# bisection on the tail match
# ---------------------------------------------------------------------------

def _tail(k2: float, mass: float, radii: list[float]) -> tuple[list[float], list[float]] | None:
    """The decaying solution u of u'' = (k2 - mass/rho) u at the increasing
    ``radii``: y = u'/u and log(u / u(radii[0])); None when k2 <= 0 or u
    has a zero past radii[0] (a pole of y, where the steps run off).  y
    solves y' = k2 - mass/rho - y^2, stable inward, from the asymptotic
    form -k + mass/(2 k rho), k = sqrt(k2), _RICCATI_RUN_IN past the last
    radius, in RK4 steps of at most _RICCATI_STEP."""
    if not k2 > 0.0:
        return None
    k = math.sqrt(k2)
    r = radii[-1] + _RICCATI_RUN_IN
    y = -k + mass / (2.0 * k * r)
    log_u = 0.0
    ys, logs = [], []
    for end in reversed(radii):
        steps = math.ceil((r - end) / _RICCATI_STEP)
        dr = (end - r) / steps
        half = 0.5 * dr
        for _ in range(steps):
            rm = r + half
            a1 = k2 - mass / r - y * y
            y2 = y + half * a1
            a2 = k2 - mass / rm - y2 * y2
            y3 = y + half * a2
            a3 = k2 - mass / rm - y3 * y3
            y4 = y + dr * a3
            r += dr
            a4 = k2 - mass / r - y4 * y4
            log_u += dr / 6.0 * (y + 2.0 * (y2 + y3) + y4)
            y += dr / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
        r = end
        ys.append(y)
        logs.append(log_u)
    if not math.isfinite(y):
        return None
    return ys[::-1], [v - log_u for v in reversed(logs)]


def _stop(grid: RadialGrid) -> int:
    """rho_m in samples past the last node; at least the first RK4 sample."""
    return max(2, round(_MATCH_MARGIN / grid.spacing))


def _side(n: int, gamma0: float, grid: RadialGrid, stop: int) -> tuple[int, float | None]:
    """+1 when gamma0 lies above the n-node eigenvalue, where the growing
    mode carries the sign (-1)^n of f's last lobe, and -1 below; with the
    mismatch that told it, or None.

    A shot that reaches rho_m tells by the sign of (-1)^n times the
    mismatch, which is that of its growing mode, and returns that product.
    One that stops before rho_m, or whose tail there does not decay yet,
    tells by its label up to rho_m, or else rho_max: an (n+1)-th node means
    below, divergence above.
    """
    (nodes, classification), (i, f, fp, g, gp) = _shoot(gamma0, grid, n, False, stop)
    if classification == "match_radius":
        rho = float(grid.nodes[i])
        tail = _tail(g + rho * gp, rho * rho * gp, [rho])
        if tail is not None:
            mismatch = (-1) ** n * (f + rho * fp - rho * f * tail[0][0])
            return (1 if mismatch > 0.0 else -1), mismatch
        (nodes, classification), _ = _shoot(gamma0, grid, n, False)
    if nodes > n:
        return -1, None
    if classification.startswith("diverged"):
        return 1, None
    raise WrongStateError(
        f"the n={n} shot at gamma0={gamma0!r} has no decaying tail at its match radius, "
        f"{_MATCH_MARGIN:g} past its last node, inside rho_max={grid.rho_max:g}; enlarge --rho-max"
    )


def _coarse_aim(n: int, bracket: tuple[float, float], grid: RadialGrid,
                tol: float) -> tuple[float, float] | None:
    """The root and slope that aim a bisection on ``grid``: the unaimed
    bisection of the same bracket on every _COARSE-th point gives the
    mid-bracket gamma0 and the secant slope of its last two mismatches.
    None when that grid is refused, the bisection raises, or it leaves no
    two distinct mismatches."""
    try:
        coarse = make_grid(grid.rho_max, (grid.n_points - 1) // _COARSE + 1)
        lo, hi, seen = _bisect(n, bracket, coarse, tol, aimed=False)
    except SngError:
        return None
    if len(seen) < 2 or seen[-1][1] == seen[-2][1]:
        return None
    (x0, v0), (x1, v1) = seen[-2:]
    return 0.5 * (lo + hi), (v1 - v0) / (x1 - x0)


def _bisect(n: int, bracket: tuple[float, float], grid: RadialGrid, tol: float,
            aimed: bool = True) -> tuple[float, float, list[tuple[float, float]]]:
    """Plain bisection's bracket of width <= tol on the n-node eigenvalue
    inside ``bracket``, and the (gamma0, mismatch) pairs of the shots taken,
    in the order the secant reads them.

    A midpoint inside the narrowest bracket (a, b) the shots have
    established costs one shot: while more than two halvings remain and
    secant shots do not outnumber halvings, at the root of the secant
    through the last two mismatches, moved toward the midpoint by
    _SECANT_PAST * tol (at least _SECANT_FLOOR of the root) but not past
    it; else at the midpoint.  A midpoint outside (a, b) takes the side of
    the shot that set that end.

    ``aimed`` first shoots from the coarse pass's root gamma_c and slope
    (see :func:`_coarse_aim`): at gamma_c + d, d growing 8-fold from
    max(_AIM_OFFSET |gamma_c|, tol), until a shot lands above the
    eigenvalue with a mismatch v there, then a secant step past each side
    of the Newton point x - v/slope; every such shot lies inside (a, b).
    Bracket ends are shot only while the shots do not yet straddle the
    eigenvalue.  An aimed shot that raises ends the aim.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    stop = _stop(grid)
    a, b = lo, hi
    seen = []
    side_lo = -1  # the lower end's side: below, unless its own shot says otherwise

    def shoot(x: float) -> tuple[int, float | None]:
        nonlocal a, b
        side, v = _side(n, x, grid, stop)
        if v is not None:
            seen.append((x, v))
        if side == side_lo:
            a = x
        else:
            b = x
        return side, v

    # a coarser tol leaves too few halvings to always repay the coarse pass
    # (n = 0 on 40/401 at tol 1e-6: 2,313 RK4 steps aimed, 2,223 plain)
    aimed = aimed and tol < min(hi - lo, _AIM_OFFSET * max(abs(lo), abs(hi)))
    aim = _coarse_aim(n, bracket, grid, tol) if aimed else None
    if aim is not None:
        gamma_c, slope = aim
        d = max(_AIM_OFFSET * abs(gamma_c), tol)
        try:
            side, v = -1, None
            while side < 0 and a < gamma_c + d < b:
                x = gamma_c + d
                side, v = shoot(x)
                d *= 8.0
            if side > 0 and v is not None:
                x -= v / slope
                past = max(_SECANT_PAST * tol, _SECANT_FLOOR * abs(x))
                for y in (x - past, x + past):
                    if a < y < b:
                        shoot(y)
        except SngError:
            pass
    if a == lo or b == hi:
        side_lo, v_lo = _side(n, lo, grid, stop)
        side_hi, v_hi = _side(n, hi, grid, stop)
        if side_hi == side_lo:
            raise InvalidBracketError(
                f"bracket ends {bracket} lie on one side of the n={n} eigenvalue")
        seen[:0] = [(x, v) for x, v in ((lo, v_lo), (hi, v_hi)) if v is not None]

    credit = 0  # halvings made minus secant shots taken
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            raise ConvergenceError(
                f"bisection exhausted float resolution at width {hi - lo:.3e} > tol {tol:.3e}"
            )
        if mid <= a or mid >= b:
            lo, hi = (mid, hi) if mid <= a else (lo, mid)
            credit += 1
            continue
        x = mid
        if credit >= 0 and hi - lo > 4.0 * tol and len(seen) >= 2:
            (x0, v0), (x1, v1) = seen[-2:]
            root = x1 - v1 * (x1 - x0) / (v1 - v0) if v1 != v0 else math.nan
            if a < root < b:
                past = max(_SECANT_PAST * tol, _SECANT_FLOOR * abs(root))
                x = min(root + past, mid) if root < mid else max(root - past, mid)
                if x != mid:
                    credit -= 1
        shoot(x)
    return lo, hi, seen


def shoot_gamma0(n: int, bracket: tuple[float, float], grid: RadialGrid,
                 tol: float = DEFAULT_TOL) -> UniversalSolution:
    """Bisect gamma0 inside ``bracket`` until the width falls below ``tol``
    and return the mid-bracket state as a UniversalSolution.

    Each shot stops at its own rho_m, 16 past its n-th node.  One that
    stops earlier sides gamma0 by its label (an extra node, or
    divergence); one that reaches rho_m by the sign of the Wronskian
    mismatch there.  The halvings are plain bisection's, so while the side
    changes once inside ``bracket`` the result is plain bisection's bit for
    bit; but a midpoint that lies past a shot already taken takes that
    shot's side.  The first shots are aimed from a bisection on a grid of
    every eighth point, and near the root the shots are secant steps on
    the mismatch aimed just past the root toward the midpoint (see
    :func:`_bisect`).  Secant shots never outnumber the halvings made.
    Past rho_m, f* = u_tail/rho with u_tail from the same tail as the
    mismatch, and g* = g_inf - M/rho.

    Raises
    ------
    InvalidBracketError
        If both bracket ends lie on the same side of the eigenvalue.
    WrongStateError
        If rho_m does not fit in the grid (enlarge --rho-max), or the state
        has no decaying tail past rho_m or a tail-identity residual above
        1e-3 (refine --points, or lower a tol that leaves gamma0 too far
        off the eigenvalue).
    ConvergenceError
        If bisection exhausts floating point resolution before reaching tol.
    """
    check_count("n", n, 0)
    check_positive("tol", tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidArgumentError(f"need bracket lo < hi, got {bracket}")
    lo, hi, _ = _bisect(n, bracket, grid, tol)
    stop = _stop(grid)
    gamma0 = 0.5 * (lo + hi)
    (_, classification), (f_shot, _, g_shot, gp_shot) = _shoot(gamma0, grid, n, True, stop)
    m = len(f_shot) - 1
    rho = grid.nodes
    rho_m = float(rho[m])
    mass, k2 = rho_m * rho_m * gp_shot[m], g_shot[m] + rho_m * gp_shot[m]
    tail = _tail(k2, mass, rho[m:].tolist()) if classification == "match_radius" else None
    # a mid-bracket gamma0 up to tol/2 off the eigenvalue can be what spoils the state
    refine = f"refine --points, or lower --tol (bracket width {hi - lo:.3e})"
    if tail is None:
        raise WrongStateError(f"the n={n} shot at gamma0={gamma0!r} ends at rho={rho_m:.6g} "
                              f"with no decaying tail past it; {refine}")
    f, g = np.empty((2, grid.n_points))
    f[:m + 1], g[:m + 1] = f_shot, g_shot
    f[m + 1:] = rho_m * f_shot[m] * np.exp(tail[1][1:]) / rho[m + 1:]
    g[m + 1:] = k2 - mass / rho[m + 1:]
    gamma1 = integrate_radial(RadialField(grid, f * f))
    sol = UniversalSolution(
        n=n,
        gamma0=gamma0,
        gamma1=gamma1,
        epsilon_star=3.0 / gamma1 * integrate_radial(RadialField(grid, f * f * g)),
        f_star=RadialField(grid, f),
        g_star=RadialField(grid, g),
        bracket_width=hi - lo,
    )
    if not abs(sol.tail_residual) <= _TAIL_RESIDUAL_LIMIT:
        raise WrongStateError(
            f"the n={n} state on {grid.n_points} points has tail-identity residual "
            f"{sol.tail_residual:.3e} (limit {_TAIL_RESIDUAL_LIMIT:g}); {refine}"
        )
    return sol


def solve_states(ns: Iterable[int], grid: RadialGrid,
                 tol: float = DEFAULT_TOL) -> list[UniversalSolution]:
    """Solve the bound states with the requested node counts, in the order
    given: one climb of the scan ladder brackets them all (see
    :func:`find_brackets`), then :func:`shoot_gamma0` bisects each.  A bad
    ``tol`` raises InvalidArgumentError before any shot."""
    ns = list(ns)
    check_positive("tol", tol)
    found = find_brackets(ns, grid)
    return [shoot_gamma0(n, found[n], grid, tol) for n in ns]
