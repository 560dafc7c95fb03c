"""Shooting solver for the dimensionless universal bound-state system.

The pair of radial ODEs

    f'' + (2/rho) f' = g f,      g'' + (2/rho) g' = f^2,

with f(0)=1, f'(0)=0, g(0)=gamma0, g'(0)=0, has square-integrable solutions
only for a discrete set of central values gamma0(n) < 0, labelled by the
node count n of f.  Every shot runs one RKN4 kernel outward from a series
start at the origin, on u = rho f and v = rho g, which obey u'' = u v/rho
and v'' = u^2/rho; :func:`solve_states` brackets each eigenvalue by
bisecting a gamma0 lattice, shot on every eighth grid point, for the cell
where the node count of f falls past n, and bisects each bracket on the
grid itself on one condition, a match at rho_m = (last node of f, or 0
for n = 0) + 16.  The lattice runs on the grid itself only when the
coarse grid is refused, its lattice raises, or the bisection finds both
ends of a coarse cell on one side.  Past rho_m the source f^2 is
negligible: g = g_inf - M/rho with g_inf = v'(rho_m) and M = rho_m
v'(rho_m) - v(rho_m), and u obeys u'' = (g_inf - M/rho) u, whose
decaying solution is the Whittaker function W_{kappa,1/2}(2 k rho), k^2 =
g_inf, kappa = M/(2k).  The eigenvalue is the gamma0 where the Wronskian
mismatch u' - u y_tail vanishes at rho_m, y_tail being that tail's
log-derivative; past rho_m the solved f* and g* are the tail itself,
shot at anchors one Riccati step apart and filled in between by cubic
Hermite interpolation of log u (see :func:`_solve`).
The bisection makes plain bisection's halvings but shoots only at the
midpoints its earlier shots leave undecided, near the root at secant steps
on the mismatch, which is close to linear there.  Its first shots are
aimed by the same bisection of the coarse cell on the coarse grid, at an
eighth of the cost a shot, its tails too: just above that coarse root,
then either side of the Newton step the coarse slope gives from there
and, while those do not straddle the root yet, of the root of the secant
through the last two mismatches; the bracket ends are not shot once the
shots straddle the root.  The coarse pass takes the cell's sides from the
lattice, so it does not shoot its ends.  A coarse pass that fails or
leaves no two mismatches, a tol above 1e-9 |gamma0|, or a bracket from
the lattice on the grid itself leaves the bisection unaimed.
On the default grid, solve_states(range(5)) takes 27 shots there and 80
on the coarse grid (18 of them the lattice's), 167,883 RKN4 steps and
26,116 Riccati steps in all.  Each shot ends labelled by where it stops:
match_radius, node_ceiling, diverged_up, diverged_down or max_radius
(see :func:`_shoot`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidBracketError,
    SngError,
    WrongStateError,
    check_count,
    check_normal,
    check_positive,
)
from .grids import RadialField, RadialGrid, integrate_line, make_grid

__all__ = [
    "DEFAULT_RHO_MAX",
    "DEFAULT_POINTS",
    "DEFAULT_TOL",
    "UniversalSolution",
    "default_grid",
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
# above, then 8 times as far, and so on.  solve_states' lattice shoots on
# the same points.
_COARSE = 8
_AIM_OFFSET = 1e-9

# A solved state whose tail-identity residual exceeds this is under-resolved.
_TAIL_RESIDUAL_LIMIT = 1e-3

# The gamma0 lattice whose cells bracket the eigenvalues; see _find_brackets.
_LATTICE = np.linspace(-5.0, 0.0, 101)


def default_grid() -> RadialGrid:
    """The grid the CLI solves on unless told otherwise."""
    return make_grid(DEFAULT_RHO_MAX, DEFAULT_POINTS)


@dataclass(frozen=True)
class UniversalSolution:
    """A converged bound state of the universal system: its profile.

    Up to the match radius rho_m, ``f_star`` and ``g_star`` are the final
    shot's samples; past it they are the matched Coulomb tail u_tail/rho and
    g_inf - M/rho (see the module docstring).  gamma0 = g*(0), and the node
    count n, gamma1 and epsilon_star are read off the pair once.  A pair on
    two grids is refused, as are a bracket_width that is not finite and
    positive, a gamma1 that is not a finite normal double and an
    epsilon_star that is not finite (InvalidArgumentError).
    """

    f_star: RadialField
    g_star: RadialField
    bracket_width: float

    def __post_init__(self):
        check_positive("bracket_width", self.bracket_width)
        if self.g_star.grid != self.f_star.grid:
            raise WrongStateError(
                f"f* and g* lie on different grids: {self.f_star.grid} and {self.g_star.grid}")
        f = self.f_star.values
        if f[0] != 1.0:
            raise WrongStateError(f"f*(0) must be exactly 1, got {f[0]!r}")
        # the final 10%, at least two samples; the whole profile under 10 points
        tail = np.abs(f[-max(2, self.grid.n_points // 10 or self.grid.n_points):])
        if not np.all(np.diff(tail) < 0.0):
            raise WrongStateError("|f*| must decay strictly over the final 10% of the grid")
        check_normal("gamma1", self.gamma1)
        if not math.isfinite(self.epsilon_star):
            raise InvalidArgumentError(f"epsilon_star must be finite, got {self.epsilon_star!r}")

    @property
    def gamma0(self) -> float:
        return float(self.g_star.values[0])

    @cached_property
    def n(self) -> int:
        """The node count of f*: strict sign changes between consecutive
        samples, counted as :func:`_shoot` counts them.  A shot that ends
        at its match radius stops past node n, and its tail keeps its sign."""
        f = self.f_star.values
        return int(np.count_nonzero(f[:-1] * f[1:] < 0.0))

    @cached_property
    def gamma1(self) -> float:
        """int f*^2 rho^2 drho; an overflow or underflow is refused."""
        f, rho = self.f_star.values, self.grid.nodes
        with np.errstate(over="ignore", invalid="ignore"):
            return integrate_line(f * f * rho * rho, self.grid)

    @cached_property
    def epsilon_star(self) -> float:
        """(3/gamma1) int f*^2 g* rho^2 drho, the eigenvalue -g*(infinity)."""
        f, g, rho = self.f_star.values, self.g_star.values, self.grid.nodes
        with np.errstate(over="ignore", invalid="ignore"):
            return 3.0 / self.gamma1 * integrate_line(f * f * g * rho * rho, self.grid)

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
    the one RKN4 kernel behind every shot.

    Fixed-step classical fourth-order Runge-Kutta-Nystrom (Hairer, Norsett &
    Wanner, Solving ODEs I, II.14) on y = (u, v), u = rho f, v = rho g, which
    obeys y'' = F(rho, y) = w (v, u), w = u/rho: stages k1 = F(rho, y), k2 =
    F(rho + h/2, y + h/2 y' + h^2/8 k1), k3 = F(rho + h, y + h y' + h^2/2 k2),
    then y += h y' + h^2/6 (k1 + 2 k2), y' += h/6 (k1 + 4 k2 + k3).  Stage 3's
    1/(rho + h) is the next step's stage 1's.  The shot starts from the series
    f = 1 + gamma0 rho^2/6, g = gamma0 + rho^2/6 that the ODEs force at rho =
    0 (u = h f(h), u' = f(h) + h f'(h) at the first sample, and the same for
    v).  Nodes are strict sign changes of u, and so of f, between consecutive
    samples past the origin, f(0) = 1 and f(h) counting as the first pair; an
    exact zero does not count.  The shot stops at rho_max, or as soon as |u| >
    1e3 rho, that is |f| > 1e3 (``diverged_up`` or ``diverged_down``, a
    classification, not an error), or with ``max_nodes`` at node max_nodes + 1
    (``node_ceiling``; the count stops there).  With ``stop`` (and
    ``max_nodes``), it also ends ``stop`` samples past f's sign change number
    ``max_nodes`` (past the origin for 0): ``match_radius``.  A shot that runs
    to rho_max is ``max_radius``.  A non-finite gamma0, a bad ``max_nodes`` or
    a sample that overflows a double raises InvalidArgumentError.

    Returns the label ``(node_count, classification)`` and, when ``record``
    is true, the computed samples as the lists (u, u', v, v'), from (0, 1,
    0, gamma0) at the origin; else the state ``(index, u, u', v, v')`` of
    the last computed sample, and the loop keeps nothing but its state and
    the previous u.
    """
    if not np.isfinite(gamma0):
        raise InvalidArgumentError(f"gamma0 must be finite, got {gamma0}")
    ceiling = math.inf if max_nodes is None else check_count("max_nodes", max_nodes, 0)

    gamma0 = float(gamma0)
    n = grid.n_points
    h = grid.spacing
    # The loop state must be Python floats: numpy scalars run every one of
    # the ~50 operations per step about 3x slower, to the same bits.
    f1 = 1.0 + gamma0 * h * h / 6.0
    g1 = gamma0 + h * h / 6.0
    yu = h * f1
    yup = f1 + h * (gamma0 * h / 3.0)
    yv = h * g1
    yvp = g1 + h * (h / 3.0)
    if record:
        us, ups, vs, vps = [0.0, yu], [1.0, yup], [0.0, yv], [gamma0, yvp]
    nodes = int(yu < 0.0)  # the pair (f[0], f[1]) = (1, u[1]/h)
    # the index the shot stops at once it is known; n is past the grid
    target = nodes + stop if stop is not None and nodes == ceiling else n
    rho = h
    inv = 1.0 / rho
    classification = "max_radius"
    half = 0.5 * h
    sixth = h / 6.0
    h2_8, h2_2, h2_6 = h * h / 8.0, h * h / 2.0, h * h / 6.0
    cap = _CAP
    for i in range(2, n):
        # RKN4 stages for (u, v)'' = w (v, u), w = u/rho; inv is 1/rho from the
        # last step's third stage; stage 3 and the update share h u' and h v'
        w = yu * inv
        b1 = w * yv
        d1 = w * yu

        inv = 1.0 / (rho + half)
        u2 = yu + half * yup + h2_8 * b1
        v2 = yv + half * yvp + h2_8 * d1
        w = u2 * inv
        b2 = w * v2
        d2 = w * u2

        rho += h
        inv = 1.0 / rho
        hu = h * yup
        hv = h * yvp
        u3 = yu + hu + h2_2 * b2
        v3 = yv + hv + h2_2 * d2
        w = u3 * inv
        b3 = w * v3
        d3 = w * u3

        u_prev = yu
        yu += hu + h2_6 * (b1 + 2.0 * b2)
        yv += hv + h2_6 * (d1 + 2.0 * d2)
        yup += sixth * (b1 + 4.0 * b2 + b3)
        yvp += sixth * (d1 + 4.0 * d2 + d3)
        if record:
            us.append(yu)
            ups.append(yup)
            vs.append(yv)
            vps.append(yvp)
        if yu * u_prev < 0.0:
            nodes += 1
            # Checked before the cap, so every shot whose count would pass
            # the ceiling carries the same label, however it would have ended.
            if nodes > ceiling:
                classification = "node_ceiling"
                break
            if nodes == ceiling and stop is not None:
                target = i + stop
        if abs(yu) > cap * rho:
            classification = "diverged_up" if yu > 0.0 else "diverged_down"
            break
        if i == target:
            classification = "match_radius"
            break

    # a sum with a non-finite term is not finite, so the last samples decide
    if not (math.isfinite(yu) and math.isfinite(yv)):
        raise InvalidArgumentError(f"the shot at gamma0={gamma0} overflows a double")
    return (nodes, classification), ((us, ups, vs, vps) if record else (i, yu, yup, yv, yvp))


# ---------------------------------------------------------------------------
# bracketing
# ---------------------------------------------------------------------------

def _node_counts(ns: Iterable[int]) -> list[int]:
    """The distinct node counts ``ns``, in increasing order; an empty
    request or a bad n raises InvalidArgumentError."""
    wanted = sorted({check_count("n", n, 0) for n in ns})
    if not wanted:
        raise InvalidArgumentError("need one or more node counts, got none")
    return wanted


def _coarse_grid(grid: RadialGrid) -> RadialGrid:
    """Every _COARSE-th point of ``grid``, where :func:`solve_states`
    brackets and :func:`_aim` aims; under 3 points it is refused
    (InvalidArgumentError)."""
    return make_grid(grid.rho_max, (grid.n_points - 1) // _COARSE + 1)


def _find_brackets(ns: Iterable[int], grid: RadialGrid) -> dict[int, tuple[float, float]]:
    """Brackets for the node counts ``ns``: neighbouring points of a gamma0
    lattice on (-5, 0).  The node count of f is a Sturm count, which does
    not rise with gamma0, so the bracket of n is the cell where the count
    falls from above n to at most n (one cell can bracket several n).  Each
    n bisects lattice indices on "count > n" from the tightest cell the
    shots so far give; the shots are shared and stop at their first node
    past the highest n.  An empty request or a bad n raises
    InvalidArgumentError before any shot.  InvalidBracketError is raised for
    an n with count(-5) <= n, and for a count that rises with gamma0 between
    two of the shots, as on a grid too coarse for the states it shoots.
    :func:`solve_states` runs it on every _COARSE-th point first."""
    wanted = _node_counts(ns)
    counts = {}

    def count(i: int) -> int:
        if i not in counts:
            counts[i] = _shoot(_LATTICE[i], grid, wanted[-1], record=False)[0][0]
        return counts[i]

    found = {}
    for n in wanted:
        if not count(0) > n >= count(len(_LATTICE) - 1):
            continue
        lo = max(i for i in counts if counts[i] > n)
        hi = min(j for j in counts if j > lo and counts[j] <= n)
        while hi - lo > 1:
            m = (lo + hi) // 2
            lo, hi = (m, hi) if count(m) > n else (lo, m)
        found[n] = float(_LATTICE[lo]), float(_LATTICE[hi])
    shot = sorted(counts)
    for i, j in zip(shot, shot[1:]):
        if counts[i] < counts[j]:
            raise InvalidBracketError(
                f"the node count rises with gamma0, from {counts[i]} at {_LATTICE[i]:.6g} "
                f"to {counts[j]} at {_LATTICE[j]:.6g}; refine --points")
    missing = [n for n in wanted if n not in found]
    if missing:
        raise InvalidBracketError(
            f"no bracket with node count {', '.join(map(str, missing))} found scanning "
            f"gamma0 in ({_LATTICE[0]:g}, {_LATTICE[-1]:g}); enlarge --rho-max")
    return found


# ---------------------------------------------------------------------------
# bisection on the tail match
# ---------------------------------------------------------------------------

def _tail(k2: float, mass: float, radii: list[float],
          step: float = _RICCATI_STEP) -> tuple[list[float], list[float]] | None:
    """The decaying solution u of u'' = (k2 - mass/rho) u at the increasing
    ``radii``: y = u'/u and log(u / u(radii[0])); None when k2 <= 0 or u
    has a zero past radii[0] (a pole of y, where the steps run off).  y
    solves y' = k2 - mass/rho - y^2, stable inward, from the asymptotic
    form -k + mass/(2 k rho), k = sqrt(k2), _RICCATI_RUN_IN past the last
    radius, in RK4 steps of at most ``step``.  A mismatch asks for rho_m
    alone; a final shot's profile for its anchors (see :func:`_solve`),
    so each span between radii is one step there."""
    if not k2 > 0.0:
        return None
    k = math.sqrt(k2)
    r = radii[-1] + _RICCATI_RUN_IN
    y = -k + mass / (2.0 * k * r)
    log_u = 0.0
    ys, logs = [], []
    for end in reversed(radii):
        steps = math.ceil((r - end) / step)
        dr = (end - r) / steps
        half = 0.5 * dr
        sixth = dr / 6.0
        for _ in range(steps):
            a1 = k2 - mass / r - y * y
            y2 = y + half * a1
            qm = k2 - mass / (r + half)  # the potential at the midpoint
            a2 = qm - y2 * y2
            y3 = y + half * a2
            a3 = qm - y3 * y3
            y4 = y + dr * a3
            r += dr
            a4 = k2 - mass / r - y4 * y4
            log_u += sixth * (y + 2.0 * (y2 + y3) + y4)
            y += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        r = end
        ys.append(y)
        logs.append(log_u)
    if not math.isfinite(y):
        return None
    return ys[::-1], [v - log_u for v in reversed(logs)]


def _stop(grid: RadialGrid) -> int:
    """rho_m in samples past the last node; at least the first RKN4 sample."""
    return max(2, round(_MATCH_MARGIN / grid.spacing))


def _side(n: int, gamma0: float, grid: RadialGrid, stop: int,
          step: float = _RICCATI_STEP) -> tuple[int, float | None]:
    """+1 when gamma0 lies above the n-node eigenvalue, where the growing
    mode carries the sign (-1)^n of f's last lobe, and -1 below; with the
    mismatch that told it, or None.

    With s = (-1)^n, a shot that reaches rho_m tells by the sign of the
    mismatch s (u' - u y_tail), y_tail the log-derivative of the tail
    with k^2 = v' and M = rho v' - v there, which is the sign of its
    growing mode, and returns it; the tail takes Riccati steps of at most
    ``step``.  One that stops before rho_m, or whose tail there does not
    decay yet, tells by its label up to rho_m, or else rho_max: an
    (n+1)-th node means below, divergence above.  A shot that reaches
    rho_max with n nodes and s u, s u', v and v' all positive is above
    too: v'' = u^2/rho >= 0 keeps v', v and so g positive, and then
    s u'' = g s u > 0 keeps s u growing, so f diverges with its last
    lobe's sign.  Any other shot is refused (WrongStateError).
    """
    (nodes, classification), (i, u, up, v, vp) = _shoot(gamma0, grid, n, False, stop)
    s = (-1) ** n
    if classification == "match_radius":
        rho = float(grid.nodes[i])
        tail = _tail(vp, rho * vp - v, [rho], step)
        if tail is not None:
            mismatch = s * (up - u * tail[0][0])
            return (1 if mismatch > 0.0 else -1), mismatch
        (nodes, classification), (i, u, up, v, vp) = _shoot(gamma0, grid, n, False)
    if nodes > n:
        return -1, None
    if classification.startswith("diverged") or (
            nodes == n and s * u > 0.0 and s * up > 0.0 and v > 0.0 and vp > 0.0):
        return 1, None
    raise WrongStateError(
        f"the n={n} shot at gamma0={gamma0!r} has no decaying tail at its match radius, "
        f"{_MATCH_MARGIN:g} past its last node, inside rho_max={grid.rho_max:g}; enlarge --rho-max"
    )


def _aim(n: int, bracket: tuple[float, float], coarse: RadialGrid,
         tol: float) -> tuple[float, float] | None:
    """The unaimed :func:`_bisect` of ``bracket``, a lattice cell on the
    ``coarse`` grid, with tails on a Riccati step _COARSE times as long,
    gives the mid-bracket gamma0 and the secant slope of its last two
    mismatches.  The lattice has sided the cell's ends, so they are not
    shot.  None when the bisection raises, or it leaves no two distinct
    mismatches."""
    try:
        lo, hi, seen = _bisect(n, bracket, coarse, tol, _COARSE * _RICCATI_STEP, None, True)
    except SngError:
        return None
    if len(seen) < 2 or seen[-1][1] == seen[-2][1]:
        return None
    (x0, v0), (x1, v1) = seen[-2:]
    return 0.5 * (lo + hi), (v1 - v0) / (x1 - x0)


def _aims(bracket: tuple[float, float], tol: float) -> bool:
    """Whether a bisection of ``bracket`` to ``tol`` is aimed: a coarser
    tol leaves too few halvings to always repay the coarse pass (n = 0 on
    40/401 at tol 1e-6: 2,458 RKN4 steps aimed, 2,148 plain)."""
    lo, hi = bracket
    return tol < min(hi - lo, _AIM_OFFSET * max(abs(lo), abs(hi)))


def _bisect(n: int, bracket: tuple[float, float], grid: RadialGrid, tol: float, step: float,
            aim: tuple[float, float] | None,
            sided: bool) -> tuple[float, float, list[tuple[float, float]]]:
    """Plain bisection's bracket of width <= tol on the n-node eigenvalue
    inside ``bracket``, and the (gamma0, mismatch) pairs of the shots taken,
    in the order the secant reads them; tails take Riccati steps <= ``step``.

    A midpoint inside the narrowest bracket (a, b) the shots have
    established costs one shot: while more than two halvings remain and
    secant shots do not outnumber halvings, at the root of the secant
    through the last two mismatches, moved toward the midpoint by
    _SECANT_PAST * tol (at least _SECANT_FLOOR of the root) but not past
    it; else at the midpoint.  A midpoint outside (a, b) takes the side of
    the shot that set that end.

    With an ``aim``, the first shots are aimed from the coarse pass's
    root gamma_c and slope (see :func:`_aim`): at gamma_c + d, d
    growing 8-fold from max(_AIM_OFFSET |gamma_c|, tol), until a shot lands
    above the eigenvalue with a mismatch v there, then a secant step past
    each side of the Newton point x - v/slope; while the shots do not yet
    straddle the eigenvalue, once more past each side of the root of the
    secant through the last two mismatches.  Every such shot lies inside
    (a, b).  Bracket ends are shot only while the shots still do not
    straddle the eigenvalue, and never when ``sided``: the lower end then
    lies below the eigenvalue and the upper end above, as on a lattice
    cell of ``grid``.  An aimed shot that raises ends the aim.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    stop = _stop(grid)
    a, b = lo, hi
    seen = []
    side_lo = -1  # the lower end's side: below, unless its own shot says otherwise

    def shoot(x: float) -> tuple[int, float | None]:
        nonlocal a, b
        side, v = _side(n, x, grid, stop, step)
        if v is not None:
            seen.append((x, v))
        if side == side_lo:
            a = x
        else:
            b = x
        return side, v

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
                for _ in range(2):  # the Newton step, then the fine secant's
                    x -= v / slope
                    past = max(_SECANT_PAST * tol, _SECANT_FLOOR * abs(x))
                    for y in (x - past, x + past):
                        if a < y < b:
                            shoot(y)
                    if (a > lo and b < hi) or len(seen) < 2 or seen[-1][1] == seen[-2][1]:
                        break
                    (x0, v0), (x, v) = seen[-2:]
                    slope = (v - v0) / (x - x0)
        except SngError:
            pass
    if not sided and (a == lo or b == hi):
        side_lo, v_lo = _side(n, lo, grid, stop, step)
        side_hi, v_hi = _side(n, hi, grid, stop, step)
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


def _solve(n: int, bracket: tuple[float, float], grid: RadialGrid, tol: float,
           aim: tuple[float, float] | None) -> UniversalSolution:
    """Bisect gamma0 inside ``bracket`` until the width falls below ``tol``
    and return the profile shot from the mid-bracket gamma0 = g*(0).

    Each shot stops at its own rho_m, 16 past its n-th node.  One that
    stops earlier sides gamma0 by its label (an extra node, or
    divergence); one that reaches rho_m by the sign of the Wronskian
    mismatch there.  The halvings are plain bisection's, so while the side
    changes once inside ``bracket`` the result is plain bisection's bit for
    bit; but a midpoint that lies past a shot already taken takes that
    shot's side.  The first shots are aimed from the coarse pass's root
    and slope ``aim`` (see :func:`_aim`), or not for None, and near the
    root the shots are secant steps on the mismatch aimed just past the
    root toward the midpoint (see :func:`_bisect`).  Secant shots never
    outnumber the halvings made.  Up to rho_m, f* and g* are the final
    shot's u and v divided by rho once, with f*(0) = 1 and g*(0) = gamma0
    exactly; past it, g* = g_inf - M/rho and f* = u_tail/rho, with u_tail
    from the same tail as the mismatch, shot at anchors: rho_m, every s-th
    node past it and the last node, s the most nodes whose span h s stays
    below one Riccati step of 0.05 (9 on the default grid; 1, every node
    an anchor, where h >= 0.025).  Between anchors, log u_tail is the
    cubic Hermite interpolant whose slopes are the tail's y = (log
    u_tail)' at the two anchors.

    Raises
    ------
    InvalidBracketError
        If both bracket ends lie on the same side of the eigenvalue.
    WrongStateError
        If rho_m does not fit in the grid (enlarge --rho-max), or the state
        has no decaying tail past rho_m, an |f*| that does not decay
        strictly over the final 10% of the grid, or a tail-identity
        residual above 1e-3 (refine --points, or lower a tol that leaves
        gamma0 too far off the eigenvalue).
    ConvergenceError
        If bisection exhausts floating point resolution before reaching tol.
    """
    lo, hi, _ = _bisect(n, bracket, grid, tol, _RICCATI_STEP, aim, False)
    stop = _stop(grid)
    gamma0 = 0.5 * (lo + hi)
    (_, classification), (u_shot, _, v_shot, vp_shot) = _shoot(gamma0, grid, n, True, stop)
    m = len(u_shot) - 1
    rho = grid.nodes
    rho_m = float(rho[m])
    k2, mass = vp_shot[m], rho_m * vp_shot[m] - v_shot[m]
    # anchors rho_m, every s-th node past it and the last node, each span
    # one Riccati step: s h stays below the step, since on 8001 points ten
    # nodes mostly span 0.05 and an ulp, which _tail's ceil takes in two
    s = max(1, math.ceil(_RICCATI_STEP / grid.spacing) - 1)
    anchors = list(range(m, grid.n_points, s))
    if anchors[-1] != grid.n_points - 1:
        anchors.append(grid.n_points - 1)
    tail = (_tail(k2, mass, rho[anchors].tolist()) if classification == "match_radius"
            else None)
    # a mid-bracket gamma0 up to tol/2 off the eigenvalue can be what spoils the state
    refine = f"refine --points, or lower --tol (bracket width {hi - lo:.3e})"
    if tail is None:
        raise WrongStateError(f"the n={n} shot at gamma0={gamma0!r} ends at rho={rho_m:.6g} "
                              f"with no decaying tail past it; {refine}")
    f, g = np.empty((2, grid.n_points))
    f[:m + 1], g[:m + 1] = u_shot, v_shot
    f[1:m + 1] /= rho[1:m + 1]
    g[1:m + 1] /= rho[1:m + 1]
    f[0], g[0] = 1.0, gamma0
    if m < grid.n_points - 1:  # at the last node, rho_m is the one anchor: nothing to fill
        log_u = _hermite(rho[m:], rho[anchors], np.array(tail[1]), np.array(tail[0]), s)
        f[m + 1:] = u_shot[m] * np.exp(log_u[1:]) / rho[m + 1:]
        g[m + 1:] = k2 - mass / rho[m + 1:]
    try:
        sol = UniversalSolution(RadialField(grid, f), RadialField(grid, g), hi - lo)
    except WrongStateError as exc:
        raise WrongStateError(
            f"the n={n} state on {grid.n_points} points: {exc}; {refine}") from exc
    if not abs(sol.tail_residual) <= _TAIL_RESIDUAL_LIMIT:
        raise WrongStateError(
            f"the n={n} state on {grid.n_points} points has tail-identity residual "
            f"{sol.tail_residual:.3e} (limit {_TAIL_RESIDUAL_LIMIT:g}); {refine}"
        )
    return sol


def _hermite(x: np.ndarray, anchors: np.ndarray, values: np.ndarray, slopes: np.ndarray,
             s: int) -> np.ndarray:
    """The piecewise cubic Hermite interpolant at the nodes ``x`` of the
    ``values`` and ``slopes`` at the ``anchors``: x[0], every s-th node
    past it and x[-1] (Hairer, Norsett & Wanner, Solving ODEs I, II.6).
    It is exact at the anchors."""
    j = np.minimum(np.arange(len(x)) // s, len(anchors) - 2)
    x0, width = anchors[j], anchors[j + 1] - anchors[j]
    t = (x - x0) / width
    c = 1.0 - t
    return ((1.0 + 2.0 * t) * c * c * values[j] + t * c * c * width * slopes[j]
            + t * t * (3.0 - 2.0 * t) * values[j + 1] - t * t * c * width * slopes[j + 1])


def solve_states(ns: Iterable[int], grid: RadialGrid,
                 tol: float = DEFAULT_TOL) -> list[UniversalSolution]:
    """Solve the bound states with the requested node counts, in the order
    given: :func:`_find_brackets` brackets them all on its shared shots on
    every _COARSE-th point (see :func:`_coarse_grid`), then :func:`_solve`
    bisects each on ``grid`` from its cell, aimed by a coarse bisection on
    the same coarse grid that takes the cell's sides from the lattice
    (count above n at the lower end, at most n at the upper) and so does
    not shoot its ends.  A cell that contains the eigenvalue on ``grid`` is
    the one the lattice on ``grid`` itself gives, so the states are the
    same.  That lattice brackets the states instead, and their bisections
    run unaimed, when the coarse grid is refused, its lattice raises, or a
    coarse cell lies on one side of the eigenvalue on ``grid``
    (InvalidBracketError), from that state on.  A bad ``tol`` or ``ns``
    raises InvalidArgumentError before any shot."""
    ns = list(ns)
    check_positive("tol", tol)
    _node_counts(ns)
    try:
        coarse = _coarse_grid(grid)
        cells = _find_brackets(ns, coarse)
    except SngError:
        cells = {}
    found = None  # the brackets of the lattice on grid itself, once needed
    solved = []
    for n in ns:
        if n in cells:
            aim = _aim(n, cells[n], coarse, tol) if _aims(cells[n], tol) else None
            try:
                solved.append(_solve(n, cells[n], grid, tol, aim))
                continue
            except InvalidBracketError:
                cells = {}
        if found is None:
            found = _find_brackets(ns, grid)
        solved.append(_solve(n, found[n], grid, tol, None))
    return solved
