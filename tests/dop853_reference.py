"""An independent reference for the central values gamma0(n), n = 0..5.

Label bisection on a grid-free, tail-free integration of

    f'' + (2/rho) f' = g f,      g'' + (2/rho) g' = f^2,

with scipy's DOP853 (rtol 1e-13, atol 1e-300, max_step 0.5), started from
the series through rho^4 at rho = 1e-3 and run out to rho = 120.  A shot
with more than n nodes lies below the n-node eigenvalue; one that reaches
|f| > 1e3 with at most n nodes lies above.  The bisection runs from
(-2, -0.5) to a width of 1e-14 |gamma0|, once at rtol 1e-13 and once at
1e-12; their difference is the table's uncertainty.  Shares neither the
grid, the RKN4 shot kernel nor the matched tail (whose Riccati equation
takes RK4 steps) of ``sng.shooting``, and needs only numpy and scipy.

Run from the repository root (about 20 s on one core):

    python tests/dop853_reference.py > tests/gamma0_dop853.json
"""

from __future__ import annotations

import json

import numpy as np
from scipy.integrate import solve_ivp

START = 1e-3
END = 120.0
CAP = 1e3
BRACKET = (-2.0, -0.5)
WIDTH = 1e-14


def _rhs(rho, y):
    f, fp, g, gp = y
    return [fp, g * f - 2.0 * fp / rho, gp, f * f - 2.0 * gp / rho]


def _start(gamma0):
    """(f, f', g, g') at START from the series f = 1 + gamma0 rho^2/6 +
    (gamma0^2 + 1) rho^4/120, g = gamma0 + rho^2/6 + gamma0 rho^4/60."""
    r = START
    a2, a4 = gamma0 / 6.0, (gamma0 * gamma0 + 1.0) / 120.0
    b2, b4 = 1.0 / 6.0, gamma0 / 60.0
    return [1.0 + a2 * r**2 + a4 * r**4, 2.0 * a2 * r + 4.0 * a4 * r**3,
            gamma0 + b2 * r**2 + b4 * r**4, 2.0 * b2 * r + 4.0 * b4 * r**3]


def _below(n, gamma0, rtol):
    """True when the shot at gamma0 has more than n nodes (below the n-node
    eigenvalue), False when it diverges with at most n nodes (above)."""
    def node(rho, y):
        return y[0]

    def cap(rho, y):
        return abs(y[0]) - CAP

    cap.terminal = True
    sol = solve_ivp(_rhs, (START, END), _start(gamma0), method="DOP853", rtol=rtol,
                    atol=1e-300, max_step=0.5, events=(node, cap))
    nodes = len(sol.t_events[0])
    if nodes > n:
        return True
    if len(sol.t_events[1]) == 0:
        raise RuntimeError(f"n={n}: the shot at gamma0={gamma0!r} neither gains a node "
                           f"nor diverges by rho={END}")
    return False


def gamma0(n, rtol):
    lo, hi = BRACKET
    if not (_below(n, lo, rtol) and not _below(n, hi, rtol)):
        raise RuntimeError(f"n={n}: {BRACKET} does not bracket the eigenvalue")
    while hi - lo > WIDTH * abs(lo):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _below(n, mid, rtol) else (lo, mid)
    return 0.5 * (lo + hi)


def main():
    table = {}
    for n in range(6):
        fine, loose = gamma0(n, 1e-13), gamma0(n, 1e-12)
        table[str(n)] = {"gamma0": fine, "rtol_1e-12_minus_1e-13": loose - fine}
    print(json.dumps({
        "method": "label bisection, scipy solve_ivp DOP853, rtol 1e-13, atol 1e-300, "
                  "max_step 0.5, series start at rho 1e-3, out to rho 120, width 1e-14 |gamma0|",
        "scipy": __import__("scipy").__version__,
        "numpy": np.__version__,
        "states": table,
    }, indent=2))


if __name__ == "__main__":
    main()
