"""The reference that builds `dcnls._soliton_table`: the classical soliton Q_0
shot from its centre.

The radial equation u'' + 2u'/r = u - |u|^{4/3} u is integrated outward by
Hairer's compiled DOP853 (rtol 1e-12, atol 1e-14), and the central value
is bisected between an undershoot and an overshoot until the bracket is
1e-14 relative.  The table holds the final shot's accepted rows (r, u, u')
with u > 1e-11.

    PYTHONPATH=src python tests/shooting_reference.py

rewrites src/dcnls/_soliton_table.py; `test_groundstate` rebuilds the rows
and checks them against the committed table.
"""

import math
import pathlib

import numpy as np
from scipy import integrate

from dcnls.errors import ConvergenceError

TABLE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dcnls" / "_soliton_table.py"
U_MIN = 1e-11    # rows with u at or below this are left out of the table


def shoot_once(a0):
    """Integrate the radial equation outward from the center value a0.

    The shot is classified at its accepted steps: -1 once u < 0
    (overshoot), +1 once u' >= 0 past r0 (undershoot; so is the equilibrium
    a0 = 1).  Returns the sign and the accepted rows (r, u, u'); an
    undecided shot raises ConvergenceError.
    """
    r0 = 1e-6
    upp0 = (a0 - a0 ** (7.0 / 3.0)) / 3.0

    def rhs(r, y):
        u, v = y.tolist()
        return [v, -2.0 * v / r + u - math.copysign(abs(u) ** (7.0 / 3.0), u)]

    rows, sign = [], 0

    def solout(r, y):
        nonlocal sign
        u, v = y.tolist()
        rows.append((r, u, v))
        if u < 0:
            sign = -1
        elif v >= 0 and r > r0:
            sign = +1
        return -1 if sign else 0

    ode = integrate.ode(rhs).set_integrator("dop853", rtol=1e-12, atol=1e-14)
    ode.set_solout(solout)
    ode.set_initial_value([a0 + 0.5 * upp0 * r0 ** 2, upp0 * r0], r0)
    ode.integrate(30.0)
    if not sign:
        raise ConvergenceError(
            "shooting integration stopped before the shot was decided",
            diagnostics={"a0": a0, "r_last": rows[-1][0], "status": ode.get_return_code()},
        )
    return sign, np.array(rows)


def shoot_soliton():
    """(a0, rows): the bisected central value and its shot's rows with u > U_MIN."""
    lo, hi = 1.0, 10.0
    if not (shoot_once(lo)[0] > 0 and shoot_once(hi)[0] < 0):
        raise ConvergenceError("shooting bracket failed", diagnostics={"lo": lo, "hi": hi})
    for _ in range(80):
        midv = 0.5 * (lo + hi)
        if shoot_once(midv)[0] > 0:
            lo = midv
        else:
            hi = midv
        if hi - lo < 1e-14 * midv:
            break
    a0 = 0.5 * (lo + hi)
    _, rows = shoot_once(a0)
    return a0, rows[rows[:, 1] > U_MIN]


def table_source(a0, rows):
    """The text of `dcnls._soliton_table` for the shot (a0, rows)."""
    lines = ['"""The classical soliton Q_0: the rows (r, u, u\') with u > 1e-11 of the shot',
             f"from its bisected central value {a0!r}.",
             "",
             "Generated by tests/shooting_reference.py; do not edit.",
             '"""',
             "",
             "ROWS = ("]
    lines += [f"    ({r!r}, {u!r}, {v!r})," for r, u, v in rows.tolist()]
    lines += [")", ""]
    return "\n".join(lines)


if __name__ == "__main__":
    TABLE.write_text(table_source(*shoot_soliton()))
    print(f"wrote {TABLE}")
