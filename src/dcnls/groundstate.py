"""Ground states of the doubly critical focusing equation.

Two independent seeds of the same collocation Newton polish produce the
soliton profile and serve as mutual oracles: an ODE shooting profile, and
a projected imaginary-time gradient flow at fixed mass whose multiplier at
handover is scaled out to reach the unit-multiplier state.  The Newton
polish runs on the working grid up to its rounding floor.  The shooting
profile is grid-independent: the shot (DOP853, bisection on the central
value) is a committed table, `dcnls._soliton_table`, which
tests/shooting_reference.py rebuilds and checks, and each process reads it
once, on first use, for every grid; only the Newton polish runs per grid.

Conventions: all reported scalars (mass, energy, norms) are genuine 3-D
integrals, i.e. they carry the 4*pi solid angle of the radial embedding.
The energy is

    E_mu(u) = 1/2 |grad u|^2 - 3/10 |u|^{10/3} - mu/4 int A(|u|^2) |u|^2,

which vanishes exactly on the ground state; the Pohozaev identity and the
equation-pairing identity are computed as relative defects and used as
solver diagnostics throughout.  Every |u|^2 is `grid._abs_sq`, and the
residual and the flow take V from `hartree.nonlinear_potential`.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CoercivityError, ConfigurationError, ConvergenceError, FlowStagnationError
from .grid import RadialField, _abs_sq, h2_norm_3d, profile_interpolator
from .hartree import hartree_apply, nonlinear_potential
from .linop import linearize

__all__ = [
    "GroundState",
    "solve_classical_Q",
    "solve_Q_mu",
    "minimize_constrained",
    "functional_report",
    "perturbation_rate",
]

MU_MAX = 0.1
_TAIL_FIT = (15.0, 25.0)    # radii of the log-linear fit of the soliton tail


# ---------------------------------------------------------------------------
# shared functionals (3-D convention)
# ---------------------------------------------------------------------------

def mass_3d(grid, values):
    """int |u|^2 over R^3, one weighted dot of re^2 + im^2."""
    return float(4.0 * np.pi * np.dot(grid.weights, _abs_sq(values)))

def grad_sq_3d(grid, values):
    return mass_3d(grid, grid.d1_free(0) @ values)

def power_3d(grid, values):
    """int |u|^{10/3} over R^3."""
    return float(4.0 * np.pi * np.sum(grid.weights * np.abs(values) ** (10.0 / 3.0)))

def _quartic(grid, potential, dens):
    """int A(|u|^2) |u|^2 over R^3 from the density |u|^2 and its A(|u|^2)."""
    return float(4.0 * np.pi * np.sum(grid.weights * potential * dens))

def hartree_quartic_3d(grid, values):
    """int A(|u|^2) |u|^2 over R^3."""
    dens = _abs_sq(values)
    return _quartic(grid, hartree_apply(grid, dens), dens)

def _energy(g2, p, mu, quartic):
    """E = G/2 - 0.3 P - mu H/4 from G = ||grad u||^2 and P = int |u|^{10/3};
    H = int A(|u|^2) |u|^2 is `quartic()`, called only where mu != 0."""
    e = 0.5 * g2 - 0.3 * p
    if mu != 0.0:
        e -= 0.25 * mu * quartic()
    return e

def energy_mu(grid, values, mu):
    return _energy(grad_sq_3d(grid, values), power_3d(grid, values), mu,
                   lambda: hartree_quartic_3d(grid, values))


def _equation_residual(grid, q, mu):
    """-Delta Q + Q - |Q|^{4/3} Q - mu A(Q^2) Q, as sampled values."""
    return grid.laplacian(0) @ q + q - nonlinear_potential(grid, q, mu)[0] * q


def _integrals(grid, q):
    """(M, G, P, H): ||q||^2, ||grad q||^2, int |q|^{10/3} and int A(|q|^2) |q|^2."""
    return mass_3d(grid, q), grad_sq_3d(grid, q), power_3d(grid, q), hartree_quartic_3d(grid, q)

def _pohozaev(integrals, mu):
    m, g2, p, h = integrals
    lhs = 0.5 * g2 + 1.5 * m
    rhs = 0.9 * p + mu * h
    return abs(lhs - rhs) / lhs


@dataclass(eq=False)
class GroundState:
    """A converged soliton profile with its functional diagnostics."""

    mu: float
    Q: RadialField
    beta: float
    mass: float
    energy: float
    eq_residual: float
    pohozaev_residual: float
    diagnostics: dict

    @property
    def grid(self):
        return self.Q.grid


def _finish_state(grid, q, mu, beta, extra):
    """The GroundState of q with its diagnostics."""
    ints = _integrals(grid, q)
    m, g2, p, h = ints
    return GroundState(
        mu=mu,
        Q=RadialField(grid, 0, q),
        beta=beta,
        mass=m,
        energy=_energy(g2, p, mu, lambda: h),
        eq_residual=float(np.max(np.abs(_equation_residual(grid, q, mu))) / np.max(np.abs(q))),
        pohozaev_residual=_pohozaev(ints, mu),
        diagnostics=extra,
    )


# ---------------------------------------------------------------------------
# pathway 1: shooting + collocation Newton
# ---------------------------------------------------------------------------

@cache
def _shooting_profile():
    """The classical soliton by shooting, as a function of the radius.

    Only mu = 0 is shot (the nonlocal term would make the ODE an
    integro-differential equation); Newton continuation handles mu > 0.
    The shot is grid-free, so it is a committed table,
    `dcnls._soliton_table.ROWS`: the rows (r, u, u') with u > 1e-11 of the
    DOP853 shot from the bisected central value, which
    tests/shooting_reference.py rebuilds and checks.  The profile is the
    cubic Hermite interpolant through the rows, extended below the first
    row by its first piece and continued past the last by the linear far
    field c e^{-r}/r.  The table is read once per process, on first use,
    and shared by every grid; only the Newton polish in `solve_classical_Q`
    runs per grid.  Each call of the returned function builds new arrays,
    so callers may modify what it returns.
    """
    from ._soliton_table import ROWS

    rr, uu, vv = np.array(ROWS).T
    dx = np.diff(rr)
    slope = np.diff(uu) / dx
    t = (vv[:-1] + vv[1:] - 2 * slope) / dx
    cubic = (uu[:-1], vv[:-1], (slope - vv[:-1]) / dx - t, t / dx)   # powers 0..3 of r - r_i
    c_tail = uu[-1] * rr[-1] * np.exp(rr[-1])

    def profile(r):
        r = np.asarray(r, dtype=float)
        i = np.searchsorted(rr[1:-1], r, side="right")     # the end pieces extrapolate
        s = r - rr[i]
        # summed from the constant term up, in scipy's PPoly order, so that
        # the Newton seed has the bits of a CubicHermiteSpline through the rows
        hermite = cubic[0][i] + cubic[1][i] * s + cubic[2][i] * (s * s) + cubic[3][i] * (s * s * s)
        tail = c_tail * np.exp(-np.clip(r, 0, 700)) / np.maximum(r, 1e-12)
        return np.where(r > rr[-1], tail, hermite)

    return profile


def _newton_polish(grid, q0, mu):
    """Collocation Newton; the Jacobian is the plus-kind l = 0 operator.

    At mu != 0 each step solves with the full Jacobian, nonlocal piece
    2 mu A(Q .) Q included, by GMRES to relative residual 1e-8; only the
    preconditioner, the sparse LU of the local part, leaves that piece out.
    Once the best residual is below `tol` = 1e-9, the first evaluation
    that does not cut it tenfold marks the rounding floor (the core rows of
    the Laplacian amplify eps by 1/h^2), and the best iterate is returned
    with its residual and the number of Newton steps taken (one
    `linearize` each).
    """
    tol = 1e-9
    maxiter = 80
    q = q0.copy()
    best, q_best = np.inf, q.copy()
    for it in range(maxiter):
        res = _equation_residual(grid, q, mu)
        rnorm = np.max(np.abs(res)) / np.max(np.abs(q))
        at_floor = best < tol and not rnorm < 0.1 * best
        if rnorm < best:
            best, q_best = rnorm, q.copy()
        if at_floor:
            return q_best, best, it
        try:
            delta = linearize(grid, q, mu, "plus", 0).solve(res, rtol=1e-8)
        except ConvergenceError as exc:
            exc.diagnostics["residual"] = rnorm
            raise
        step = 1.0
        qn = q - step * delta
        # keep the iterate in the positive decreasing basin
        tries = 0
        while np.max(np.abs(qn)) > 3 * np.max(np.abs(q)) and tries < 5:
            step *= 0.5
            qn = q - step * delta
            tries += 1
        q = qn
    if best < tol:
        return q_best, best, maxiter
    raise ConvergenceError(
        "Newton did not reach tolerance",
        diagnostics={"mu": mu, "best_residual": best, "tol": tol},
    )


def solve_classical_Q(grid):
    """The positive radial soliton of the local equation (mu = 0).

    Every ground state starts here, so a grid that ends before the tail fit
    of `_tail_logderiv` does (r_max < 25) is refused with ConfigurationError.
    """
    if not grid.r_max >= _TAIL_FIT[1]:
        raise ConfigurationError(f"ground states need r_max >= {_TAIL_FIT[1]:g} for the "
                                 f"tail fit, got {grid.r_max:g}")
    key = ("groundstate", 0.0)
    if key in grid._cache:
        return grid._cache[key]
    profile = _shooting_profile()
    q0 = profile(grid.nodes)
    q, rnorm, iters = _newton_polish(grid, q0, 0.0)
    gs = _finish_state(
        grid, q, 0.0, beta=1.0,
        extra={"newton_iters": iters, "tail_logderiv": _tail_logderiv(grid, q)},
    )
    grid._cache[key] = gs
    return gs


def _tail_logderiv(grid, q):
    """Mean log-derivative of r Q(r) over 15 <= r <= 25 (limit is -1)."""
    r = grid.nodes
    mask = (r >= _TAIL_FIT[0]) & (r <= _TAIL_FIT[1]) & (q > 0)
    rq = np.log(r[mask] * q[mask])
    return float(np.polyfit(r[mask], rq, 1)[0])


def solve_Q_mu(mu, grid):
    """Continuation in the coupling from the classical soliton.

    0 <= mu <= MU_MAX in steps of 0.02; each step is Newton-polished, so the
    returned state satisfies the full nonlocal equation on the grid.  Its
    `newton_iters` counts the Newton steps of every polish of the
    continuation (the classical solve's are its own).
    """
    if not 0 <= mu <= MU_MAX:     # a NaN coupling is refused here too
        raise ConfigurationError(f"coupling must lie in [0, {MU_MAX}], got {mu}")
    key = ("groundstate", float(mu))
    if key in grid._cache:
        return grid._cache[key]
    base = solve_classical_Q(grid)
    if mu == 0.0:
        return base
    q = base.Q.values.copy()
    mus = np.arange(0.02, mu, 0.02)
    last_good = 0.0
    iters = 0
    try:
        for m in [*mus, mu]:
            q, _, steps = _newton_polish(grid, q, float(m))
            iters += steps
            last_good = float(m)
    except ConvergenceError as exc:
        exc.diagnostics["last_convergent_mu"] = last_good
        raise
    gs = _finish_state(
        grid, q, float(mu), beta=1.0,
        extra={"newton_iters": iters, "tail_logderiv": _tail_logderiv(grid, q)},
    )
    grid._cache[key] = gs
    return gs


# ---------------------------------------------------------------------------
# pathway 2: constrained gradient flow
# ---------------------------------------------------------------------------

def minimize_constrained(a, mu, grid):
    """Projected imaginary-time flow at fixed mass, then multiplier rescale.

    The flow converges onto the soliton's scale family; its Euler-Lagrange
    multiplier beta at handover is scaled out via
    phi(x) = beta^{3/4} Q_mu(sqrt(beta) x), which leaves the mass unchanged,
    and the transported state is polished by the Newton of pathway 1.  The
    returned `beta` is that handover multiplier, and `newton_iters` counts
    the polish's Newton steps.  A mass off the soliton mass a_crit by more
    than 1e-9 relative is refused: below it with ConfigurationError, above
    it with CoercivityError.
    """
    # A minimizer exists only at the soliton mass a_crit: below it the
    # infimum E = 0 is not attained (Weinstein, Comm. Math. Phys. 87, 1983),
    # so the flow would only spread out; above it the energy is unbounded
    # below and the flow would collapse.
    a_crit = solve_Q_mu(mu, grid).mass
    if not a >= a_crit * (1.0 - 1e-9):     # a NaN mass is refused here too
        raise ConfigurationError(
            f"mass {a:g} is not at least the soliton mass a_crit = {a_crit:g} at "
            f"coupling {mu:g}; no constrained minimizer exists below it"
        )
    if a > a_crit * (1.0 + 1e-9):
        raise CoercivityError(
            f"mass {a:g} exceeds the soliton mass {a_crit:g} at coupling {mu:g}",
            threshold=a_crit,
        )

    r = grid.nodes
    # soliton-shaped seed at the natural core scale; a broad Gaussian makes
    # the transit phase slide far along the dilation family before settling
    phi = np.exp(-r) * (1.0 + 0.3 * r)
    phi *= np.sqrt(a / mass_3d(grid, phi))
    amp_ref = float(np.max(phi))
    tau = 0.4        # implicit Euler step of the flow
    stepper = grid.band_solver(0, 1.0, tau)     # band Cholesky of I + tau (-Delta)_0

    # The energy is scale-flat along the soliton family, so the descent can
    # drift toward the domain wall while it relaxes transversally.  Sparse
    # re-anchoring by the exact mass-preserving dilation pins the amplitude;
    # once E has relaxed to the family the anchor becomes a no-op, so the
    # converged state satisfies the genuine Euler-Lagrange equation.
    def reanchor(f):
        lam = (np.max(f) / amp_ref) ** (-2.0 / 3.0)
        if abs(lam - 1.0) < 1e-13:
            return f
        return lam ** 1.5 * profile_interpolator(grid, f)(lam * r)

    res_hist = []
    flow_its = 0
    for it in range(40000):
        flow_its = it
        psi = stepper(phi + tau * nonlinear_potential(grid, phi, mu)[0] * phi)
        if it % 100 == 0:
            psi = reanchor(psi)
        psi *= np.sqrt(a / mass_3d(grid, psi))
        phi = psi
        if it % 25 == 24:
            beta = _flow_multiplier(grid, phi, mu)
            res = _equation_residual(grid, phi, mu) + (beta - 1.0) * phi
            rnorm = np.max(np.abs(res)) / np.max(np.abs(phi))
            res_hist.append(rnorm)
            if rnorm < 5e-3:     # close enough for the Newton polish
                break
            if len(res_hist) > 60 and rnorm > 0.999 * np.min(res_hist[:-30]):
                break            # flow has flattened out; hand over
    else:
        raise FlowStagnationError(
            "gradient flow exhausted its iteration budget",
            diagnostics={"residual": res_hist[-1] if res_hist else None},
        )

    if beta <= 0:
        raise FlowStagnationError(
            "flow converged to a non-solitonic state (multiplier <= 0)",
            diagnostics={"beta": beta},
        )
    if not np.all(np.diff(phi) <= 1e-10 * np.max(phi)):
        raise FlowStagnationError("flow state is not symmetry-decreasing")

    # scale the multiplier out; mass is invariant under this rescaling.  The
    # spline transport pollutes the high-frequency end (the Laplacian
    # amplifies interpolation error by 1/h^2), so the transported state is
    # polished onto the discrete solution by the Newton of pathway 1, which
    # is well posed there: L_{+,0} has a trivial radial kernel.
    q = beta ** (-0.75) * profile_interpolator(grid, phi)(r / np.sqrt(beta))
    q, _, iters = _newton_polish(grid, q, mu)
    return _finish_state(
        grid, q, mu, beta=float(beta),
        extra={"newton_iters": iters, "flow_iterations": flow_its,
               "flow_residual": res_hist[-1]},
    )


def _flow_multiplier(grid, phi, mu):
    m, g2, p, h = _integrals(grid, phi)
    return (-g2 + p + mu * h) / m


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def functional_report(gs):
    """Mass, energy, identity defects and the Gagliardo-Nirenberg quotients,
    which are computed here; the local one is normalized by the best constant
    (5/3) M_0^{-2/3}, M_0 the grid's cached classical mass, so Q scores 1."""
    grid = gs.grid
    q = gs.Q.values
    m, g2, p, h = _integrals(grid, q)
    c_best = (5.0 / 3.0) / solve_classical_Q(grid).mass ** (2.0 / 3.0)
    return {
        "mu": gs.mu,
        "mass": gs.mass,
        "energy": gs.energy,
        "eq_residual": gs.eq_residual,
        "pohozaev_defect": gs.pohozaev_residual,
        # the defect of the identity from pairing the equation with Q itself
        "pairing_defect": abs(g2 + m - p - gs.mu * h) / (g2 + m),
        "gn_local": p / (c_best * m ** (2.0 / 3.0) * g2),
        "gn_nonlocal": h / (g2 * m),
        "grad_norm_sq": g2,
        "tail_logderiv": _tail_logderiv(grid, q),
    }


def perturbation_rate(mu_list, grid):
    """Least-squares slope of log ||Q_mu - Q||_{H^2} against log mu."""
    mu_list = sorted(float(m) for m in mu_list)
    if len(mu_list) < 4:
        raise ConfigurationError("need at least 4 couplings for the rate fit")
    if mu_list[0] <= 0 or mu_list[-1] > MU_MAX:
        raise ConfigurationError("couplings must lie in (0, mu_max]")
    base = solve_classical_Q(grid)
    diffs, used, skipped = [], [], []
    for m in mu_list:
        try:
            gs = solve_Q_mu(m, grid)
        except ConvergenceError as exc:
            skipped.append({"mu": m, "reason": str(exc)})
            continue
        diffs.append(h2_norm_3d(grid, gs.Q.values - base.Q.values))
        used.append(m)
    if len(used) < 4:
        raise ConvergenceError("too few convergent members for the fit",
                               diagnostics={"skipped": skipped})
    lx, ly = np.log(used), np.log(diffs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    l2_diffs = [
        float(np.sqrt(mass_3d(grid, solve_Q_mu(m, grid).Q.values - base.Q.values)))
        for m in used
    ]
    return {
        "slope": float(slope),
        "prefactor": float(np.exp(intercept)),
        "fit_residual": resid,
        "mu_used": used,
        "h2_diffs": [float(d) for d in diffs],
        "l2_monotone": bool(np.all(np.diff(l2_diffs) > 0)),
        "skipped": skipped,
    }
