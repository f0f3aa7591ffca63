"""Ground states of the doubly critical focusing equation.

Two independent pathways produce the soliton profile and serve as mutual
oracles: an ODE shooting integration (compiled DOP853, bisection on the
central value, then a collocation Newton polish on the working grid up to
its rounding floor), and a projected imaginary-time gradient flow at
fixed mass whose converged multiplier is scaled out to recover the
unit-multiplier state.  The shooting profile is grid-independent, so it
is computed once per process, on first use, and every grid reuses it;
only the Newton polish runs per grid.

Conventions: all reported scalars (mass, energy, norms) are genuine 3-D
integrals, i.e. they carry the 4*pi solid angle of the radial embedding.
The energy is

    E_mu(u) = 1/2 |grad u|^2 - 3/10 |u|^{10/3} - mu/4 int A(|u|^2) |u|^2,

which vanishes exactly on the ground state; the Pohozaev identity and the
equation-pairing identity are computed as relative defects and used as
solver diagnostics throughout.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline

from .errors import CoercivityError, ConfigurationError, ConvergenceError, FlowStagnationError
from .grid import RadialField, generator, h2_norm_3d, profile_interpolator
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


# ---------------------------------------------------------------------------
# shared functionals (3-D convention)
# ---------------------------------------------------------------------------

def mass_3d(grid, values):
    return float(4.0 * np.pi * np.sum(grid.weights * np.abs(values) ** 2))

def grad_sq_3d(grid, values):
    dv = grid.d1_free(0) @ values
    return float(4.0 * np.pi * np.sum(grid.weights * np.abs(dv) ** 2))

def power_3d(grid, values):
    """int |u|^{10/3} over R^3."""
    return float(4.0 * np.pi * np.sum(grid.weights * np.abs(values) ** (10.0 / 3.0)))

def hartree_quartic_3d(grid, values):
    """int A(|u|^2) |u|^2 over R^3."""
    dens = np.abs(values) ** 2
    return float(4.0 * np.pi * np.sum(grid.weights * hartree_apply(grid, dens) * dens))

def energy_mu(grid, values, mu):
    e = 0.5 * grad_sq_3d(grid, values) - 0.3 * power_3d(grid, values)
    if mu != 0.0:
        e -= 0.25 * mu * hartree_quartic_3d(grid, values)
    return e


def _equation_residual(grid, q, mu):
    """-Delta Q + Q - |Q|^{4/3} Q - mu A(Q^2) Q, as sampled values."""
    return grid.laplacian(0) @ q + q - nonlinear_potential(grid, q, mu) * q


def _integrals(grid, q):
    """(M, G, P, H): ||q||^2, ||grad q||^2, int |q|^{10/3} and int A(|q|^2) |q|^2."""
    return mass_3d(grid, q), grad_sq_3d(grid, q), power_3d(grid, q), hartree_quartic_3d(grid, q)

def _pohozaev(integrals, mu):
    m, g2, p, h = integrals
    lhs = 0.5 * g2 + 1.5 * m
    rhs = 0.9 * p + mu * h
    return abs(lhs - rhs) / lhs

def pohozaev_defect(grid, q, mu):
    return _pohozaev(_integrals(grid, q), mu)

def gn_nonlocal_quotient(grid, values):
    m, g2, _, h = _integrals(grid, values)
    return h / (g2 * m)


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
    gn_local: float
    gn_nonlocal: float
    pathway: str = "newton"
    diagnostics: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.Q.grid


def _finish_state(grid, q, mu, beta, pathway, extra, reference_mass=None):
    """The GroundState of q with its diagnostics.

    The local GN quotient is normalized by the best constant (5/3) ||Q||^{-4/3},
    so Q scores 1; `reference_mass` is ||Q||^2 of the classical soliton
    (computed on demand when omitted).
    """
    ints = _integrals(grid, q)
    m, g2, p, h = ints
    energy = 0.5 * g2 - 0.3 * p
    if mu != 0.0:
        energy -= 0.25 * mu * h
    if reference_mass is None:
        reference_mass = solve_classical_Q(grid).mass
    c_best = (5.0 / 3.0) / reference_mass ** (2.0 / 3.0)
    return GroundState(
        mu=mu,
        Q=RadialField(grid, 0, q),
        beta=beta,
        mass=m,
        energy=energy,
        eq_residual=float(np.max(np.abs(_equation_residual(grid, q, mu))) / np.max(np.abs(q))),
        pohozaev_residual=_pohozaev(ints, mu),
        gn_local=p / (c_best * m ** (2.0 / 3.0) * g2),
        gn_nonlocal=h / (g2 * m),
        pathway=pathway,
        diagnostics=extra,
    )


# ---------------------------------------------------------------------------
# pathway 1: shooting + collocation Newton
# ---------------------------------------------------------------------------

def _shoot_once(a0):
    """Integrate the radial equation outward from the center value a0.

    Hairer's compiled DOP853 (rtol 1e-12, atol 1e-14) classifies the shot at
    its accepted steps: -1 once u < 0 (overshoot), +1 once u' >= 0 past r0
    (undershoot; so is the equilibrium a0 = 1).  Returns the sign and the
    accepted rows (r, u, u'); an undecided shot raises ConvergenceError.
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


@cache
def _shooting_profile():
    """Bisect the central value of the classical soliton; returns a spline.

    Only mu = 0 is integrated by shooting (the nonlocal term would make the
    ODE an integro-differential equation); Newton continuation handles mu>0.
    The spline is cubic Hermite through the final shot's rows with
    u > 1e-11, continued by the linear far field c e^{-r}/r.  It does not
    depend on any grid, so it is computed once per process, on first use,
    and shared by every grid; only the Newton polish in `solve_classical_Q`
    runs per grid.  Each call of the returned function builds new arrays,
    so callers may modify what it returns.
    """
    lo, hi = 1.0, 10.0
    s_lo, _ = _shoot_once(lo)
    s_hi, _ = _shoot_once(hi)
    if not (s_lo > 0 and s_hi < 0):
        raise ConvergenceError(
            "shooting bracket failed",
            diagnostics={"lo": lo, "hi": hi, "sign_lo": s_lo, "sign_hi": s_hi},
        )
    for _ in range(80):
        midv = 0.5 * (lo + hi)
        if _shoot_once(midv)[0] > 0:
            lo = midv
        else:
            hi = midv
        if hi - lo < 1e-14 * midv:
            break
    _, rows = _shoot_once(0.5 * (lo + hi))
    rr, uu, vv = rows[rows[:, 1] > 1e-11].T
    spline = CubicHermiteSpline(rr, uu, vv)
    c_tail = uu[-1] * rr[-1] * np.exp(rr[-1])

    def profile(r):
        r = np.asarray(r, dtype=float)
        tail = c_tail * np.exp(-np.clip(r, 0, 700)) / np.maximum(r, 1e-12)
        return np.where(r > rr[-1], tail, spline(r))

    return profile


def _newton_polish(grid, q0, mu, maxiter=80):
    """Collocation Newton; the Jacobian is the plus-kind l = 0 operator.

    At mu != 0 each step solves with the full Jacobian, nonlocal piece
    2 mu A(Q .) Q included, by GMRES to relative residual 1e-8; only the
    preconditioner, the sparse LU of the local part, leaves that piece out.
    Once the best residual is below `tol` = 1e-9, the first evaluation
    that does not cut it tenfold marks the rounding floor (the core rows of
    the Laplacian amplify eps by 1/h^2), and the best iterate is returned
    with its residual and the number of Newton steps taken.
    """
    tol = 1e-9
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
    """The positive radial soliton of the local equation (mu = 0)."""
    key = ("groundstate", 0.0)
    if key in grid._cache:
        return grid._cache[key]
    profile = _shooting_profile()
    q0 = profile(grid.nodes)
    q, rnorm, iters = _newton_polish(grid, q0, 0.0)
    gs = _finish_state(
        grid, q, 0.0, beta=1.0, pathway="shooting+newton",
        extra={"newton_iters": iters, "tail_logderiv": _tail_logderiv(grid, q)},
        reference_mass=mass_3d(grid, q),
    )
    grid._cache[key] = gs
    return gs


def _tail_logderiv(grid, q):
    """Mean log-derivative of r Q(r) over 15 <= r <= 25 (limit is -1)."""
    r = grid.nodes
    mask = (r >= 15.0) & (r <= 25.0) & (q > 0)
    rq = np.log(r[mask] * q[mask])
    return float(np.polyfit(r[mask], rq, 1)[0])


def solve_Q_mu(mu, grid):
    """Continuation in the coupling from the classical soliton.

    0 <= mu <= MU_MAX in steps of 0.02; each step is Newton-polished, so the
    returned state satisfies the full nonlocal equation on the grid.
    """
    if mu < 0 or mu > MU_MAX:
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
    try:
        for m in mus:
            q, _, _ = _newton_polish(grid, q, float(m))
            last_good = float(m)
        q, rnorm, iters = _newton_polish(grid, q, float(mu))
    except ConvergenceError as exc:
        exc.diagnostics["last_convergent_mu"] = last_good
        raise
    gs = _finish_state(
        grid, q, float(mu), beta=1.0, pathway="continuation+newton",
        extra={"newton_iters": iters, "tail_logderiv": _tail_logderiv(grid, q)},
    )
    grid._cache[key] = gs
    return gs


# ---------------------------------------------------------------------------
# pathway 2: constrained gradient flow
# ---------------------------------------------------------------------------

def estimate_nonlocal_gn_constant(grid):
    """Empirical bound for the nonlocal quotient over a Gaussian-soliton family."""
    key = ("gn_nonlocal_bound",)
    if key in grid._cache:
        return grid._cache[key]
    r = grid.nodes
    best = 0.0
    for width in (0.6, 0.8, 1.0, 1.4, 2.0):
        best = max(best, gn_nonlocal_quotient(grid, np.exp(-r ** 2 / (2 * width ** 2))))
    try:
        q = solve_classical_Q(grid).Q.values
        best = max(best, gn_nonlocal_quotient(grid, q))
    except ConvergenceError:
        pass
    grid._cache[key] = best
    return best


def coercivity_bracket(a, mu, grid):
    """1 - (a/|Q|^2)^(2/3) - 2 mu C_* a with the empirical constant."""
    qn2 = solve_classical_Q(grid).mass
    cstar = estimate_nonlocal_gn_constant(grid)
    return 1.0 - (a / qn2) ** (2.0 / 3.0) - 2.0 * mu * cstar * a


def minimize_constrained(a, mu, grid):
    """Projected imaginary-time flow at fixed mass, then multiplier rescale.

    The flow converges onto the soliton's scale family; the Euler-Lagrange
    multiplier beta of the converged point is scaled out via
    phi(x) = beta^{3/4} Q_mu(sqrt(beta) x), which leaves the mass unchanged
    and produces the unit-multiplier state.
    """
    if a <= 0:
        raise ConfigurationError("constrained mass must be positive")
    if mu < 0 or mu > MU_MAX:
        raise ConfigurationError(f"coupling must lie in [0, {MU_MAX}], got {mu}")
    # The sufficient coercivity bracket cannot gate critical-mass runs: it
    # is strictly stronger than existence and turns negative at the soliton
    # mass for every positive coupling.  Refusal is reserved for genuinely
    # supercritical masses, where the energy is unbounded below and the flow
    # would collapse.
    a_crit = solve_Q_mu(mu, grid).mass
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
    lap = grid.laplacian(0)
    tau = 0.4        # implicit Euler step of the flow
    stepper = spla.splu((sp.identity(grid.n, format="csc") + tau * lap).tocsc())

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
        psi = stepper.solve(phi + tau * nonlinear_potential(grid, phi, mu) * phi)
        if it % 100 == 0:
            psi = reanchor(psi)
        psi *= np.sqrt(a / mass_3d(grid, psi))
        phi = psi
        if it % 25 == 24:
            beta = _flow_multiplier(grid, phi, mu)
            res = lap @ phi + beta * phi - nonlinear_potential(grid, phi, mu) * phi
            rnorm = np.max(np.abs(res)) / np.max(np.abs(phi))
            res_hist.append(rnorm)
            if rnorm < 5e-3:     # close enough for the constrained Newton
                break
            if len(res_hist) > 60 and rnorm > 0.999 * np.min(res_hist[:-30]):
                break            # flow has flattened out; hand over
    else:
        raise FlowStagnationError(
            "gradient flow exhausted its iteration budget",
            diagnostics={"residual": res_hist[-1] if res_hist else None},
        )

    # sharpen on the sphere: Newton on the KKT system with the mass
    # constraint and a scale pin that removes the neutral dilation mode
    phi, beta = _sphere_newton(grid, phi, mu, a)
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
    # polished back onto the discrete solution manifold.
    q = beta ** (-0.75) * profile_interpolator(grid, phi)(r / np.sqrt(beta))
    try:
        q, _, _ = _newton_polish(grid, q, mu, maxiter=12)
    except ConvergenceError:
        pass    # keep the transported state; diagnostics flag the residual
    gs = _finish_state(
        grid, q, mu, beta=float(beta), pathway="gradient-flow",
        extra={"flow_iterations": flow_its, "flow_residual": res_hist[-1]},
    )
    return gs


def _sphere_newton(grid, phi0, mu, a):
    """Newton for the constrained critical point on the mass sphere.

    Unknowns are (phi, beta); the KKT system is bordered with the mass
    constraint and with a fixed scale pin along the dilation generator,
    which removes the neutral family direction (its multiplier converges
    to zero, so the pinned solution satisfies the plain equation).  Stops
    as `_newton_polish` does (tol 3e-8), counting iterates on the sphere.
    """
    n = grid.n
    phi = phi0.copy()
    beta = _flow_multiplier(grid, phi, mu)
    pin = generator(grid, phi)    # dilation generator at entry

    best, best_state = np.inf, (phi.copy(), beta)
    for _ in range(30):
        eq = _equation_residual(grid, phi, mu) + (beta - 1.0) * phi
        cons = 0.5 * (mass_3d(grid, phi) - a) / (4.0 * np.pi)
        rnorm = np.max(np.abs(eq)) / np.max(np.abs(phi))
        on_sphere = abs(cons) < 1e-12 * a
        at_floor = best < 3e-8 and not (on_sphere and rnorm < 0.1 * best)
        if on_sphere and rnorm < best:
            best, best_state = rnorm, (phi.copy(), beta)
        if at_floor:
            return best_state
        op = linearize(grid, phi, mu, "plus", 0, shift=beta - 1.0)
        sol = op.solve(eq, [phi, pin], tail=[cons, 0.0], rtol=1e-9)
        phi = phi - sol[:n]
        beta = beta - sol[n]
    raise ConvergenceError("constrained Newton did not converge",
                           diagnostics={"residual": rnorm, "mu": mu})


def _flow_multiplier(grid, phi, mu):
    m, g2, p, h = _integrals(grid, phi)
    return (-g2 + p + mu * h) / m


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def functional_report(gs):
    """Mass, energy, identity defects and Gagliardo-Nirenberg quotients."""
    grid = gs.grid
    q = gs.Q.values
    m, g2, p, h = _integrals(grid, q)
    return {
        "mu": gs.mu,
        "mass": gs.mass,
        "energy": gs.energy,
        "eq_residual": gs.eq_residual,
        "pohozaev_defect": gs.pohozaev_residual,
        # the defect of the identity from pairing the equation with Q itself
        "pairing_defect": abs(g2 + m - p - gs.mu * h) / (g2 + m),
        "gn_local": gs.gn_local,
        "gn_nonlocal": gs.gn_nonlocal,
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
