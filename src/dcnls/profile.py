"""The approximate blowup profile: field hierarchy, constants, and residual.

The drift parameter is reduced to the first Cartesian axis, so every
vector-valued correction lives in the l = 1 channel with angular factor
cos(theta), and quadratics of drift fields split into l = 0 and l = 2
parts.  The hierarchy is solved order by order with the checked
constrained solve of `linop`, which measures each printed solvability
condition and refuses a source that violates it before inverting.

Assembly note: the l = 2 quadratic response is computed and stored but
not attached to the traveling profile.  Attaching it would cancel the
drift residual completely at second order (leaving a third-order one),
whereas the construction this code follows carries a scalar drift
correction and has a genuinely second-order residual; the measured
residual scalings reflect that choice.

Mixed-angular quantities (mass, energy, momentum, the full residual) are
evaluated on a tensor grid of radii times Gauss-Legendre nodes in
cos(theta), where every angular integral in sight is either polynomial
(projections) or analytic (fractional powers), so 16 nodes are plenty.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from .errors import ConfigurationError, ConvergenceError
from .grid import RadialField, _abs_sq, generator
from .groundstate import _energy
from .hartree import build_multipole_kernel
from .linop import _checked_solve, assemble_channel_operator

__all__ = [
    "ProfileSet",
    "AssembledProfile",
    "build_hierarchy",
    "check_profile_request",
    "assemble_R",
    "invariant_expansions",
    "residual_psi",
]

PARAM_BOX = 0.3
_CG, _CW = leggauss(16)

# P_0 .. P_2 at the angular nodes: R has channels l <= 1, so |R|^2 reaches l = 2
_PL = np.stack([legval(_CG, np.eye(l + 1)[-1]) for l in range(3)])

_EXPANSION_SAMPLES = (0.04, 0.06, 0.09, 0.13, 0.2)   # b and d of the expansion fits


@dataclass(eq=False)
class ProfileSet:
    """All hierarchy fields, the dual functions, and the expansion constants."""

    gs: object
    S10: RadialField          # l=0, imaginary, order b
    S01: RadialField          # l=1, imaginary, order d (axial component)
    T11: RadialField          # l=1, real, order b d
    T20: RadialField          # l=0, real, order b^2
    T02_l0: RadialField       # l=0, real, order d^2 (scalar part)
    T02_l2: RadialField       # l=2, real, order d^2 (stored, not assembled)
    S30: RadialField          # l=0, imaginary, order b^3
    T40: RadialField          # l=0, real, order b^4
    S21: RadialField          # l=1, imaginary, order b^2 d
    rho1: RadialField         # l=0
    rho2_b: RadialField       # l=0 component of the dual phase function
    rho2_d: RadialField       # l=1 component of the dual phase function
    e_mu: float
    p_mu: float
    solvability: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.gs.grid

    def fields(self):
        return {
            "S10": self.S10, "S01": self.S01, "T11": self.T11, "T20": self.T20,
            "T02_l0": self.T02_l0, "T02_l2": self.T02_l2, "S30": self.S30,
            "T40": self.T40, "S21": self.S21, "rho1": self.rho1,
            "rho2_b": self.rho2_b, "rho2_d": self.rho2_d,
        }


@dataclass(eq=False)
class AssembledProfile:
    """The finite-parameter profile with its conserved quantities."""

    channels: dict            # l -> complex samples (coefficient of P_l)
    mass: float
    energy: float
    momentum: float
    ratio_sup: float          # sup over the core window of |R| / Q


def _pair(grid, f_vals, g_vals, l):
    ang = 4.0 * np.pi / (2 * l + 1)
    return float(ang * np.sum(grid.weights * f_vals * g_vals))


def build_hierarchy(gs):
    """Solve the profile hierarchy order by order around the ground state.

    Every field comes from `linop._checked_solve`, which refuses a
    non-finite source (ConvergenceError) and a kernel component or a
    relative residual above `linop.SOLVABILITY_TOL` (SolvabilityError).
    The kernel components it measures for the four printed solvability
    conditions are kept in `solvability` ("b", "bd", "b3", "rho2"), and the
    relative residual of every field in `residuals`.
    """
    grid = gs.grid
    r = grid.nodes
    q = gs.Q.values
    mu = gs.mu
    q13 = np.cbrt(q)

    k0 = build_multipole_kernel(grid, 0).matrix
    k1 = build_multipole_kernel(grid, 1).matrix
    k2 = build_multipole_kernel(grid, 2).matrix

    lm0 = assemble_channel_operator(gs, "minus", 0)
    lm1 = assemble_channel_operator(gs, "minus", 1)
    lp0 = assemble_channel_operator(gs, "plus", 0)
    lp1 = assemble_channel_operator(gs, "plus", 1)
    lp2 = assemble_channel_operator(gs, "plus", 2)

    qprime = grid.d1_free(0) @ q
    lam_q = generator(grid, q)

    solvability = {}
    residuals = {}

    def solve(name, op, src, constraints=(), condition=None):
        x, defect, residuals[name] = _checked_solve(op, src, constraints)
        if condition is not None:
            solvability[condition] = defect
        return RadialField(grid, op.l, x)

    def deriv(vals, l):
        return grid.d1_free(l) @ vals

    # order b: the scaling mode sources the first imaginary correction
    S10 = solve("S10", lm0, lam_q, [q], "b")
    # order d: the translation mode (axial component)
    S01 = solve("S01", lm1, -qprime)

    s10 = S10.values
    s01 = S01.values

    # order b d
    src11 = (
        s01 - generator(grid, s01, 1) + deriv(s10, 0)
        + (4.0 / 3.0) * q13 * s10 * s01
        + 2.0 * mu * (k1 @ (s10 * s01)) * q
    )
    T11 = solve("T11", lp1, src11, [qprime], "bd")
    t11 = T11.values

    # order b^2
    src20 = (
        (2.0 / 3.0) * q13 * s10 ** 2 + s10 - generator(grid, s10, 0)
        + mu * (k0 @ (s10 ** 2)) * q
    )
    T20 = solve("T20", lp0, src20)
    t20 = T20.values

    # order d^2, split into the scalar and the quadrupole responses
    ds01 = deriv(s01, 1)
    src02_l0 = (
        ds01 / 3.0 + (2.0 / 3.0) * s01 / r
        + (2.0 / 9.0) * q13 * s01 ** 2
        + (mu / 3.0) * (k0 @ (s01 ** 2)) * q
    )
    src02_l2 = (
        (2.0 / 3.0) * (ds01 - s01 / r)
        + (4.0 / 9.0) * q13 * s01 ** 2
        + (2.0 * mu / 3.0) * (k2 @ (s01 ** 2)) * q
    )
    T02_l0 = solve("T02_l0", lp0, src02_l0)
    T02_l2 = solve("T02_l2", lp2, src02_l2)

    # order b^3
    q_floor = np.maximum(q, 1e-120)
    src30 = (
        (4.0 / 3.0) * q13 * t20 * s10
        + (2.0 / 3.0) * s10 ** 3 / np.cbrt(q_floor) ** 2
        + generator(grid, t20, 0) - 2.0 * t20
        + mu * (k0 @ (s10 ** 2)) * s10
        + 2.0 * mu * (k0 @ (q * t20)) * s10
    )
    S30 = solve("S30", lm0, src30, [q], "b3")
    s30 = S30.values

    # order b^4
    b1 = (k0 @ (2.0 * q * t20 + s10 ** 2)) * t20 + (k0 @ (t20 ** 2 + 2.0 * s10 * s30)) * q
    src40 = (
        -(4.0 / 3.0) * q13 * s10 * s30
        + (14.0 / 9.0) * q13 * t20 ** 2
        - (1.0 / 9.0) * (s10 ** 4 / np.cbrt(q_floor) ** 5 + 4.0 * t20 * s10 ** 2 / np.cbrt(q_floor) ** 2)
        + 3.0 * s30 - generator(grid, s30, 0)
        + mu * b1
    )
    T40 = solve("T40", lp0, src40)

    # order b^2 d
    b2 = (k0 @ (2.0 * q * t20 + s10 ** 2)) * s01 + (k1 @ (s10 * s01)) * s10
    src21 = (
        (4.0 / 3.0) * q13 * (t11 * s10 + t20 * s01)
        + 2.0 * s10 ** 2 * s01 / np.cbrt(q_floor) ** 2
        - 3.0 * t11 + generator(grid, t11, 1) - deriv(t20, 0)
        + mu * b2
    )
    S21 = solve("S21", lm1, src21)

    # dual functions for the phase direction
    rho1 = solve("rho1", lp0, s10)
    r1 = rho1.values
    src_rho2_b = (
        (4.0 / 3.0) * q13 * s10 * r1 + generator(grid, r1, 0) - 2.0 * t20
        + 2.0 * mu * (k0 @ (q * r1)) * s10
    )
    rho2_b = solve("rho2_b", lm0, src_rho2_b, [q], "rho2")
    src_rho2_d = (
        (4.0 / 3.0) * q13 * s01 * r1 + deriv(r1, 0) + t11
        + 2.0 * mu * (k0 @ (q * r1)) * s01
    )
    rho2_d = solve("rho2_d", lm1, src_rho2_d)

    e_mu = 0.5 * _pair(grid, lam_q, s10, 0)
    p_mu = 2.0 * _pair(grid, -qprime, s01, 1)
    if e_mu <= 0 or p_mu <= 0:
        raise ConvergenceError(
            "hierarchy fault: expansion constants must be positive",
            diagnostics={"e_mu": e_mu, "p_mu": p_mu},
        )

    return ProfileSet(
        gs=gs, S10=S10, S01=S01, T11=T11, T20=T20,
        T02_l0=T02_l0, T02_l2=T02_l2, S30=S30, T40=T40, S21=S21,
        rho1=rho1, rho2_b=rho2_b, rho2_d=rho2_d,
        e_mu=e_mu, p_mu=p_mu,
        solvability=solvability, residuals=residuals,
    )


# ---------------------------------------------------------------------------
# assembly and functionals on the (r, cos theta) product grid
# ---------------------------------------------------------------------------

def _channels(ps, b, d):
    q = ps.gs.Q.values
    ch0 = (q + b * b * ps.T20.values + b ** 4 * ps.T40.values
           + d * d * ps.T02_l0.values) \
        + 1j * (b * ps.S10.values + b ** 3 * ps.S30.values)
    ch1 = (b * d * ps.T11.values) + 1j * (d * ps.S01.values + b * b * d * ps.S21.values)
    return {0: ch0, 1: ch1}


def _on_product_grid(channels):
    total = 0.0
    for l, vals in channels.items():
        total = total + vals[:, None] * _PL[l][None, :]
    return total


def _project_channels(samples):
    """Project (n, n_c) samples onto Legendre factors P_0 .. P_2."""
    out = {}
    for l in range(len(_PL)):
        out[l] = (2 * l + 1) / 2.0 * np.sum(samples * (_CW * _PL[l])[None, :], axis=1)
    return out


def _hartree_on_grid(grid, dens_samples):
    """A(dens) evaluated on the product grid from its channel projections."""
    proj = _project_channels(dens_samples)
    pot = 0.0
    for l, g_l in proj.items():
        if np.max(np.abs(g_l)) == 0.0:
            continue
        kernel = build_multipole_kernel(grid, l).matrix
        pot = pot + (kernel @ g_l)[:, None] * _PL[l][None, :]
    return pot


def _derivatives_on_product_grid(grid, channels):
    """dR/dr and dR/dc (c = cos theta) of the l = 0, 1 profile, as P_1' = P_0."""
    dR_dr = _on_product_grid({l: grid.d1_free(l) @ vals for l, vals in channels.items()})
    return dR_dr, _on_product_grid({0: channels[1]})


def _functionals(grid, channels, mu):
    w = grid.weights
    r = grid.nodes
    R = _on_product_grid(channels)
    absR2 = _abs_sq(R)

    def integrate(samples):
        return float(2.0 * np.pi * np.sum(w[:, None] * _CW[None, :] * samples))

    mass = integrate(absR2)

    dR_dr, dR_dc = _derivatives_on_product_grid(grid, channels)
    grad2 = _abs_sq(dR_dr) + (1.0 - _CG ** 2)[None, :] * _abs_sq(dR_dc) / r[:, None] ** 2
    kinetic = integrate(grad2)

    p103 = integrate(absR2 ** (5.0 / 3.0))
    energy = _energy(kinetic, p103, mu, lambda: integrate(_hartree_on_grid(grid, absR2) * absR2))

    # axial momentum 2 int Re(R) d_1 Im(R)
    d1_im = np.real(dR_dr * -1j)   # Im of dR/dr
    dc_im = np.imag(dR_dc)
    dx1_im = _CG[None, :] * d1_im + (1.0 - _CG ** 2)[None, :] * dc_im / r[:, None]
    momentum = 2.0 * integrate(np.real(R) * dx1_im)
    return R, mass, energy, momentum


def check_profile_request(b, d):
    """Refuse, with ConfigurationError, (b, d) outside the box |b|, |d| <= PARAM_BOX
    that `assemble_R` and `residual_psi` serve; a NaN is refused too."""
    if not abs(b) <= PARAM_BOX or not abs(d) <= PARAM_BOX:
        raise ConfigurationError(
            f"parameters (b, d) = ({b}, {d}) outside the validity box {PARAM_BOX}"
        )


def assemble_R(ps, b, d):
    """Assemble the finite-parameter profile and its conserved quantities."""
    check_profile_request(b, d)
    grid = ps.grid
    channels = _channels(ps, b, d)
    R, mass, energy, momentum = _functionals(grid, channels, ps.gs.mu)
    core = grid.nodes <= 10.0
    ratio = np.max(np.abs(R[core, :]) / ps.gs.Q.values[core, None])
    return AssembledProfile(
        channels=channels, mass=mass, energy=energy, momentum=momentum,
        ratio_sup=float(ratio),
    )


def residual_psi(ps, b, d):
    """Residual of the self-similar profile equation for the assembled R.

    Returns (psi_samples, weighted_sup, weighted_sup_gradient): psi on the
    (r, cos theta) grid, and sup over r <= 20 of |psi| e^{r/2} (the window
    keeps the exponential weight inside the trustworthy dynamic range of
    the arithmetic).
    """
    check_profile_request(b, d)
    grid = ps.grid
    r = grid.nodes
    mu = ps.gs.mu
    channels = _channels(ps, b, d)
    R = _on_product_grid(channels)

    # analytic parameter derivatives of the polynomial family
    db = {
        0: (2 * b * ps.T20.values + 4 * b ** 3 * ps.T40.values)
           + 1j * (ps.S10.values + 3 * b * b * ps.S30.values),
        1: d * ps.T11.values + 1j * (2 * b * d * ps.S21.values),
    }
    dd = {
        0: 2 * d * ps.T02_l0.values + 0j,
        1: b * ps.T11.values + 1j * (ps.S01.values + b * b * ps.S21.values),
    }

    lap = _on_product_grid({l: grid.laplacian(l) @ vals for l, vals in channels.items()})
    lam = _on_product_grid({l: generator(grid, vals, l) for l, vals in channels.items()})
    dR_dr, dR_dc = _derivatives_on_product_grid(grid, channels)
    dx1 = _CG[None, :] * dR_dr + (1.0 - _CG ** 2)[None, :] * dR_dc / r[:, None]

    absR2 = _abs_sq(R)
    nonlin = absR2 ** (2.0 / 3.0) * R
    equation = (
        -1j * b * b * _on_product_grid(db)
        - 1j * b * d * _on_product_grid(dd)
        - lap - R + nonlin
        + 1j * b * lam - 1j * d * dx1
    )
    if mu != 0.0:
        equation = equation + mu * _hartree_on_grid(grid, absR2) * R
    psi = -equation

    mask = r <= 20.0
    weight = np.exp(0.5 * r[mask])[:, None]
    sup = float(np.max(np.abs(psi[mask, :]) * weight))

    # gradient bound, finite-differenced; one order looser by construction
    dpsi = np.gradient(psi, r, axis=0)
    sup_grad = float(np.max(np.abs(dpsi[mask, :]) * weight))
    return psi, sup, sup_grad


def invariant_expansions(ps):
    """Fit the leading mass/energy/momentum behavior over a parameter grid."""
    base = assemble_R(ps, 0.0, 0.0)
    e_rows, p_rows = [], []
    for b in _EXPANSION_SAMPLES:
        prof = assemble_R(ps, b, 0.0)
        e_rows.append((b, prof.energy))
    for d in _EXPANSION_SAMPLES:
        prof = assemble_R(ps, 0.0, d)
        p_rows.append((d, prof.momentum))

    bb = np.array([x for x, _ in e_rows])
    ee = np.array([y for _, y in e_rows])
    coef_e = np.linalg.lstsq(np.stack([bb ** 2, bb ** 4], axis=1), ee, rcond=None)[0]
    rem_e = ee - ps.e_mu * bb ** 2
    exp_e = float(np.polyfit(np.log(bb), np.log(np.abs(rem_e)), 1)[0])

    ddv = np.array([x for x, _ in p_rows])
    pp = np.array([y for _, y in p_rows])
    coef_p = np.linalg.lstsq(np.stack([ddv, ddv ** 3], axis=1), pp, rcond=None)[0]
    rem_p = pp - ps.p_mu * ddv
    exp_p = float(np.polyfit(np.log(ddv), np.log(np.abs(rem_p) + 1e-300), 1)[0])

    # the mass statement is a bound |M(b,d) - M(0,0)| <= K (b^4 + d^2); K is
    # fitted as the largest observed ratio and its spread shows how sharply
    # the two monomials capture the defect
    ratios = []
    for b in _EXPANSION_SAMPLES:
        for d in _EXPANSION_SAMPLES:
            prof = assemble_R(ps, b, d)
            ratios.append(abs(prof.mass - base.mass) / (b ** 4 + d ** 2))
    ratios = np.array(ratios)

    return {
        "energy_coefficient": float(coef_e[0]),
        "energy_vs_e_mu": float(coef_e[0] / ps.e_mu - 1.0),
        "energy_remainder_exponent": exp_e,
        "momentum_coefficient": float(coef_p[0]),
        "momentum_vs_p_mu": float(coef_p[0] / ps.p_mu - 1.0),
        "momentum_remainder_exponent": exp_p,
        "mass_defect_K": float(np.max(ratios)),
        "mass_ratio_spread": float(np.max(ratios) / max(np.min(ratios), 1e-300)),
        "momentum_at_zero_drift": float(assemble_R(ps, max(_EXPANSION_SAMPLES), 0.0).momentum),
    }
