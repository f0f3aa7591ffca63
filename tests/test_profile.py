import numpy as np
import pytest

from dcnls.errors import ConfigurationError
from dcnls.grid import RadialField, build_grid, generator
from dcnls.groundstate import solve_Q_mu, solve_classical_Q
from dcnls.linop import SOLVABILITY_TOL
from dcnls.profile import (
    assemble_R,
    build_hierarchy,
    invariant_expansions,
    residual_psi,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1024, 40.0, "tanh")


@pytest.fixture(scope="module")
def ps0(grid):
    return build_hierarchy(solve_classical_Q(grid))


@pytest.fixture(scope="module")
def ps_mu(grid):
    return build_hierarchy(solve_Q_mu(0.02, grid))


def test_solvability_inner_products(ps0, ps_mu):
    for ps in (ps0, ps_mu):
        for name, defect in ps.solvability.items():
            assert defect <= 1e-6, (name, defect)


@pytest.mark.parametrize("mu", [0.02, 0.05])
def test_hierarchy_builds_on_a_coarse_grid(mu):
    # the order-bd condition on L_+,1 reads 7.1e-9 and 7.5e-9 here, close to
    # the 1e-8 gate: the quadrature converges at second order, and its error
    # sets these solvability defects, which fall 4x per doubling of n
    ps = build_hierarchy(solve_Q_mu(mu, build_grid(256, 40.0, "tanh")))
    assert max(ps.solvability.values()) <= SOLVABILITY_TOL


def test_field_equation_residuals(ps0, ps_mu):
    for ps in (ps0, ps_mu):
        for name, res in ps.residuals.items():
            assert res <= 1e-7, (name, res)


def test_s10_orthogonal_to_soliton(grid, ps0):
    w = grid.weights
    val = np.sum(w * ps0.S10.values * ps0.gs.Q.values)
    scale = np.sqrt(np.sum(w * ps0.S10.values ** 2) * ps0.gs.mass)
    assert abs(val) <= 1e-10 * scale


def _w_norm(grid, f):
    return np.sqrt(np.sum(grid.weights * f * f))


def _w_fit(grid, f, basis):
    """Coefficients and residual of the W-weighted least-squares fit of f on `basis`."""
    sw = np.sqrt(grid.weights)
    b = np.column_stack(basis)
    coef = np.linalg.lstsq(sw[:, None] * b, sw * f, rcond=None)[0]
    return coef, f - b @ coef


# The pseudo-conformal symmetry maps e^{it} Q_mu to an exact blowup solution,
# at every mu, and pins the b-branch: S10 = -r^2 Q / 4 modulo the kernel,
# T20 = -r^4 Q / 32 modulo span{Q, r^2 Q, Lambda Q}, and S30 has r^6 Q / 384
# as its leading term.  Each bound is 10x the value measured at n = 1024.

@pytest.mark.parametrize("which, bound", [("ps0", 4.0e-8), ("ps_mu", 4.4e-8)],
                         ids=["mu0", "mu0.02"])
def test_s10_closed_form(grid, request, which, bound):
    # L_minus(r^2 Q) = -4 Lambda Q pins S10 = -r^2 Q / 4 modulo the kernel
    ps = request.getfixturevalue(which)
    q = ps.gs.Q.values
    w = grid.weights
    exact = -grid.nodes ** 2 * q / 4
    exact = exact - q * np.sum(w * q * exact) / np.sum(w * q * q)
    assert _w_norm(grid, ps.S10.values - exact) / _w_norm(grid, exact) <= bound


@pytest.mark.parametrize("which, bound", [("ps0", 3.3e-7), ("ps_mu", 3.4e-7)],
                         ids=["mu0", "mu0.02"])
def test_t20_closed_form(grid, request, which, bound):
    ps = request.getfixturevalue(which)
    q, r = ps.gs.Q.values, grid.nodes
    lead = r ** 4 * q / 32
    _, res = _w_fit(grid, ps.T20.values + lead, [q, r ** 2 * q, generator(grid, q)])
    assert _w_norm(grid, res) / _w_norm(grid, lead) <= bound


@pytest.mark.parametrize("which, bound", [("ps0", 9.8e-6), ("ps_mu", 1.1e-5)],
                         ids=["mu0", "mu0.02"])
def test_s30_leading_term(grid, request, which, bound):
    ps = request.getfixturevalue(which)
    q, r = ps.gs.Q.values, grid.nodes
    lam_q = generator(grid, q)
    coef, res = _w_fit(grid, ps.S30.values,
                       [r ** 6 * q, r ** 4 * q, r ** 2 * q, q, lam_q, r ** 2 * lam_q])
    assert abs(384.0 * coef[0] - 1.0) <= bound
    assert _w_norm(grid, res) / _w_norm(grid, ps.S30.values) <= 7.9e-7


def test_e0_closed_form(grid, ps0):
    q = ps0.gs.Q.values
    e0 = 0.125 * 4 * np.pi * np.sum(grid.weights * grid.nodes ** 2 * q ** 2)
    assert ps0.e_mu == pytest.approx(e0, rel=1e-6)


def test_constants_positive(ps0, ps_mu):
    for ps in (ps0, ps_mu):
        assert ps.e_mu > 0
        assert ps.p_mu > 0


@pytest.mark.parametrize("which, s01_bound, p_bound",
                         [("ps0", 4.6e-9, 8.3e-10), ("ps_mu", 5.3e-9, 1.1e-9)],
                         ids=["mu0", "mu0.02"])
def test_d_branch_closed_forms(grid, request, which, s01_bound, p_bound):
    # a Galilean boost multiplies Q by e^{i v.y/2}, whose first order is the
    # d direction: S01 = r Q / 2, and its momentum constant p_mu = M(Q)/2;
    # each bound is 10x the value measured at n = 1024
    ps = request.getfixturevalue(which)
    w = grid.weights
    exact = grid.nodes * ps.gs.Q.values / 2
    diff = ps.S01.values - exact
    assert np.sqrt(np.sum(w * diff ** 2) / np.sum(w * exact ** 2)) <= s01_bound
    assert abs(ps.p_mu / (ps.gs.mass / 2) - 1.0) <= p_bound


def test_mass_identity(grid, ps_mu):
    # -2 (Q, T20) = (S10, S10)
    w = grid.weights
    lhs = -2 * np.sum(w * ps_mu.gs.Q.values * ps_mu.T20.values)
    rhs = np.sum(w * ps_mu.S10.values ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_fields_decay_exponentially(ps_mu):
    # the weighted tail sup, sup over r >= r_from of |f| e^{r/2}, cannot grow with r_from
    r = ps_mu.grid.nodes

    def tail_sup(f, r_from):
        tail = r >= r_from
        return float(np.max(np.abs(f.values[tail]) * np.exp(0.5 * r[tail])))

    for f in ps_mu.fields().values():
        outer = tail_sup(f, 10.0)
        assert np.isfinite(outer)
        assert outer <= tail_sup(f, 5.0) * (1 + 1e-12)


def test_commutator_invariants(grid, ps_mu):
    # skew-adjointness of the generator and [-Delta, Lambda] = -2 Delta
    r = grid.nodes
    f = RadialField(grid, 0, np.exp(-r) * (1 + r))
    g = RadialField(grid, 0, np.exp(-r ** 2 / 2))
    lap = grid.laplacian(0)
    lf = lap @ generator(grid, f.values)
    fl = generator(grid, lap @ f.values)
    comm = RadialField(grid, 0, lf - fl)
    target = RadialField(grid, 0, 2.0 * (lap @ f.values))
    w = grid.weights
    num = np.sum(w * comm.values * g.values) - np.sum(w * target.values * g.values)
    assert abs(num) <= 1e-6 * abs(np.sum(w * target.values * g.values))
    # pointwise identity -(r Q') Q^{1/3} + Q^{1/3} Lambda Q = (3/2) Q^{4/3}
    q = ps_mu.gs.Q.values
    qp = grid.d1_free(0) @ q
    lamq = 1.5 * q + r * qp
    lhs = -(r * qp) * np.cbrt(q) + np.cbrt(q) * lamq
    rhs = 1.5 * np.abs(q) ** (4.0 / 3.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(rhs)


def test_rho2_source_orthogonality(ps_mu):
    assert ps_mu.solvability["rho2"] <= 1e-6


def test_assemble_at_origin_is_soliton(ps_mu):
    prof = assemble_R(ps_mu, 0.0, 0.0)
    assert np.array_equal(np.real(prof.channels[0]), ps_mu.gs.Q.values)
    assert np.all(np.imag(prof.channels[0]) == 0)
    assert np.all(prof.channels[1] == 0)


def test_assemble_rejects_outside_box(ps_mu):
    with pytest.raises(ConfigurationError):
        assemble_R(ps_mu, 0.5, 0.0)


@pytest.mark.parametrize("b, d", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)])
def test_non_finite_parameters_refused(ps_mu, b, d):
    with pytest.raises(ConfigurationError):
        assemble_R(ps_mu, b, d)
    with pytest.raises(ConfigurationError):
        residual_psi(ps_mu, b, d)


def test_pointwise_ratio_bounded_on_small_box(ps_mu):
    # |R| <= 2 Q on the core window for moderate parameters
    for b, d in ((0.1, 0.0), (0.0, 0.1), (0.07, 0.07)):
        prof = assemble_R(ps_mu, b, d)
        assert prof.ratio_sup <= 2.0


def test_momentum_vanishes_without_drift(ps_mu):
    prof = assemble_R(ps_mu, 0.15, 0.0)
    assert abs(prof.momentum) <= 1e-12 * max(abs(prof.mass), 1.0)


def test_residual_at_origin_is_solver_floor(ps_mu):
    _, sup, _ = residual_psi(ps_mu, 0.0, 0.0)
    assert sup <= 1e-7


def test_residual_scaling_in_b(ps_mu):
    _, s1, g1 = residual_psi(ps_mu, 0.1, 0.0)
    _, s2, g2 = residual_psi(ps_mu, 0.05, 0.0)
    assert 24.0 <= s1 / s2 <= 40.0
    assert 16.0 <= g1 / g2 <= 48.0    # one derivative, checked 10x looser


def test_residual_scaling_in_d(ps_mu):
    _, s1, _ = residual_psi(ps_mu, 0.0, 0.1)
    _, s2, _ = residual_psi(ps_mu, 0.0, 0.05)
    assert 3.4 <= s1 / s2 <= 4.6


def test_expansion_fits(ps_mu):
    rep = invariant_expansions(ps_mu)
    assert abs(rep["energy_vs_e_mu"]) <= 0.01
    assert abs(rep["momentum_vs_p_mu"]) <= 0.02
    assert rep["energy_remainder_exponent"] >= 3.5
    assert rep["momentum_remainder_exponent"] >= 1.5
    assert rep["mass_defect_K"] > 0
    assert abs(rep["momentum_at_zero_drift"]) <= 1e-12
