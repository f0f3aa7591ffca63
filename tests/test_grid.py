import numpy as np
import pytest

import dcnls.grid
from dcnls.errors import ConfigurationError
from dcnls.grid import RadialField, apply_generator, build_grid, profile_interpolator
from dcnls.groundstate import mass_3d


@pytest.fixture(scope="module")
def grid():
    return build_grid(1024, 40.0, "tanh")


def test_staggered_uniform_lattice():
    g = build_grid(16, 1.0, "uniform")
    expected = (np.arange(16) + 0.5) / 16.0
    assert np.allclose(g.nodes, expected, rtol=0, atol=1e-15)
    assert g.nodes[0] > 0
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[-1] <= g.r_max


def test_build_grid_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        build_grid(8, 1.0, "uniform")
    with pytest.raises(ConfigurationError):
        build_grid(64, -1.0, "uniform")
    with pytest.raises(ConfigurationError):
        build_grid(64, 1.0, "exp")


@pytest.mark.parametrize("n, r_max", [(256.5, 40.0), (float("nan"), 40.0), (True, 40.0),
                                      (256, float("nan")), (256, float("inf")), (256, 1e300)])
def test_build_grid_refuses_before_any_numerical_work(monkeypatch, n, r_max):
    def no_map(*args):
        raise AssertionError("the grid map was evaluated")

    monkeypatch.setattr(dcnls.grid, "_stretch_functions", no_map)
    with pytest.raises(ConfigurationError):
        build_grid(n, r_max, "tanh")


def test_quadrature_of_one_is_ball_moment(grid):
    total = np.sum(grid.weights)
    assert abs(total - grid.r_max ** 3 / 3.0) <= 1e-10 * grid.r_max ** 3 / 3.0


def test_weights_positive(grid):
    assert np.all(grid.weights > 0)


def test_polynomial_moments_exact(grid):
    # design order: degree 5 against the r^2 dr measure
    for deg in range(6):
        val = np.sum(grid.weights * grid.nodes ** deg)
        exact = grid.r_max ** (deg + 3) / (deg + 3)
        assert abs(val - exact) <= 1e-13 * exact


def test_tanh_grading_concentrates_nodes():
    g = build_grid(4096, 40.0, "tanh")
    # oracle: the node density near r = 0 relative to the far field, from the map
    assert g.jac[-1] / g.jac[0] >= 4.0
    inside = np.sum(g.nodes <= 10.0) / g.n
    assert inside > 0.25  # more than the uniform share


def test_inner_product_unit_ball():
    # the 3-D inner product <1, 1> over the unit ball
    g = build_grid(256, 1.0, "uniform")
    assert abs(mass_3d(g, np.ones(g.n)) - 4 * np.pi / 3) <= 1e-12


def test_inner_product_gaussian(grid):
    val = mass_3d(grid, np.exp(-grid.nodes ** 2 / 2))
    assert abs(val - np.pi ** 1.5) <= 1e-10 * np.pi ** 1.5


def test_laplacian_of_constant_vanishes(grid):
    out = grid.laplacian(0) @ np.ones(grid.n)
    assert np.max(np.abs(out[grid.nodes < 35])) <= 1e-8


def test_laplacian_of_r_in_l1_vanishes(grid):
    out = grid.laplacian(1) @ grid.nodes
    assert np.max(np.abs(out[grid.nodes < 30])) <= 1e-6


def test_laplacian_of_gaussian(grid):
    r = grid.nodes
    out = grid.laplacian(0) @ np.exp(-r ** 2 / 2)
    exact = -(r ** 2 - 3) * np.exp(-r ** 2 / 2)
    mask = r < 10
    err = np.max(np.abs(out[mask] - exact[mask]))
    assert err <= 1e-8 * np.max(np.abs(exact))


def test_laplacian_symmetric_under_inner_product(grid):
    r = grid.nodes
    for l in (0, 1, 2):
        f = r ** l * np.exp(-r)
        g = r ** l * np.exp(-r ** 2 / 3) * (1 + r)
        s1 = np.sum(grid.weights * (grid.laplacian(l) @ f) * g)
        s2 = np.sum(grid.weights * f * (grid.laplacian(l) @ g))
        assert abs(s1 - s2) <= 1e-10 * max(abs(s1), 1e-30)


def test_laplacian_positive_semidefinite():
    g = build_grid(256, 40.0, "tanh")
    w = np.sqrt(g.weights)
    for l in (0, 1, 2):
        B = g.laplacian(l).toarray()
        B = (w[:, None] * B) / w[None, :]
        lam = np.linalg.eigvalsh(0.5 * (B + B.T))
        assert lam[0] >= 0.0


def test_derivative_annihilates_constants(grid):
    d1 = grid.d1_free(0)
    assert np.max(np.abs(d1 @ np.ones(grid.n))) <= 1e-12 / grid.core_spacing()
    # spec normalization: row sums vanish to 1e-12 relative to row scale
    row_scale = np.abs(d1).max()
    assert np.max(np.abs(d1 @ np.ones(grid.n))) <= 1e-12 * row_scale


@pytest.mark.parametrize("l", [0, 1])
def test_operators_are_canonical_csr(grid, l):
    # sorted and summed, so a complex copy sums each row in the same order:
    # its product with a complex vector has the real operator's bits
    u = np.exp(-grid.nodes) * (1.0 + 0.3j) + 0.1j * np.cos(grid.nodes)
    for op in (grid.d1_free(l), grid.laplacian(l)):
        assert op.format == "csr" and op.has_canonical_format
        assert np.array_equal(op.astype(complex) @ u, op @ u)


def test_generator_of_constant(grid):
    c = RadialField(grid, 0, np.ones(grid.n))
    out = apply_generator(c)
    assert np.max(np.abs(out.values - 1.5)) <= 1e-10


def test_generator_skew_adjoint(grid):
    r = grid.nodes
    f = RadialField(grid, 0, np.exp(-r) * (1 + r))
    g = RadialField(grid, 0, np.exp(-r ** 2 / 2) * r ** 2)
    w = grid.weights
    pair = np.sum(w * apply_generator(f).values * g.values)
    s = pair + np.sum(w * f.values * apply_generator(g).values)
    assert abs(s) <= 1e-8 * abs(pair)


def _channel_profiles(r):
    return [r ** l * np.exp(-r ** 2 / 4) * (1 + 0.3 * np.cos(r)) for l in (0, 1, 2)]


def test_profile_interpolator_matches_fitpack_oracle():
    from scipy.interpolate import UnivariateSpline

    g = build_grid(384, 40.0, "tanh")
    r = g.nodes
    # off-node samples: midpoints between nodes, and between 0 and the first node
    y = 0.5 * (np.concatenate([[-r[0]], r[:-1]]) + r)
    for l, f in enumerate(_channel_profiles(r)):
        rr = np.concatenate([-r[:6][::-1], r])
        vv = np.concatenate([(-1.0) ** l * f[:6][::-1], f])
        oracle = UnivariateSpline(rr, vv, k=5, s=0, ext=3)   # FITPACK, interpolating
        err = np.max(np.abs(profile_interpolator(g, f, l)(y) - oracle(y)))
        assert err <= 1e-9 * np.max(np.abs(f))


@pytest.mark.parametrize("n", [384, 1024])
def test_profile_interpolator_matches_make_interp_spline(n):
    # the same not-a-knot quintic as scipy's B-spline, in piecewise-polynomial form
    from scipy.interpolate import make_interp_spline

    g = build_grid(n, 40.0, "tanh")
    r = g.nodes
    y = np.concatenate([np.linspace(0.0, g.r_max, 2001),
                        0.5 * (np.concatenate([[-r[0]], r[:-1]]) + r)])
    for l, f in enumerate(_channel_profiles(r)):
        for values in (f, (1.0 - 0.5j) * f, np.column_stack([f, np.cos(r) * f])):
            rr = np.concatenate([-r[:6][::-1], r])
            vv = np.concatenate([(-1.0) ** l * values[:6][::-1], values])
            oracle = make_interp_spline(rr, vv, k=5)(y)
            got = profile_interpolator(g, values, l)(y)
            assert got.shape == oracle.shape
            assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(values))


def test_profile_interpolator_complex_stacked_and_tail():
    g = build_grid(384, 40.0, "tanh")
    r = g.nodes
    f0, f1, f2 = _channel_profiles(r)
    y = np.linspace(0.0, 1.2 * g.r_max, 1001)
    re, im = profile_interpolator(g, f0)(y), profile_interpolator(g, f2)(y)
    scale = np.max(np.abs(re + 1j * im))
    assert np.max(np.abs(profile_interpolator(g, f0 + 1j * f2)(y) - (re + 1j * im))) <= 1e-14 * scale
    stacked = profile_interpolator(g, np.column_stack([f0, f1, f2]))(y)
    assert stacked.shape == (y.size, 3)
    for k, f in enumerate((f0, f1, f2)):
        assert np.max(np.abs(stacked[:, k] - profile_interpolator(g, f)(y))) <= 1e-14 * scale
    beyond = y > g.r_max
    assert np.any(beyond) and np.all(stacked[beyond] == 0.0)


def test_laplacian_banded_matches_sparse():
    g = build_grid(64, 40.0, "tanh")
    for l in (0, 1, 2):
        lap = g.laplacian(l)
        ab = g.laplacian_banded(l)
        hw = ab.shape[0] // 2
        dense = np.zeros((g.n, g.n))
        for d in range(-hw, hw + 1):
            lo = max(d, 0)
            dense += np.diag(ab[hw - d, lo:lo + g.n - abs(d)], d)
        assert np.array_equal(dense, lap.toarray())


@pytest.mark.parametrize("l", [0, 1, 2])
def test_band_solver_matches_dense_solve(l):
    g = build_grid(256, 40.0, "tanh")
    r = g.nodes
    rhs = r ** l * np.exp(-r) * (1.0 + np.sin(3.0 * r))
    potential = 1.0 - 2.0 * np.exp(-r ** 2)
    # real a, b: band Cholesky; complex b, a Crank-Nicolson half: band LU
    for a, b, v in [(2.0, 0.7, potential), (1.0, 0.5j * 1e-3, potential), (1.0, 0.5j * 1e-3, None)]:
        dense = a * np.eye(g.n) + b * g.laplacian(l).toarray()
        if v is not None:
            dense += b * np.diag(v)
        exact = np.linalg.solve(dense, rhs)
        x = g.band_solver(l, a, b, v)(rhs)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_band_cholesky_certifies_the_shift():
    # L_{-,0} around Q_mu has the soliton as its zero mode, so L_{-,0} - sigma I
    # is positive definite for sigma = -1e-6 and indefinite for sigma = +1e-6
    from dcnls.errors import ConvergenceError
    from dcnls.groundstate import solve_Q_mu
    from dcnls.linop import assemble_channel_operator

    g = build_grid(256, 40.0, "tanh")
    op = assemble_channel_operator(solve_Q_mu(0.05, g), "minus", 0)
    potential = 1.0 + op.local_potential
    g.band_solver(0, 1e-6, 1.0, potential)
    for sigma in (1e-6, 0.1):
        with pytest.raises(ConvergenceError) as exc:
            g.band_solver(0, -sigma, 1.0, potential)
        assert exc.value.diagnostics["info"] > 0
        assert exc.value.diagnostics["a"] == -sigma
