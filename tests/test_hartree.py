import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

from dcnls import hartree
from dcnls.errors import ConfigurationError, GridMismatchError, QuadratureError
from dcnls.grid import RadialField, build_grid
from dcnls.hartree import (
    brute_force_oracle,
    build_multipole_kernel,
    calibrate_channel_coefficient,
    hartree_apply,
    nonlinear_potential,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1024, 40.0, "tanh")


def _oracle_error(field, exact):
    """Largest relative error of the 3-D oracle at the calibration nodes."""
    r = field.grid.nodes
    idx = [int(np.argmin(np.abs(r - p))) for p in hartree._ORACLE_RADII]
    vals = brute_force_oracle(field, r[idx])
    return np.max(np.abs(vals - exact[idx]) / np.abs(exact[idx]))


def test_gaussian_against_dawson_form(grid):
    # A(exp(-|y|^2)) = 2 pi^{3/2} F(r)/r with F the Dawson function
    r = grid.nodes
    dens = RadialField(grid, 0, np.exp(-r ** 2))
    out = hartree_apply(grid, dens.values)
    exact = 2 * np.pi ** 1.5 * dawsn(r) / r
    err = np.max(np.abs(out - exact)[r < 30]) / np.max(np.abs(exact))
    assert err <= 5e-7
    # a hard band cut in the near field would leave a first-order error of 4e-8
    assert np.max(np.abs(out - exact)[r < 25]) <= 1e-11 * np.max(np.abs(exact))
    assert _oracle_error(dens, exact) <= 1e-10


def test_gaussian_at_origin(grid):
    f = RadialField(grid, 0, np.exp(-grid.nodes ** 2))
    v = brute_force_oracle(f, [1e-9, 0.0])
    assert v == pytest.approx(2 * np.pi ** 1.5, rel=1e-6)


def test_unit_ball_values():
    g = build_grid(2048, 8.0, "uniform")       # cell edge exactly at rho = 1
    out = hartree_apply(g, (g.nodes < 1.0).astype(float))
    assert out[0] == pytest.approx(4 * np.pi, rel=1e-4)
    # far field approaches the monopole ||f||_L1 / r^2
    mass = 4 * np.pi / 3
    i = np.argmin(np.abs(g.nodes - 7.0))
    assert out[i] == pytest.approx(mass / g.nodes[i] ** 2, rel=1e-2)
    # exact 1-D reference away from the support
    for R in (2.0, 4.0):
        i = np.argmin(np.abs(g.nodes - R))
        Rn = g.nodes[i]
        v, _ = quad(lambda rho: (2 * np.pi / Rn) * rho * np.log((Rn + rho) / abs(Rn - rho)), 0, 1)
        assert out[i] == pytest.approx(v, rel=1e-5)


def test_oracle_unit_ball():
    g = build_grid(512, 4.0, "uniform")
    ind = RadialField(g, 0, (g.nodes < 1.0).astype(float))
    v = brute_force_oracle(ind, [1e-9, 10.0], feature_radii=(1.0,))
    assert v[0] == pytest.approx(4 * np.pi, rel=1e-6)
    assert v[1] == pytest.approx((4 * np.pi / 3) / 100, rel=1e-2)


def test_oracle_reports_nonconvergence():
    g = build_grid(256, 4.0, "uniform")
    # a rough density with an unannounced kink converges poorly
    f = RadialField(g, 0, np.maximum(0.0, 1.0 - g.nodes) ** 0.5)
    with pytest.raises(QuadratureError) as exc:
        brute_force_oracle(f, [0.7])
    assert exc.value.diagnostics["error_estimate"] is not None
    # a NaN estimate is a failure, not a value
    with pytest.raises(QuadratureError):
        brute_force_oracle(lambda d: np.full_like(d, np.nan), [0.7])


def test_oracle_cross_check_on_soliton_like_density(grid):
    # agreement between the kernel route and the 3-D quadrature oracle
    r = grid.nodes
    dens = RadialField(grid, 0, (2.2 * np.exp(-r) / (1 + r)) ** 2)
    out = hartree_apply(grid, dens.values)
    idx = [int(np.argmin(np.abs(r - p))) for p in (0.5, 1.0, 2.0, 4.0, 8.0)]
    vals = brute_force_oracle(dens, r[idx])
    for i, v in zip(idx, vals):
        assert out[i] == pytest.approx(v, rel=1e-4)


def test_channel_l0_matches_hartree_apply(grid):
    r = grid.nodes
    f = RadialField(grid, 0, np.exp(-r ** 2 / 2) * (1 + r))
    kernel = build_multipole_kernel(grid, 0)
    a = kernel.matrix @ f.values
    b = hartree_apply(grid, f.values)
    assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(b))


@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_nonlinear_potential_is_the_one_v(monkeypatch, mu):
    # V(u) = |u|^{4/3} + mu A(|u|^2) from one |u|^2 = re^2 + im^2; at mu = 0
    # A comes back as None and no kernel is applied
    g = build_grid(256, 40.0, "tanh")
    r = g.nodes
    u = (1.0 + 0.5j * r) * np.exp(-r) / (1.0 + r) * np.exp(0.3j * r ** 2)
    ref = np.abs(u) ** (4.0 / 3.0) + mu * hartree_apply(g, np.abs(u) ** 2)
    calls = []
    apply = hartree.HodlrMatrix.__matmul__

    def counted(self, x):
        calls.append(1)
        return apply(self, x)

    monkeypatch.setattr(hartree.HodlrMatrix, "__matmul__", counted)
    pot, dens, hart = nonlinear_potential(g, u, mu)
    assert len(calls) == (0 if mu == 0.0 else 1)
    assert np.array_equal(dens, u.real ** 2 + u.imag ** 2)
    np.testing.assert_allclose(pot, ref, rtol=1e-14, atol=0)
    if mu == 0.0:
        assert hart is None
    else:
        assert np.array_equal(hart, hartree_apply(g, dens))


def test_channel_l1_against_dawson_form(grid):
    # density x1 exp(-|x|^2) has channel-1 profile rho exp(-rho^2); its
    # convolution is -(1/2) d/dr [2 pi^{3/2} F(r)/r]
    r = grid.nodes
    k1 = build_multipole_kernel(grid, 1)
    dens = RadialField(grid, 1, r * np.exp(-r ** 2))
    out = k1.matrix @ dens.values
    F = dawsn(r)
    exact = -np.pi ** 1.5 * ((1 - 2 * r * F) / r - F / r ** 2)
    err = np.max(np.abs(out - exact)[r < 25]) / np.max(np.abs(exact))
    assert err <= 1e-6
    assert err <= 1e-11
    assert _oracle_error(dens, exact) <= 1e-10


def test_channel_l2_against_dawson_form(grid):
    r = grid.nodes
    k2 = build_multipole_kernel(grid, 2)
    dens = RadialField(grid, 2, (2.0 / 3.0) * r ** 2 * np.exp(-r ** 2))
    out = k2.matrix @ dens.values
    F = dawsn(r)
    Fp = 1 - 2 * r * F
    Fpp = -2 * F - 2 * r * Fp
    Tp = 2 * np.pi ** 1.5 * (Fp / r - F / r ** 2)
    Tpp = 2 * np.pi ** 1.5 * (Fpp / r - 2 * Fp / r ** 2 + 2 * F / r ** 3)
    exact = (Tpp - Tp / r) / 6.0
    err = np.max(np.abs(out - exact)[r < 25]) / np.max(np.abs(exact))
    assert err <= 1e-6
    # below r = 0.2 the closed form cancels to a few digits
    core = (r > 0.2) & (r < 25)
    assert np.max(np.abs(out - exact)[core]) <= 1e-11 * np.max(np.abs(exact))
    assert _oracle_error(dens, exact) <= 1e-10


def test_channel_zero_in_zero_out(grid):
    k1 = build_multipole_kernel(grid, 1)
    assert np.all(k1.matrix @ np.zeros(grid.n) == 0.0)


@pytest.mark.parametrize("l", [1.5, 2.0, np.nan, True, -1, 8])
def test_channel_must_be_a_tabulated_integer(grid, l):
    with pytest.raises(ConfigurationError):
        build_multipole_kernel(grid, l)


def test_calibrated_coefficients():
    for n, r_max, bound in ((512, 20.0, 1e-5), (1536, 40.0, 2e-7)):
        g = build_grid(n, r_max, "tanh")
        for l in (0, 1, 2):
            rep = calibrate_channel_coefficient(g, l)
            assert rep["coefficient"] == pytest.approx(2 * np.pi)
            assert abs(rep["fitted_ratio"] - 1.0) <= bound
            assert rep["ratio_spread"] <= bound


def test_linearity_positivity_monotonicity(grid):
    r = grid.nodes
    f = np.exp(-r ** 2)
    g2 = np.exp(-r ** 2 / 2)
    Af = hartree_apply(grid, f)
    Ag = hartree_apply(grid, g2)
    Asum = hartree_apply(grid, 2 * f + 3 * g2)
    assert np.allclose(Asum, 2 * Af + 3 * Ag, rtol=1e-12, atol=1e-13)
    assert np.all(Af > 0)
    # f <= g pointwise implies A(f) <= A(g)
    assert np.all(Af <= Ag + 1e-12)


def test_symmetry_of_A(grid):
    r = grid.nodes
    f = np.exp(-r)
    g2 = np.exp(-r ** 2 / 3) * (1 + r ** 2)
    k0 = build_multipole_kernel(grid, 0).matrix
    s1 = np.sum(grid.weights * (k0 @ f) * g2)
    s2 = np.sum(grid.weights * f * (k0 @ g2))
    assert abs(s1 - s2) <= 1e-8 * abs(s1)


def test_hls_quotient_scale_invariant(grid):
    r = grid.nodes

    def quotient(width):
        u = np.exp(-r ** 2 / (2 * width ** 2))
        Au = hartree_apply(grid, u ** 2)
        num = 4 * np.pi * np.sum(grid.weights * Au * u ** 2)
        du = grid.d1_free(0) @ u
        grad2 = 4 * np.pi * np.sum(grid.weights * du ** 2)
        mass = 4 * np.pi * np.sum(grid.weights * u ** 2)
        return num / (grad2 * mass)

    q1, q2 = quotient(1.0), quotient(1.25)
    assert abs(q1 - q2) <= 1e-8 * q1


@pytest.mark.parametrize("l", range(hartree._L_MAX_TABLE))
def test_g_ratio_matches_legendre_q(l):
    # g_l(t) = Q_l((t + 1/t)/2) / t against 40-digit Legendre functions from
    # 1e-4 to 0.9999, densest just past the series cut, where the forward
    # recurrence starts; g_0 takes its closed form throughout
    mpmath = pytest.importorskip("mpmath")
    t = np.concatenate((np.geomspace(1e-4, 0.44, 16), np.linspace(0.45, 0.9999, 56)))
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.legenq(l, 0, (1 / mpmath.mpf(x) + x) / 2, type=3).real / x)
                          for x in t])
    assert np.max(np.abs(hartree._g_ratio(l, t) / exact - 1.0)) <= 1e-13


@pytest.mark.parametrize("l", range(1, hartree._L_MAX_TABLE))
def test_trimmed_series_matches_the_untrimmed_one(l):
    # each channel's series stops where its terms at its own cut fall below
    # 1e-21; just below the cut it agrees with all _SERIES_TERMS terms to 1 ulp
    cut = hartree._CUTS[l]
    t = np.append(np.nextafter(cut, 0.0), cut * (1.0 - np.geomspace(1e-15, 1e-2, 8)))
    assert np.all(t < cut)
    full = np.zeros_like(t)
    for beta in hartree._series_table()[l][::-1]:
        full = full * t * t + beta
    full *= t ** l
    assert hartree._BETA[l].size < hartree._SERIES_TERMS
    assert np.all(np.abs(hartree._g_ratio(l, t) - full) <= np.spacing(full))


@pytest.mark.parametrize("l", [0, 7])
def test_near_field_gauss_rule_is_converged(monkeypatch, l):
    # the off-diagonal cells' Gauss rule sits at the rounding floor of a 32-point one
    g = build_grid(1024, 40.0, "tanh")
    near = hartree._near_field(g, l)
    monkeypatch.setattr(hartree, "_GAUSS", hartree._gauss_tables(32))
    fine = hartree._near_field(g, l)
    assert abs(near - fine).max() <= 3e-13 * abs(fine).max()


def _one_leaf(monkeypatch, n, l):
    """The dense oracle: a kernel build whose single leaf is the whole fill."""
    with monkeypatch.context() as m:
        m.setattr(hartree, "_LEAF", n)
        return hartree._hodlr_kernel(build_grid(n, 40.0, "tanh"), l).toarray()


@pytest.mark.parametrize("l", range(5))
def test_row_block_fill_matches_single_block(monkeypatch, l):
    """The near field filled in row chunks has the bits of one whole-block fill.

    Neither n is a multiple of the row chunk, so the last chunk is partial;
    at n = 260 it is narrower than the band.  Bit equality relies on BLAS
    giving each output row of a matmul the same bits whatever the number of
    rows, which holds for the builds tested here but is no BLAS guarantee.
    """
    for n in (700, 260):
        blocked = _one_leaf(monkeypatch, n, l)
        with monkeypatch.context() as m:
            m.setattr(hartree, "_ROWS", n)
            whole = _one_leaf(monkeypatch, n, l)
        assert np.array_equal(blocked, whole), n


def _band_to_dense(band):
    """The n x n near field held in `band`, whose entry (i, j) sits at
    [i, reach + j - i]; its slots off the matrix must hold 0."""
    n, width = band.shape
    reach = width // 2
    i = np.broadcast_to(np.arange(n)[:, None], band.shape)
    j = i + np.arange(-reach, reach + 1)
    inside = (j >= 0) & (j < n)
    assert np.all(band[~inside] == 0.0)
    dense = np.zeros((n, n))
    dense[i[inside], j[inside]] = band[inside]
    return dense


@pytest.mark.parametrize("l", range(5))
def test_near_field_hugs_the_diagonal(l):
    # every correction to the pointwise far field sits within the window's
    # cells and their stencils, _BAND + 3 of the diagonal, so blocks away
    # from it are exactly k(r_i, rho_j) w_j; the band is no wider than that
    # reach, and its outermost upper diagonal is used
    g = build_grid(700, 40.0, "tanh")
    band = hartree._near_field(g, l)
    assert band.shape == (g.n, 2 * (hartree._BAND + 3) + 1)
    assert np.count_nonzero(_band_to_dense(band)) > 0
    assert np.count_nonzero(band[:, -1]) > 0


def test_kernel_build_makes_no_dense_temporaries():
    n = 2048
    g = build_grid(n, 40.0, "tanh")
    tracemalloc.start()
    try:
        build_multipole_kernel(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense fill alone would be n*n*8 bytes, a dense mirrored pair half of
    # it; the build's traced peak is about 8.1 MiB, 0.25 of the bound
    assert peak <= 0.5 * n * n * 8


@pytest.mark.parametrize("l", [0, 2])
def test_kernel_build_evaluates_no_whole_off_diagonal_block(monkeypatch, l):
    # the leaves' upper triangles (n * _LEAF / 2 entries) and the near-field
    # quadratures take about 0.34 n^2 at n = 2048, and the whole build
    # 0.375 n^2 at l = 0; filling every off-diagonal block once more would
    # add 0.44 n^2
    n = 2048
    g = build_grid(n, 40.0, "tanh")
    evaluated = []
    exact = hartree._kernel_values

    def counting(l, r, rho):
        evaluated.append(np.broadcast(r, rho).size)
        return exact(l, r, rho)

    monkeypatch.setattr(hartree, "_kernel_values", counting)
    build_multipole_kernel(g, l)
    assert sum(evaluated) <= 0.45 * n * n


def test_incompressible_block_raises(monkeypatch):
    # a symmetric kernel that jumps where max(r, rho) = 2 min(r, rho) has
    # off-diagonal blocks of full rank, which no cross approximation compresses
    exact = hartree._kernel_values

    def jump(l, r, rho):
        return exact(l, r, rho) * (1.0 + 0.5 * (np.maximum(r, rho) > 2.0 * np.minimum(r, rho)))

    monkeypatch.setattr(hartree, "_kernel_values", jump)
    with pytest.raises(QuadratureError, match="did not converge") as exc:
        build_multipole_kernel(build_grid(600, 40.0, "tanh"), 0)
    assert exc.value.diagnostics["error_estimate"] > hartree._CHECK_TOL


def test_sample_check_catches_a_truncated_cross(monkeypatch):
    # dropping the last crosses leaves errors far above the check's bound
    cross = hartree._cross

    def truncated(*args):
        u, v = cross(*args)
        return u[:, :-6], v[:, :-6]

    monkeypatch.setattr(hartree, "_cross", truncated)
    with pytest.raises(QuadratureError, match="sampled entries") as exc:
        build_multipole_kernel(build_grid(600, 40.0, "tanh"), 0)
    assert exc.value.diagnostics["error_estimate"] > hartree._CHECK_TOL


def test_kernel_build_frees_the_dense_fill():
    # a dense fill kept alive (say by a reference cycle) would stay resident
    n = 2048
    g = build_grid(n, 40.0, "tanh")
    tracemalloc.start()
    try:
        kernel = build_multipole_kernel(g, 0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current <= 0.4 * n * n * 8
    assert kernel.matrix.nbytes <= 0.4 * n * n * 8


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("l", range(hartree._L_MAX_TABLE))
def test_hodlr_kernel_matches_dense_fill(monkeypatch, l):
    n = 1536
    dense = _one_leaf(monkeypatch, n, l)
    kernel = build_multipole_kernel(build_grid(n, 40.0, "tanh"), l).matrix
    assert kernel.shape == (n, n)
    rng = np.random.default_rng(l)
    x = rng.standard_normal(n)
    out = kernel @ x
    assert out.shape == x.shape and out.dtype == x.dtype
    assert _rel(out, dense @ x) <= 1e-12
    assert np.max(np.abs(kernel.toarray() - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert kernel.nbytes < 0.5 * dense.nbytes


def _dense_row_sum(matrix, d):
    """The largest absolute row sum of sym(diag(d) K diag(d / w)), densely."""
    dressed = d[:, None] * matrix.toarray() * (d / matrix.weights)[None, :]
    return np.max(np.sum(np.abs(dressed + dressed.T), axis=1)) / 2


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("n", [257, 1025])
def test_row_sum_bound_is_tight_on_the_kernel(n, l):
    # 257 and 1025 bisect into unequal halves
    g = build_grid(n, 40.0, "tanh")
    kernel = hartree._hodlr_kernel(g, l)
    d = np.sqrt(g.weights) * np.exp(-g.nodes)
    dense = _dense_row_sum(kernel, d)
    assert dense <= kernel.dressed_row_sum_bound(d) <= 1.01 * dense


@pytest.mark.parametrize("rank", [1, 6])
def test_row_sum_bound_holds_for_any_signs(rank):
    # random signed leaves, factors, band and d on a tree of unequal halves:
    # the bound may not rest on the kernel's signs.  At rank 1, |U| |V|^T is
    # |U V^T|, so the leaves and the band are not hidden by the factors' slack
    n = 601
    rng = np.random.default_rng(rank)
    leaves, splits = hartree._bisection(n)
    held = [(a, b, rng.standard_normal((b - a) * (b - a + 1) // 2)) for a, b in leaves]
    nodes = {(a, b): (m, np.asfortranarray(rng.standard_normal((m - a, rank))),
                      np.asfortranarray(rng.standard_normal((b - m, rank))))
             for a, m, b in splits}
    band = rng.standard_normal((2 * hartree._REACH + 1, n))
    matrix = hartree.HodlrMatrix(rng.uniform(0.5, 2.0, n), held, nodes, band)
    d = rng.standard_normal(n)
    assert matrix.dressed_row_sum_bound(d) >= _dense_row_sum(matrix, d)


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("n, leaf", [(257, None), (777, None), (1025, None), (300, 300)])
def test_packed_apply_matches_dense_on_any_tree(monkeypatch, n, leaf, l):
    # 257, 777 and 1025 bisect into leaves and level blocks of unequal
    # shapes (1025: leaves of 256, 256, 256, 128 and 129); leaf = n is a
    # tree of one leaf
    if leaf is not None:
        monkeypatch.setattr(hartree, "_LEAF", leaf)
    kernel = hartree._hodlr_kernel(build_grid(n, 40.0, "tanh"), l)
    dense = kernel.toarray()
    x = np.random.default_rng(n + l).standard_normal(n)
    out = kernel @ x
    assert out.shape == x.shape and out.dtype == x.dtype
    assert _rel(out, dense @ x) <= 1e-14


@pytest.mark.parametrize("x", [np.ones(300, dtype=complex), np.ones((300, 2)), np.ones(299)],
                         ids=["complex", "stacked", "short"])
def test_kernel_product_takes_one_real_vector(x):
    kernel = build_multipole_kernel(build_grid(300, 40.0, "tanh"), 0).matrix
    with pytest.raises(GridMismatchError, match="not a real vector of length 300"):
        kernel @ x


@pytest.mark.parametrize("n", [256, 1025])
def test_kernel_product_calls_blas_once_per_leaf_and_four_times_per_node(monkeypatch, n):
    # 1025 bisects into unequal halves; 256 is a tree of one leaf
    kernel = build_multipole_kernel(build_grid(n, 40.0, "tanh"), 0).matrix
    calls = {"dspmv": 0, "dgbmv": 0, "dgemv": 0}

    def counting(name):
        blas = getattr(hartree, name)

        def call(*args):
            calls[name] += 1
            return blas(*args)
        return call

    for name in calls:
        monkeypatch.setattr(hartree, name, counting(name))
    x = np.random.default_rng(n).standard_normal(n)
    assert _rel(kernel @ x, kernel.toarray() @ x) <= 1e-14
    assert calls == {"dspmv": len(kernel.leaves), "dgbmv": 1, "dgemv": 4 * len(kernel.nodes)}


@pytest.mark.parametrize("l", range(5))
def test_kernel_factors_are_held_once(l):
    # the leaves are views into one packed buffer, and every node's factors
    # are their own Fortran-ordered arrays, which dgemv reads without a copy;
    # holding both mirror images of every block and both triangles of every
    # leaf took 4.37 MB here
    kernel = build_multipole_kernel(build_grid(1536, 40.0, "tanh"), l).matrix
    buffer = kernel.leaves[0][2].base
    assert all(packed.base is buffer for _, _, packed in kernel.leaves)
    own = kernel.band.nbytes + buffer.nbytes
    for _, u, v in kernel.nodes.values():
        for f in (u, v):
            assert f.flags.f_contiguous and f.flags.owndata
            own += f.nbytes
    assert kernel.nbytes == own
    assert kernel.nbytes <= 0.6 * 4.37e6


@pytest.mark.parametrize("n", [100, 256])
def test_small_kernel_is_one_dense_leaf(n):
    # reference assembled here from the two parts: far field plus near field;
    # the product sums S (w x) and B x apart, so it matches to rounding only
    g = build_grid(n, 40.0, "tanh")
    r = g.nodes
    dense = hartree._kernel_values(1, r[:, None], r[None, :]) * g.weights
    np.fill_diagonal(dense, 0.0)
    dense += _band_to_dense(hartree._near_field(g, 1))
    kernel = build_multipole_kernel(g, 1).matrix
    assert len(kernel.leaves) == 1 and not kernel.nodes
    assert np.array_equal(kernel.toarray(), dense)
    x = np.random.default_rng(0).standard_normal(n)
    assert _rel(kernel @ x, dense @ x) <= 1e-14


@pytest.mark.parametrize("n", [100, 256, 1025])
def test_kernel_is_symmetric_far_field_times_weights_plus_band(n):
    # S holds k_l(r_i, r_j) with 0 on the diagonal, symmetric to the bit, and
    # K = S diag(w) + B entry for entry; 1025 bisects into unequal halves
    g = build_grid(n, 40.0, "tanh")
    kernel = hartree._hodlr_kernel(g, 1)
    far = kernel._far_array()
    assert np.array_equal(far, far.T)
    assert np.all(np.diag(far) == 0.0)
    assert np.array_equal(kernel.toarray(),
                          far * g.weights + _band_to_dense(hartree._near_field(g, 1)))


def test_kernel_compression_is_reproducible():
    # the cross approximation's pivots and the recompression are
    # deterministic, so rebuilding on a fresh grid repeats every bit
    first = build_multipole_kernel(build_grid(1536, 40.0, "tanh"), 0).matrix.toarray()
    second = build_multipole_kernel(build_grid(1536, 40.0, "tanh"), 0).matrix.toarray()
    assert np.array_equal(first, second)
