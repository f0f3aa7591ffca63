import functools
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from dcnls import hartree, linop
from dcnls.errors import ConvergenceError, GridMismatchError, SolvabilityError
from dcnls.grid import RadialField, apply_generator, build_grid, generator
from dcnls.groundstate import solve_Q_mu, solve_classical_Q
from dcnls.linop import (
    assemble_channel_operator,
    constrained_inverse_stats,
    linearize,
    lowest_eigenpairs,
    nondegeneracy_report,
    solve_with_constraints,
)
from dcnls.profile import build_hierarchy


@pytest.fixture(scope="module")
def grid():
    return build_grid(1024, 40.0, "tanh")


@pytest.fixture(scope="module")
def gs0(grid):
    return solve_classical_Q(grid)


@pytest.fixture(scope="module")
def gs_mu(grid):
    return solve_Q_mu(0.05, grid)


def test_operator_symmetry(grid_std, gs_std_mu05):
    # at working resolution the nonlocal block's quadrature defect sits well
    # below the symmetry budget
    r = grid_std.nodes
    for kind, l in (("minus", 0), ("plus", 0), ("plus", 1)):
        op = assemble_channel_operator(gs_std_mu05, kind, l)
        f = r ** l * np.exp(-r)
        g = r ** l * np.exp(-r ** 2 / 2) * (1 + r)
        s1 = np.sum(grid_std.weights * op.apply(f) * g)
        s2 = np.sum(grid_std.weights * f * op.apply(g))
        assert abs(s1 - s2) <= 1e-10 * abs(s1)


def test_minus_kind_has_no_nonlocal_block(gs_mu):
    op = assemble_channel_operator(gs_mu, "minus", 0)
    assert op.nonlocal_scale == 0.0


def test_algebraic_identities(gs0, gs_mu):
    keys = (("minus", 0), ("plus", 0), ("plus", 1))
    for gs, tol1, tol2 in ((gs0, 1e-7, 1e-6), (gs_mu, 1e-7, 1e-6)):
        ids = linop._identity_norms(gs, {key: assemble_channel_operator(gs, *key)
                                         for key in keys})
        assert ids["minus_on_Q"] <= tol1
        assert ids["plus1_on_Qprime"] <= tol2
        assert ids["plus0_on_LambdaQ_plus_2Q"] <= tol2


def test_minus_kernel_is_soliton(grid, gs_mu):
    spec = lowest_eigenpairs(assemble_channel_operator(gs_mu, "minus", 0), 3)
    assert abs(spec.eigenvalues[0]) <= 1e-10
    assert spec.eigenvalues[1] >= 1e-3
    q = gs_mu.Q.values / np.sqrt(np.sum(grid.weights * gs_mu.Q.values ** 2))
    cos = abs(np.sum(grid.weights * spec.eigenfields[0].values * q))
    assert cos >= 1 - 1e-6


def test_plus1_kernel_is_derivative(grid, gs_mu):
    # a first-order quadrature error in the kernel (a hard band cut) puts
    # the translation zero mode near 1e-8
    spec = lowest_eigenpairs(assemble_channel_operator(gs_mu, "plus", 1), 3)
    assert abs(spec.eigenvalues[0]) <= 1e-10
    assert spec.eigenvalues[1] >= 1e-3
    qp = grid.d1_free(0) @ gs_mu.Q.values
    psi = -qp / np.sqrt(np.sum(grid.weights * qp ** 2))
    cos = abs(np.sum(grid.weights * spec.eigenfields[0].values * psi))
    assert cos >= 1 - 1e-6
    # Perron-Frobenius: the ground eigenfield keeps one sign
    f = spec.eigenfields[0].values
    f = f * np.sign(f[np.argmax(np.abs(f))])
    assert np.min(f) >= -1e-6 * np.max(f)


@pytest.mark.parametrize("coupling", ["gs_std", "gs_std_mu02", "gs_std_mu05"])
def test_zero_modes_at_working_resolution(request, coupling):
    # the phase mode of L_-,0 and the translation mode of L_+,1 on the
    # n = 1536 grid, where a hard band cut in the kernel puts L_+,1 near 1e-8
    gs = request.getfixturevalue(coupling)
    for kind, l in (("minus", 0), ("plus", 1)):
        spec = lowest_eigenpairs(assemble_channel_operator(gs, kind, l), 1)
        assert abs(spec.eigenvalues[0]) <= 1e-10, (kind, l)


def test_plus_high_channels_positive(gs_mu):
    for l in (2, 3, 4):
        spec = lowest_eigenpairs(assemble_channel_operator(gs_mu, "plus", l), 2)
        assert spec.eigenvalues[0] > 1e-6


def test_plus0_gap_and_single_negative(gs0):
    spec = lowest_eigenpairs(assemble_channel_operator(gs0, "plus", 0), 6)
    vals = spec.eigenvalues
    assert not np.any(np.abs(vals) <= 1e-6)
    # classical-linearization oracle fact: exactly one negative direction
    assert int(np.sum(vals < -1e-6)) == 1


def test_minus_coercive_off_kernel(grid, gs_mu):
    spec = lowest_eigenpairs(assemble_channel_operator(gs_mu, "minus", 0), 3)
    # measured positivity constant of L_minus on the soliton's complement
    assert spec.eigenvalues[1] > 0.1


def test_eigenfields_orthonormal(grid, gs_mu):
    spec = lowest_eigenpairs(assemble_channel_operator(gs_mu, "plus", 0), 5)
    for i in range(5):
        for j in range(i, 5):
            val = np.sum(grid.weights * spec.eigenfields[i].values * spec.eigenfields[j].values)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


@pytest.mark.parametrize("coupling", ["gs0", "gs_mu"])
def test_lowest_eigenpairs_match_dense_oracle(request, coupling):
    # a dense eigensolve of the symmetrised balanced matrix sees every low
    # eigenvalue, so none may be missing from the shift-invert result
    gs = request.getfixturevalue(coupling)
    w = np.sqrt(gs.grid.weights)
    for key in [("minus", 0)] + [("plus", l) for l in range(5)]:
        op = assemble_channel_operator(gs, *key)
        spec = lowest_eigenpairs(op, 6)
        balanced = w[:, None] * _dense_operator(op) / w[None, :]
        vals, vecs = sla.eigh(0.5 * (balanced + balanced.T), subset_by_index=[0, 5])
        assert np.max(np.abs(spec.eigenvalues - vals)) <= 1e-9, key
        for field, vec in zip(spec.eigenfields, vecs.T):
            cosine = abs(np.sum(gs.grid.weights * field.values * vec / w))
            assert cosine >= 1.0 - 1e-9, key


def test_lowest_eigenpairs_are_deterministic(gs_mu):
    first, second = (lowest_eigenpairs(assemble_channel_operator(gs_mu, "plus", 0), 6)
                     for _ in range(2))
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    for a, b in zip(first.eigenfields, second.eigenfields):
        assert np.array_equal(a.values, b.values)


def _eigensolve_diagnostics(exc, op):
    diag = exc.value.diagnostics
    assert (diag["kind"], diag["l"], diag["mu"]) == (op.kind, op.l, op.mu)
    return diag


def test_failed_shift_invert_factor_is_typed(gs_mu, monkeypatch):
    # a negative bound lifts sigma above L_+,0's lowest eigenvalue, about
    # -4.73, so B - sigma I is indefinite and the core leaf's Cholesky fails
    monkeypatch.setattr(hartree.HodlrMatrix, "dressed_row_sum_bound", lambda self, d: -50.0)
    op = assemble_channel_operator(gs_mu, "plus", 0)
    with pytest.raises(ConvergenceError) as exc:
        lowest_eigenpairs(op, 6)
    diag = _eigensolve_diagnostics(exc, op)
    assert diag["sigma"] > -4.7
    assert diag["opinv_calls"] == 0      # the factor fails before the first apply
    assert diag["leaf"] == "0:256"
    assert 1 <= diag["info"] <= 256      # LAPACK's first leading minor that is not positive


def test_unconverged_lanczos_is_typed(gs_mu, monkeypatch):
    monkeypatch.setattr(spla, "eigsh", functools.partial(spla.eigsh, maxiter=1, ncv=7))
    op = assemble_channel_operator(gs_mu, "plus", 0)
    with pytest.raises(ConvergenceError) as exc:
        lowest_eigenpairs(op, 6)
    diag = _eigensolve_diagnostics(exc, op)
    assert diag["sigma"] < -4.8       # below L_+,0's negative eigenvalue, about -4.7
    assert diag["opinv_calls"] >= 1


def _assert_shifted_inverse_matches_dense(op):
    grid = op.grid
    w = np.sqrt(grid.weights)
    sigma = linop._spectral_shift(op)
    balanced = w[:, None] * _dense_operator(op) / w[None, :]
    shifted = 0.5 * (balanced + balanced.T) - sigma * np.eye(grid.n)
    rhs = np.random.default_rng(op.l).standard_normal(grid.n)
    x = linop._shifted_inverse(op, sigma, {})(rhs)
    assert np.linalg.norm(shifted @ x - rhs) <= 1e-12 * np.linalg.norm(rhs), op.l
    ref = np.linalg.solve(shifted, rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), op.l


@pytest.fixture(scope="module")
def gs_384():
    return solve_Q_mu(0.05, build_grid(384, 40.0, "tanh"))


@pytest.mark.parametrize("l", range(3))
def test_spectral_shift_lies_below_the_spectrum(gs_384, l):
    op = assemble_channel_operator(gs_384, "plus", l)
    w = np.sqrt(op.grid.weights)
    balanced = w[:, None] * _dense_operator(op) / w[None, :]
    assert linop._spectral_shift(op) < sla.eigvalsh(0.5 * (balanced + balanced.T))[0]


@pytest.mark.parametrize("l", range(5))
def test_shifted_inverse_matches_dense_solve(gs_384, l):
    # n = 384 bisects once: two leaves and one recompressed pair
    _assert_shifted_inverse_matches_dense(assemble_channel_operator(gs_384, "plus", l))


def test_shifted_inverse_node_has_the_kernel_rank_plus_held_rows(gs_384, monkeypatch):
    # the far part of N is s D1 S D1, one rank-r product for the node, so the
    # block recompressed for its update has r columns plus one per row of its
    # band corner, at most _REACH of them; both mirror blocks' factors would
    # give 2 r plus those rows
    op = assemble_channel_operator(gs_384, "plus", 0)
    (_, u, _), = linop.build_multipole_kernel(gs_384.grid, 0).matrix.nodes.values()
    widths, sizes = [], []
    recompress, lu_solver = linop._recompress, linop._lu_solver

    def recorded(left, right):
        widths.append(left.shape[1])
        return recompress(left, right)

    def capacitance(matrix, diagnostics):
        sizes.append(matrix.shape[0])
        return lu_solver(matrix, diagnostics)

    monkeypatch.setattr(linop, "_recompress", recorded)
    monkeypatch.setattr(linop, "_lu_solver", capacitance)
    linop._shifted_inverse(op, linop._spectral_shift(op), {})
    (width,), (size,) = widths, sizes
    assert u.shape[1] < width <= u.shape[1] + hartree._REACH
    assert size <= 2 * width


def test_shifted_inverse_of_one_leaf_matches_dense_solve(gs_384, monkeypatch):
    # the one-leaf kernel of the truncation test below has no off-diagonal block
    grid = gs_384.grid
    monkeypatch.setattr(hartree, "_LEAF", grid.n)
    fill = hartree._hodlr_kernel(grid, 0)
    assert len(fill.leaves) == 1 and not fill.nodes
    monkeypatch.setattr(linop, "build_multipole_kernel",
                        lambda grid, l: SimpleNamespace(matrix=fill))
    _assert_shifted_inverse_matches_dense(assemble_channel_operator(gs_384, "plus", 0))


def test_hodlr_truncation_leaves_plus_spectra_unmoved(grid_std, gs_std_mu05, monkeypatch):
    # each kernel block is truncated in the plain norm, not the W-balanced
    # frame of the spectra; against the dense fill on the same Q that moves
    # the plus-channel eigenvalues by rounding-sized amounts only
    for l in range(5):
        op = assemble_channel_operator(gs_std_mu05, "plus", l)
        compressed = lowest_eigenpairs(op, 6).eigenvalues
        with monkeypatch.context() as m:
            m.setattr(hartree, "_LEAF", grid_std.n)     # one leaf: the dense fill
            fill = hartree._hodlr_kernel(grid_std, l)
            m.setattr(linop, "build_multipole_kernel",
                      lambda grid, l: SimpleNamespace(matrix=fill))
            dense = lowest_eigenpairs(op, 6).eigenvalues
        assert np.max(np.abs(dense - compressed)) <= 1e-9, l


def test_constrained_solve_roundtrip(grid, gs0):
    lm = assemble_channel_operator(gs0, "minus", 0)
    src = apply_generator(gs0.Q)
    x = solve_with_constraints(lm, src, [gs0.Q])
    back = lm.apply(x.values)
    rel = np.sqrt(np.sum(grid.weights * (back - src.values) ** 2)
                  / np.sum(grid.weights * src.values ** 2))
    assert rel <= 1e-8
    w, q = grid.weights, gs0.Q.values
    assert abs(np.sum(w * x.values * q)) <= 1e-10 * np.sqrt(
        np.sum(w * x.values ** 2) * np.sum(w * q ** 2))


def _dense_operator(op):
    """Reference: the channel operator as a dense n x n matrix, on the kernel
    `linop` builds."""
    mat = op.local.toarray()
    if op.nonlocal_scale != 0.0:
        kernel = linop.build_multipole_kernel(op.grid, op.l).matrix.toarray()
        mat += op.nonlocal_scale * op.soliton[:, None] * kernel * op.soliton[None, :]
    return mat


def _dense_bordered_solve(op, rhs, constraints):
    """Reference: the full (n+k)^2 bordered matrix, solved densely; returns x."""
    grid = op.grid
    n, k = grid.n, len(constraints)
    mat = np.zeros((n + k, n + k))
    mat[:n, :n] = _dense_operator(op)
    for j, c in enumerate(constraints):
        mat[:n, n + j] = c
        mat[n + j, :n] = grid.weights * c
    return sla.solve(mat, np.concatenate([rhs, np.zeros(k)]))[:n]


def _w_rel(grid, x, ref):
    return np.sqrt(np.sum(grid.weights * (x - ref) ** 2) / np.sum(grid.weights * ref ** 2))


def test_bordered_solve_matches_dense_oracle(grid, gs_mu):
    r = grid.nodes
    w = grid.weights
    q = gs_mu.Q.values
    qprime = grid.d1_free(0) @ q
    src1 = r * np.exp(-r)
    src1 = src1 - qprime * np.sum(w * qprime * src1) / np.sum(w * qprime ** 2)
    cases = (
        ("minus", 0, generator(grid, q), [q]),
        ("plus", 0, np.exp(-r) * (1 + r), []),
        ("plus", 1, src1, [qprime]),
    )
    for kind, l, src, cons in cases:
        op = assemble_channel_operator(gs_mu, kind, l)
        x = solve_with_constraints(op, RadialField(grid, l, src), cons).values
        ref = _dense_bordered_solve(op, src, cons)
        assert _w_rel(grid, x, ref) <= 1e-10, (kind, l)

    # a two-row border, [Q, Lambda Q], with the nonlocal block
    op = assemble_channel_operator(gs_mu, "plus", 0)
    cons = [q, generator(grid, q)]
    x = op.solve(np.exp(-r), cons)
    assert x.shape == (grid.n,)
    assert _w_rel(grid, x, _dense_bordered_solve(op, np.exp(-r), cons)) <= 1e-10
    for c in cons:
        assert abs(np.sum(w * c * x)) <= 1e-10 * np.sqrt(np.sum(w * c ** 2) * np.sum(w * x ** 2))


@pytest.mark.parametrize("coupling", ["gs_std", "gs_std_mu05"])
def test_bordered_factor_is_band_sized_and_accurate(request, coupling, monkeypatch):
    # the constraint row is never promoted into the local block, so L + U keeps
    # the band's fill plus the border, against about 440 n with partial pivoting
    gs = request.getfixturevalue(coupling)
    grid = gs.grid
    r, w, q = grid.nodes, grid.weights, gs.Q.values
    qprime = grid.d1_free(0) @ q
    factors = []
    splu = spla.splu

    def kept(matrix, **kwargs):
        factors.append((matrix, splu(matrix, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(spla, "splu", kept)
    for kind, l, src, con in (("minus", 0, generator(grid, q), q),
                              ("plus", 1, r * np.exp(-r), qprime)):
        src = src - con * np.sum(w * con * src) / np.sum(w * con ** 2)
        assemble_channel_operator(gs, kind, l).solve(src, [con])
        matrix, lu = factors[-1]
        assert lu.L.nnz + lu.U.nnz <= 16 * grid.n, (kind, l)
        rhs = np.concatenate([src, [0.0]])
        ref = sla.solve(matrix.toarray(), rhs)
        assert np.linalg.norm(lu.solve(rhs) - ref) <= 2e-12 * np.linalg.norm(ref), (kind, l)


def test_gmres_inner_steps_stay_within_the_documented_bound(monkeypatch):
    # ChannelOperator.solve documents at most nine inner steps per solve; a
    # fresh grid, so no cached ground state skips the Newton solves
    steps = []
    gmres = spla.gmres

    def counted(*args, **kwargs):
        count = [0]

        def tick(_):
            count[0] += 1

        out = gmres(*args, callback=tick, callback_type="pr_norm", **kwargs)
        steps.append(count[0])
        return out

    monkeypatch.setattr(spla, "gmres", counted)
    grid = build_grid(1536, 40.0, "tanh")
    for mu in (0.02, 0.05):
        steps.clear()
        gs = solve_Q_mu(mu, grid)
        newton = list(steps)
        steps.clear()
        build_hierarchy(gs)
        assert newton and max(newton) <= 9, (mu, newton)
        assert steps and max(steps) <= 9, (mu, steps)


def test_unconverged_bordered_solve_is_typed():
    small = build_grid(16, 40.0, "tanh")
    r = small.nodes
    op = linearize(small, 2.0 * np.exp(-r), 0.05, "plus", 0)
    with pytest.raises(ConvergenceError) as exc:
        op.solve(np.exp(-r), rtol=1e-30)
    assert exc.value.diagnostics["gmres_info"] != 0


def test_unconverged_bordered_solve_fails_fast():
    g = build_grid(256, 40.0, "tanh")
    r = g.nodes
    op = linearize(g, 2.0 * np.exp(-r), 0.05, "plus", 0)
    started = time.perf_counter()
    with pytest.raises(ConvergenceError):
        op.solve(np.exp(-r), rtol=1e-30)
    assert time.perf_counter() - started <= 5.0


def test_solvability_violation_detected(grid, gs0):
    lm = assemble_channel_operator(gs0, "minus", 0)
    src = apply_generator(gs0.Q)
    polluted = RadialField(grid, 0, src.values + 0.05 * gs0.Q.values)
    with pytest.raises(SolvabilityError) as exc:
        solve_with_constraints(lm, polluted, [gs0.Q])
    assert exc.value.diagnostics["defect"] > 1e-8


def test_fields_from_another_grid_are_refused(monkeypatch):
    # another n used to fail in numpy broadcasting, and another r_max at the
    # same n in the solvability gate, as if the source were not solvable
    g = build_grid(256, 40.0, "tanh")
    gs = solve_classical_Q(g)
    op = assemble_channel_operator(gs, "minus", 0)
    src = apply_generator(gs.Q)
    monkeypatch.setattr(linop, "_checked_solve", None)     # refused before any work
    for other in (build_grid(128, 40.0, "tanh"), build_grid(256, 30.0, "tanh")):
        foreign = RadialField(other, 0, generator(other, np.exp(-other.nodes)))
        with pytest.raises(GridMismatchError, match="another grid"):
            solve_with_constraints(op, foreign, [gs.Q])
        with pytest.raises(GridMismatchError, match="another grid"):
            solve_with_constraints(op, src, [RadialField(other, 0, np.exp(-other.nodes))])


def test_raw_constraints_of_another_shape_are_refused(monkeypatch):
    # a sample array of the wrong length or rank used to fail in numpy
    # broadcasting inside the solvability gate
    g = build_grid(256, 40.0, "tanh")
    gs = solve_classical_Q(g)
    op = assemble_channel_operator(gs, "minus", 0)
    src = apply_generator(gs.Q)
    monkeypatch.setattr(linop, "_checked_solve", None)     # refused before any work
    for bad in (np.ones(200), np.ones((256, 2)), np.ones((1, 256))):
        with pytest.raises(GridMismatchError, match="one value per node"):
            solve_with_constraints(op, src, [gs.Q.values, bad])


def test_only_the_bordered_solve_takes_a_sparse_lu(gs_std_mu05, monkeypatch):
    # an unbordered solve is one band LU; a bordered one is one sparse LU
    grid = gs_std_mu05.grid
    r, q = grid.nodes, gs_std_mu05.Q.values
    calls = []
    splu = spla.splu

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    for kind, l in (("minus", 1), ("plus", 0), ("plus", 2)):
        op = assemble_channel_operator(gs_std_mu05, kind, l)
        x = op.solve(r ** l * np.exp(-r))
        assert calls == [], (kind, l)
        assert np.max(np.abs(op.apply(x) - r ** l * np.exp(-r))) <= 1e-8 * np.max(r ** l * np.exp(-r))
    qprime = grid.d1_free(0) @ q
    for kind, l, con in (("minus", 0, q), ("plus", 1, qprime)):     # S10's and T11's borders
        calls.clear()
        assemble_channel_operator(gs_std_mu05, kind, l).solve(r ** l * np.exp(-r), [con])
        assert calls == [(grid.n + 1, grid.n + 1)], (kind, l)


def test_non_finite_source_is_refused(grid, gs0):
    op = assemble_channel_operator(gs0, "plus", 0)
    src = np.exp(-grid.nodes)
    src[grid.n // 2] = np.nan
    with pytest.raises(ConvergenceError):
        solve_with_constraints(op, RadialField(grid, 0, src), [])


@pytest.mark.parametrize("factor, accepted", [(0.3, True), (3.0, False)])
def test_kernel_component_gate_is_the_manifest_bound(grid, gs0, factor, accepted):
    from dcnls.cli import _tolerances

    w = grid.weights
    q = gs0.Q.values
    qn = q / np.sqrt(np.sum(w * q ** 2))
    src = generator(grid, q)
    src -= qn * np.sum(w * qn * src)
    src /= np.sqrt(np.sum(w * src ** 2))
    # a unit source whose kernel cosine with the soliton is `defect` to O(defect^3)
    defect = factor * _tolerances()["profile_solvability"]
    polluted = RadialField(grid, 0, src + defect * qn)
    lm = assemble_channel_operator(gs0, "minus", 0)
    if accepted:
        solve_with_constraints(lm, polluted, [gs0.Q])
    else:
        with pytest.raises(SolvabilityError) as exc:
            solve_with_constraints(lm, polluted, [gs0.Q])
        assert exc.value.diagnostics["defect"] == pytest.approx(defect, rel=1e-3)


def test_nondegeneracy_report_passes(gs_mu):
    rep = nondegeneracy_report(gs_mu)
    assert rep["status"] == "PASSED"
    assert rep["failures"] == []
    assert rep["channels"][("plus", 0)]["negative_count"] == 1


def test_nondegeneracy_classical_kernels(gs0):
    rep = nondegeneracy_report(gs0)
    assert rep["status"] == "PASSED"
    assert rep["channels"][("minus", 0)]["kernel_dim"] == 1
    assert rep["channels"][("plus", 1)]["kernel_dim"] == 1
    assert rep["channels"][("plus", 0)]["kernel_dim"] == 0


def test_constrained_inverse_resolution_stable(gs_mu):
    stats1 = constrained_inverse_stats(gs_mu)
    g2 = build_grid(2048, 40.0, "tanh")
    stats2 = constrained_inverse_stats(solve_Q_mu(0.05, g2))
    assert stats1["h2_amplification"] == pytest.approx(stats2["h2_amplification"], rel=0.05)
    assert stats1["weighted_amplification"] == pytest.approx(
        stats2["weighted_amplification"], rel=0.05
    )
    assert stats1["pointwise_domination"] == pytest.approx(
        stats2["pointwise_domination"], rel=0.05
    )
    assert np.isfinite(stats1["weighted_amplification"])
