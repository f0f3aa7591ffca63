"""Linearized operators around the soliton, their spectra, and constrained solves.

Each spherical-harmonic channel carries a pair of one-dimensional operators:

    minus kind:  (-Delta)_l + 1 - Q^{4/3} - mu A(Q^2)
    plus  kind:  (-Delta)_l + 1 - 7/3 Q^{4/3} - mu A(Q^2) - 2 mu A_l(Q .) Q

A `ChannelOperator` holds the sparse local part (the channel Laplacian plus
a diagonal) and, for the plus kind at mu != 0, the nonlocal channel block:
the channel kernel (a HODLR matrix, see `hartree`) dressed with the
exponentially decaying soliton on both sides.
Every linear solve goes through `ChannelOperator.solve`, which borders the
local part with W-weighted constraint rows and factors it with a sparse LU
whose fill stays that of the band plus the border.
Without a nonlocal block that factor is the solve; with one it
preconditions GMRES on the full bordered operator.  Newton steps and the
profile hierarchy both use it, and the bordering keeps discrete
orthogonality to the constraints exact.
A constrained solve (`solve_with_constraints`, and every hierarchy solve in
`profile`) passes one gate, `_checked_solve`: a non-finite source raises
ConvergenceError, and a kernel component or a relative residual above
SOLVABILITY_TOL raises SolvabilityError, the discrete face of the
solvability conditions.
Spectra are those of the symmetrised similarity transform
B = sym(W^{1/2} M W^{-1/2}), computed by shift-invert Lanczos from a shift
below the spectrum.  The shift bounds the local part from below by the
least of 1 + potential + l(l+1)/r^2, and the symmetric nonlocal block N
by its largest absolute row sum, ||N||_2 <= ||N||_inf, which the triangle
inequality bounds from the kernel's held parts whatever their signs.  The
inverse is the band Cholesky of the shifted balanced local part
(`RadialGrid.band_solver`, whose success proves that part positive
definite) or, with a nonlocal block, one direct factor of
the whole shifted operator on the kernel's HODLR block tree, whose dense
leaf Cholesky and capacitance LU factors call LAPACK through
`grid._cholesky_solver` and `grid._lu_solver`, so each Lanczos step is one
solve and no n x n matrix is built.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, ConvergenceError, GridMismatchError, SolvabilityError
from .grid import (RadialField, _check_integer, _cholesky_solver, _lu_solver, generator,
                   h2_norm_3d)
from .hartree import (_L_MAX_TABLE, _recompress, _unpacked, build_multipole_kernel,
                      nonlinear_potential)

__all__ = [
    "ChannelOperator",
    "SpectrumReport",
    "assemble_channel_operator",
    "check_spectrum_request",
    "linearize",
    "lowest_eigenpairs",
    "solve_with_constraints",
    "nondegeneracy_report",
    "constrained_inverse_stats",
]

ZERO_TOL = 1e-6      # an eigenvalue is "zero" iff |lambda| <= ZERO_TOL ...
GAP_TOL = 1e-3       # ... and the next one exceeds GAP_TOL

L_MAX = 4
MAX_EIGENPAIRS = 10  # lowest_eigenpairs serves 1 .. MAX_EIGENPAIRS eigenpairs
SOLVABILITY_TOL = 1e-8   # kernel component and residual bound of a constrained solve
EIGSH_TOL = 1e-10        # ARPACK's relative tolerance on the shift-inverted Ritz values


@dataclass(eq=False)
class ChannelOperator:
    """One channel of the linearization: sparse local part plus optional W_l block."""

    kind: str
    l: int
    mu: float
    grid: object
    soliton: np.ndarray
    local_potential: np.ndarray          # diagonal beyond (-Delta)_l + 1
    nonlocal_scale: float                # -2 mu for the plus kind, else 0
    local: sp.csc_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.local = (self.grid.laplacian(self.l)
                      + sp.diags(1.0 + self.local_potential)).tocsc()

    def _nonlocal(self, values):
        kernel = build_multipole_kernel(self.grid, self.l).matrix
        return self.nonlocal_scale * self.soliton * (kernel @ (self.soliton * values))

    def apply(self, values):
        out = self.local @ values
        if self.nonlocal_scale != 0.0:
            out += self._nonlocal(values)
        return out

    def solve(self, rhs, constraints=(), rtol=1e-11):
        """Solve the bordered system [[M, C], [(W C)^T, 0]] [x; y] = [rhs; 0].

        C holds the constraint profiles as columns, so x is W-orthogonal to
        each of them; returns x (the multipliers y are dropped).  The sparse
        LU of the bordered matrix A orders the unknowns by minimum degree on
        A^T + A, which puts the dense border last, and keeps the diagonal as
        pivot unless it is below 1e-4 of its column.  So the constraint row
        is promoted, if at all, only near the end of the elimination, where
        it meets the near-kernel of a singular M such as L_{-,0}, and L + U
        holds about 14 n nonzeros (full partial pivoting promoted it hundreds
        of columns early: about 440 n).  A Schur complement through a band
        factor of M would divide by that near-kernel's pivot, so the border
        stays in the factor.  The price is that near pivot: a source's
        component along M's near-kernel, which `_checked_solve` caps at
        SOLVABILITY_TOL, moves the factor's x by about 1e-4 of that
        component relative (n = 1536), so a gated solve stays within 2e-12
        of a dense solve.
        With a nonlocal block, GMRES stops at relative residual `rtol` and
        raises ConvergenceError if it cannot get there within four restart
        cycles of 20 inner steps.  Across the test suite and the benchmark
        workloads the solves take at most two cycles (the second re-checks
        the true residual) and nine inner steps, so one that needs more has
        failed; `test_gmres_inner_steps_stay_within_the_documented_bound`
        pins the nine at n = 1536.
        """
        n = self.grid.n
        k = len(constraints)
        if k:
            cols = np.column_stack(constraints)
            border = sp.bmat(
                [[self.local, sp.csc_matrix(cols)],
                 [sp.csc_matrix((self.grid.weights[:, None] * cols).T), None]],
                format="csc",
            )
        else:
            border = self.local
        full_rhs = np.concatenate([rhs, np.zeros(k)])
        lu = spla.splu(border, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-4)
        if self.nonlocal_scale == 0.0:
            return lu.solve(full_rhs)[:n]

        def matvec(x):
            out = border @ x
            out[:n] += self._nonlocal(x[:n])
            return out

        shape = (n + k, n + k)
        sol, info = spla.gmres(
            spla.LinearOperator(shape, matvec=matvec), full_rhs,
            M=spla.LinearOperator(shape, matvec=lu.solve),
            rtol=rtol, atol=0.0, restart=20, maxiter=4,
        )
        if info != 0:
            raise ConvergenceError(
                "bordered GMRES solve did not converge",
                diagnostics={"gmres_info": info, "kind": self.kind, "l": self.l,
                             "mu": self.mu, "rtol": rtol},
            )
        return sol[:n]


@dataclass(eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    eigenfields: list


def linearize(grid, q, mu, kind, l):
    """L_{kind,l} around the profile q at coupling mu."""
    pot, dens, _ = nonlinear_potential(grid, q, mu)
    if kind == "plus":
        pot = pot + (4.0 / 3.0) * np.cbrt(dens) ** 2
    return ChannelOperator(
        kind=kind,
        l=l,
        mu=mu,
        grid=grid,
        soliton=q,
        local_potential=-pot,
        nonlocal_scale=(-2.0 * mu if kind == "plus" and mu != 0.0 else 0.0),
    )


def assemble_channel_operator(gs, kind, l):
    """Build L_{+,l} or L_{-,l} around the given ground state."""
    if kind not in ("plus", "minus"):
        raise ConfigurationError(f"kind must be 'plus' or 'minus', got {kind!r}")
    _check_integer("channel index", l)
    return linearize(gs.grid, gs.Q.values, gs.mu, kind, l)


def _spectral_shift(op):
    """The shift sigma of `lowest_eigenpairs`, a lower bound on the spectrum of B.

    (-Delta)_l is the flux-form stiffness plus the diagonal l(l+1)/r^2, and
    W times the stiffness part is symmetric PSD, so lambda_min(B_loc) >=
    min(1 + local potential + l(l+1)/r^2).  N is symmetric, so ||N||_2 is at
    most its largest absolute row sum, which is at most |s| times
    `HodlrMatrix.dressed_row_sum_bound(D1)`: D1 K D2 = D1 K D1 / W.  So
    B - sigma I and B_loc - sigma I are SPD.
    """
    sigma = float(np.min(1.0 + op.local_potential + op.l * (op.l + 1) / op.grid.nodes ** 2))
    if op.nonlocal_scale != 0.0:
        kernel = build_multipole_kernel(op.grid, op.l).matrix
        d1 = np.sqrt(op.grid.weights) * op.soliton
        sigma -= abs(op.nonlocal_scale) * kernel.dressed_row_sum_bound(d1)
    return sigma


def _shifted_inverse(op, sigma, diagnostics):
    """The solve of B - sigma I for the plus kind at mu != 0, by one direct
    factor on the kernel's own HODLR block tree (recursive Sherman-Morrison-
    Woodbury; Ambikasaran and Darve 2013).

    B = B_loc + N with N = (s/2)(D1 K D2 + D2 K^T D1).  The kernel is
    K = S W + B_near with S symmetric, and W D2 = D1, so the far part of N
    is s D1 S D1, HODLR on the kernel's bisection, and the dressed band
    (s/2)(D1 B_near D2 + D2 B_near^T D1) joins the sparse B_loc.  A diagonal
    leaf is the dense B_loc leaf plus s D1 S D1 minus sigma I, factored by
    Cholesky; a principal submatrix of an SPD matrix is SPD, so a failed
    leaf Cholesky raises ConvergenceError with LAPACK's `info`, the order
    of the leaf's first leading minor that is not positive.  The upper
    block of a node is s (D1 U)(D1 V)^T plus the corner of B_loc, whose
    rows that hold entries join as unit and row columns; `_recompress`
    makes it Z_top Z_bottom^T, of rank at most the kernel block's rank r
    plus those rows, and B's symmetry gives the lower block.  With
    Z = diag(Z_top, Z_bottom), C = [[0, I], [I, 0]] and D the two children,
    B - sigma I = D + Z C Z^T, so each node keeps Y = D^{-1} Z and an LU of
    the capacitance matrix C + Z^T Y.  Both factors call LAPACK directly
    (`grid._cholesky_solver`, `grid._lu_solver`).
    """
    kernel = build_multipole_kernel(op.grid, op.l).matrix
    n = op.grid.n
    w = np.sqrt(op.grid.weights)
    d1, d2 = w * op.soliton, op.soliton / w
    scale = op.nonlocal_scale
    i, j, near = kernel._band_entries()
    dressed = sp.csr_matrix((d1[i] * near * d2[j], (i, j)), shape=(n, n))
    b_loc = sp.diags(w) @ op.local @ sp.diags(1.0 / w)
    b_loc = (0.5 * (b_loc + b_loc.T) + 0.5 * scale * (dressed + dressed.T)).tocsr()
    leaves = {(a, b): packed for a, b, packed in kernel.leaves}

    def factor(a, b):
        if (a, b) in leaves:
            dense = (b_loc[a:b, a:b].toarray()
                     + scale * d1[a:b, None] * _unpacked(leaves[a, b], b - a) * d1[a:b])
            dense[np.diag_indices(b - a)] -= sigma
            return _cholesky_solver(dense, {**diagnostics, "leaf": f"{a}:{b}"})
        m, u, v = kernel.nodes[a, b]
        corner = b_loc[a:m, m:b]
        held = np.flatnonzero(np.diff(corner.indptr))
        unit = np.zeros((m - a, held.size))
        unit[held, np.arange(held.size)] = 1.0
        z_top, z_bottom = _recompress(np.hstack((scale * d1[a:m, None] * u, unit)),
                                      np.hstack((d1[m:b, None] * v, corner[held].toarray().T)))
        solve_top, solve_bottom = factor(a, m), factor(m, b)
        y_top, y_bottom = solve_top(z_top), solve_bottom(z_bottom)
        rank = z_top.shape[1]
        eye = np.eye(rank)
        solve_capacitance = _lu_solver(
            np.block([[z_top.T @ y_top, eye], [eye, z_bottom.T @ y_bottom]]),
            {**diagnostics, "node": f"{a}:{b}"})

        def solve(x):
            top, bottom = solve_top(x[:m - a]), solve_bottom(x[m - a:])
            t = solve_capacitance(np.concatenate((z_top.T @ top, z_bottom.T @ bottom)))
            return np.concatenate((top - y_top @ t[:rank], bottom - y_bottom @ t[rank:]))
        return solve

    return factor(0, n)


def lowest_eigenpairs(op, k):
    """The k lowest eigenpairs; eigenfields are W-orthonormal RadialFields,
    oriented positive where their amplitude peaks.

    They are those of the balanced operator B = sym(W^{1/2} M W^{-1/2}) =
    B_loc + N: B_loc is the sparse balanced local part and N, for the plus
    kind at mu != 0, the symmetrised dressed kernel (s/2)(D1 K D2 + D2 K^T D1)
    with D1 = W^{1/2} q, D2 = q W^{-1/2} and s the nonlocal scale.  No n x n
    array is built.  Shift-invert Lanczos (ARPACK) runs on (B - sigma I)^{-1}
    with the shift sigma = min(1 + local potential + l(l+1)/r^2) minus
    |s| times a bound on the absolute row sums of D1 K D2's symmetric part,
    a lower bound on the spectrum (`_spectral_shift`), so the k eigenvalues
    nearest sigma are the k lowest.  The inverse is the band Cholesky of
    B_loc - sigma I or, with N, one direct HODLR factor of B - sigma I
    (`_shifted_inverse`); either raises ConvergenceError unless its Cholesky
    factors exist.  That B - sigma I is positive definite rests on the
    bound ||N||_2 <= ||N||_inf, the largest absolute row sum, which holds
    for any symmetric N.
    ARPACK stops at relative tolerance EIGSH_TOL and starts from the fixed
    vector W^{1/2} e^{-r}, so reruns agree bitwise.  A failed factor or
    ARPACK iteration raises ConvergenceError.
    """
    _check_integer("eigenpair count k", k, 1, MAX_EIGENPAIRS)
    n = op.grid.n
    w = np.sqrt(op.grid.weights)
    r = op.grid.nodes
    sigma = _spectral_shift(op)
    diagnostics = {"kind": op.kind, "l": op.l, "mu": op.mu, "sigma": sigma, "opinv_calls": 0}
    if op.nonlocal_scale != 0.0:
        shifted_solve = _shifted_inverse(op, sigma, diagnostics)
    else:
        local_solve = op.grid.band_solver(op.l, -sigma, 1.0, 1.0 + op.local_potential)

        def shifted_solve(x):
            return w * local_solve(x / w)

    def opinv(x):
        diagnostics["opinv_calls"] += 1
        return shifted_solve(x)

    try:
        # in shift-invert mode ARPACK applies only OPinv and reads A's shape
        # and dtype alone; it returns the eigenvalues of B in ascending order
        vals, vecs = spla.eigsh(
            sp.csr_matrix((n, n)), k=k, sigma=sigma, which="LM", v0=w * np.exp(-r),
            tol=EIGSH_TOL, OPinv=spla.LinearOperator((n, n), matvec=opinv),
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"shift-invert Lanczos did not converge: {exc}",
                               diagnostics=diagnostics) from exc
    fields = []
    for j in range(k):
        profile = vecs[:, j] / w
        # orient Perron-style: positive where the amplitude peaks
        profile = profile * np.sign(profile[np.argmax(np.abs(profile))])
        norm = np.sqrt(np.sum(op.grid.weights * profile ** 2))
        fields.append(RadialField(op.grid, op.l, profile / norm))
    return SpectrumReport(eigenvalues=vals, eigenfields=fields)


def _checked_solve(op, src, constraints):
    """Solve op x = src bordered by `constraints`: the one gate of a constrained solve.

    The constraints are assumed to span the operator kernel.  Returns
    (x, kernel defect, relative residual), where the kernel defect is the
    largest cosine between the source and a constraint.  A non-finite source
    raises ConvergenceError; a kernel defect or a residual above
    SOLVABILITY_TOL raises SolvabilityError.
    """
    w = op.grid.weights
    if not np.all(np.isfinite(src)):
        raise ConvergenceError("constrained-solve source is not finite",
                               diagnostics={"kind": op.kind, "l": op.l, "mu": op.mu})
    src_sq = np.sum(w * src ** 2) or 1.0     # a zero source has the zero solution
    defect = max((float(abs(np.sum(w * src * c)) / np.sqrt(src_sq * np.sum(w * c ** 2)))
                  for c in constraints), default=0.0)
    if not defect <= SOLVABILITY_TOL:
        raise SolvabilityError(f"source for L_{op.kind},{op.l} has a kernel component "
                               f"{defect:.1e} above {SOLVABILITY_TOL:g}",
                               diagnostics={"defect": defect})
    x = op.solve(src, constraints)
    res = op.apply(x) - src
    residual = float(np.sqrt(np.sum(w * res ** 2) / src_sq))
    if not residual <= SOLVABILITY_TOL:      # NaN fails too
        raise SolvabilityError(f"solve of L_{op.kind},{op.l} left a residual "
                               f"{residual:.1e} above {SOLVABILITY_TOL:g}",
                               diagnostics={"defect": residual})
    return x, defect, residual


def solve_with_constraints(op, source, constraints):
    """Solve op x = source with exact discrete orthogonality to `constraints`
    (RadialFields or sample arrays), gated by `_checked_solve`.  A source or
    constraint field on another grid than the operator's raises
    GridMismatchError before any work."""
    if any(isinstance(f, RadialField) and f.grid is not op.grid for f in [source, *constraints]):
        raise GridMismatchError("source or constraint lives on another grid than the operator")
    if source.l != op.l:
        raise ConfigurationError("source lives in a different channel than the operator")
    cons = [np.asarray(c.values if isinstance(c, RadialField) else c, dtype=float)
            for c in constraints]
    x, _, _ = _checked_solve(op, np.asarray(source.values, dtype=float), cons)
    return RadialField(op.grid, op.l, x)


def _identity_norms(gs, ops):
    """Relative norms of the linearization's defining identities L_{-,0} Q = 0,
    L_{+,1} Q' = 0 and L_{+,0} Lambda Q = -2 Q, from the operators keyed
    ("minus", 0), ("plus", 1) and ("plus", 0)."""
    grid = gs.grid
    q = gs.Q.values
    w = grid.weights

    def rel(vals, ref):
        return float(np.sqrt(np.sum(w * vals ** 2) / np.sum(w * ref ** 2)))

    qprime = grid.d1_free(0) @ q
    lam_q = generator(grid, q)
    return {
        "minus_on_Q": rel(ops["minus", 0].apply(q), q),
        "plus1_on_Qprime": rel(ops["plus", 1].apply(qprime), qprime),
        "plus0_on_LambdaQ_plus_2Q": rel(ops["plus", 0].apply(lam_q) + 2.0 * q, q),
    }


def check_spectrum_request(l_max, k):
    """Refuse, with ConfigurationError, a `nondegeneracy_report` request it
    cannot serve.  The gap checks read the second eigenvalue of channels 0
    and 1, and the kernel is tabulated for channels below _L_MAX_TABLE, so
    both are integers with 1 <= l_max < _L_MAX_TABLE and
    2 <= k <= MAX_EIGENPAIRS."""
    _check_integer("l_max", l_max, 1, _L_MAX_TABLE - 1)
    _check_integer("eigenpair count k", k, 2, MAX_EIGENPAIRS)


def nondegeneracy_report(gs, l_max=L_MAX, k=6):
    """Kernel bookkeeping for every channel, with eigenvalue gaps.

    Expected structure: trivial kernel for the plus kind on channel 0, a
    one-dimensional kernel spanned by the soliton derivative on channel 1,
    strict positivity for channels >= 2, and the soliton spanning the
    kernel of the minus kind on channel 0.  The request is checked by
    `check_spectrum_request`; each channel operator is built once and also
    serves the algebraic identities.
    """
    check_spectrum_request(l_max, k)
    grid = gs.grid
    q = gs.Q.values
    w = grid.weights
    # the one-dimensional kernels the symmetries predict: phase and translation
    kernels = {("minus", 0): ("cosine_with_soliton", q),
               ("plus", 1): ("cosine_with_minus_Qprime", -(grid.d1_free(0) @ q))}
    ops = {("minus", 0): assemble_channel_operator(gs, "minus", 0)}
    ops.update({("plus", l): assemble_channel_operator(gs, "plus", l)
                for l in range(l_max + 1)})
    channels = {}
    failures = []
    for key, op in ops.items():
        spec = lowest_eigenpairs(op, k)
        vals = spec.eigenvalues
        ground = spec.eigenfields[0].values
        entry = {"eigenvalues": vals.tolist()}
        if key in kernels:
            name, ref = kernels[key]
            cosine = abs(np.sum(w * ground * (ref / np.sqrt(np.sum(w * ref ** 2)))))
            entry.update({"kernel_dim": 1, name: float(cosine)})
            entry["ok"] = bool(abs(vals[0]) <= ZERO_TOL and vals[1] >= GAP_TOL
                               and cosine >= 1.0 - 1e-6)
        elif key == ("plus", 0):
            n_negative = int(np.sum(vals < -ZERO_TOL))
            entry.update(kernel_dim=0, negative_count=n_negative,
                         ok=bool(not np.any(np.abs(vals) <= ZERO_TOL) and n_negative == 1))
        else:
            entry.update(kernel_dim=0, ok=bool(vals[0] > ZERO_TOL))
        if key == ("plus", 1):
            entry["ground_sign_defect"] = float(np.min(ground * np.sign(np.max(ground))))
        channels[key] = entry
        if not entry["ok"]:
            failures.append(key)

    return {
        "mu": gs.mu,
        "channels": channels,
        "identities": _identity_norms(gs, ops),
        "status": "FAILED" if failures else "PASSED",
        "failures": failures,
    }


def constrained_inverse_stats(gs):
    """Measured stability constants of the inverse of L_{-,0} off the soliton.

    Reports the H^2 <- L^2 amplification over a family of smooth decaying
    sources projected off Q, its exponentially weighted variant (weights
    e^{r/2} applied to source and solution), and the pointwise-domination
    constant K in |x| <= K Q for sources bounded by e^{-r}.
    """
    grid = gs.grid
    q = gs.Q.values
    w = grid.weights
    r = grid.nodes
    op = assemble_channel_operator(gs, "minus", 0)
    ew = np.exp(0.5 * r)
    mask = r <= 30.0

    amp, amp_weighted, dominance = [], [], []
    for shape in (np.exp(-r), r * np.exp(-r), np.exp(-r) / (1 + r)):
        src_vals = shape - q * np.sum(w * q * shape) / np.sum(w * q * q)
        x = solve_with_constraints(op, RadialField(grid, 0, src_vals), [gs.Q])
        l2_src = np.sqrt(np.sum(w * src_vals ** 2))
        amp.append(h2_norm_3d(grid, x.values) / (np.sqrt(4 * np.pi) * l2_src))
        l2w_src = np.sqrt(np.sum(w * (ew * src_vals) ** 2))
        h2w_sol = h2_norm_3d(grid, ew * x.values) / np.sqrt(4 * np.pi)
        amp_weighted.append(h2w_sol / l2w_src)
        dominance.append(float(np.max(np.abs(x.values[mask]) / q[mask])
                               / np.max(np.abs(x.values))))
    return {
        "h2_amplification": float(np.max(amp)),
        "weighted_amplification": float(np.max(amp_weighted)),
        "pointwise_domination": float(np.max(dominance)),
    }
