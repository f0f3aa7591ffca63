"""The nonlocal interaction A(f) = |x|^-2 * f and its angular channels.

For a density with a single spherical-harmonic channel, f(y) = p(|y|) P_l,
the convolution is again a single channel with radial profile

    (A_l p)(r) = 2 pi * integral  Q_l(z) / (r rho) * p(rho) rho^2 drho,

where Q_l is the Legendre function of the second kind evaluated at
z = (r^2 + rho^2) / (2 r rho).  Writing t = min(r,rho)/max(r,rho) gives
Q_l(z)/(r rho) = g_l(t) / max(r,rho)^2 with g_l analytic on [0, 1) and a
logarithmic blow-up at the diagonal t = 1.  g_0(t) = 2 atanh(t)/t, exact
to an ulp at every t, and the higher g_l follow from the Legendre
recurrence; for small t a power series with rational coefficients, as
many terms as its cut needs, is used to dodge the cancellation in the
closed forms and, up to a cut that grows with l, the forward recurrence.

The channel operator is K = S W + B: the symmetric far field
S_ij = k_l(r_i, rho_j), 0 on the diagonal, times the grid's quadrature
weights W, plus one near-field correction B held as a band.  Each row
splits its kernel by a smooth window in the computational coordinate xi (a
partition of unity, Bruno and Kunyansky 2001): the far part is smooth, so
the midpoint far field converges geometrically with no end corrections,
and the near part is integrated cell by cell against the degree-5
interpolant in xi, by a Gauss rule per cell and a double-exponential rule
absorbing the logarithmic singularity on the diagonal cell itself.  The
window values and the interpolation weights depend only on the cell offset
and the stencil position, so they are tables built once, and the cells of
a chunk of rows lie on a regular (row, cell offset) layout whose centred
cells take one matmul.  S is built level by level as a hierarchical
off-diagonal low-rank (HODLR) matrix (Hackbusch 1999): the index range is
bisected down to diagonal leaves, held as packed upper triangles, and each
off-diagonal block of the bisection, smooth because it touches the
diagonal at one corner only, is held as a product U V^T, whose mirror
image V U^T is the block across the diagonal.  Each node takes one
partially pivoted cross approximation of its block (Bebendorf 2000), which
evaluates only its pivot rows and columns, recompressed to singular values
above 1e-14 times its largest and checked against a fixed sample of its
exact rows and columns.  No off-diagonal block is evaluated whole, and
above one leaf no n x n array is held during the build.  Each node's
factors are held once, in Fortran order, so a product takes one BLAS dspmv
for each leaf, four BLAS dgemv for each node, written straight into the
output, and one BLAS dgbmv for the band, which is held once, in LAPACK band
storage.

The equation's one potential V(u) = |u|^{4/3} + mu A(|u|^2) is
`nonlinear_potential`, which also returns the |u|^2 (`grid._abs_sq`) and
the A(|u|^2) that V came from.

One 3-D quadrature oracle, `brute_force_oracle`, provides the independent
calibration path for every channel: spherical shells centered on an
evaluation point on the axis cancel the |x|^-2 singularity exactly, each
shell is a chord integral over the source radius with a factor
P_l(cos theta_y), and the result, the channel profile (A_l p)(R), is
checked for convergence between two shell resolutions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgbmv, dgemv, dspmv

from .errors import GridMismatchError, QuadratureError
from .grid import RadialField, _abs_sq, _check_integer, _stretch_functions, profile_interpolator

__all__ = [
    "MultipoleKernel",
    "build_multipole_kernel",
    "brute_force_oracle",
    "calibrate_channel_coefficient",
]

CHANNEL_COEFFICIENT = 2.0 * np.pi   # resolved normalization of the channel kernel

_SERIES_CUT = 0.45
_SERIES_TERMS = 80       # the untrimmed series: below the widest cut, 0.72 (l = 7),
                         # terms past k = 80 are below 1e-22
_L_MAX_TABLE = 8
# g_0 takes its closed form 2 atanh(t)/t at every t.  g_l, l >= 1, takes its
# series below _CUTS[l]: above it, the forward recurrence's rounding grows
# about like t^(-2l) and stays near 100 ulps (l <= 2: 0.45)
_CUTS = [0.0] + [max(_SERIES_CUT, 100.0 ** (-0.5 / l)) for l in range(1, _L_MAX_TABLE)]


def _series_table():
    """Rational series coefficients beta[l][k], g_l(t) = sum_k beta t^(l+2k),
    as floats, _SERIES_TERMS of them for each l.

    g_0 = 2 atanh(t)/t gives beta_{0,k} = 2/(2k+1); Q_1 = z Q_0 - 1 gives
    beta_{1,k} = (beta_{0,k} + beta_{0,k+1})/2 (the -1 cancels the constant
    term of z Q_0 exactly); higher rows follow the Legendre recurrence.
    """
    head = _SERIES_TERMS + _L_MAX_TABLE + 2
    beta = [[Fraction(2, 2 * k + 1) for k in range(head)]]
    beta.append([Fraction(1, 2) * (beta[0][k] + beta[0][k + 1]) for k in range(head - 1)])
    for l in range(1, _L_MAX_TABLE):
        nxt = []
        for k in range(len(beta[l]) - 1):
            val = (
                Fraction(2 * l + 1, 2) * (beta[l][k] + beta[l][k + 1])
                - Fraction(l) * beta[l - 1][k + 1]
            ) / (l + 1)
            nxt.append(val)
        beta.append(nxt)
    return [np.array([float(x) for x in row[:_SERIES_TERMS]]) for row in beta]


# each channel keeps the terms whose t^2k at its own cut exceeds 1e-21: 30 for
# l <= 2, 73 for l = 7, none for l = 0
_BETA = [row[:int(-21.0 / np.log10(cut * cut)) if cut else 0]
         for row, cut in zip(_series_table(), _CUTS)]


def _g_ratio(l, t):
    """g_l(t) = Q_l((t + 1/t)/2) / t, vectorized, stable on (0, 1)."""
    # clamp just below the diagonal; quadrature weights there are ~1e-12
    t = np.minimum(np.asarray(t, dtype=float), 1.0 - 1e-13)
    if l == 0:
        return 2.0 * np.arctanh(t) / t
    out = np.empty_like(t)
    small = t < _CUTS[l]

    if np.any(small):
        ts = t[small]
        t2 = ts * ts
        acc = np.zeros_like(ts)
        for beta in _BETA[l][::-1]:
            acc *= t2
            acc += beta
        out[small] = acc * ts ** l

    big = ~small
    if np.any(big):
        tb = t[big]
        z = 0.5 * (tb + 1.0 / tb)
        q_prev = 2.0 * np.arctanh(tb)
        q = z * q_prev - 1.0
        for ll in range(1, l):
            q, q_prev = ((2 * ll + 1) * z * q - ll * q_prev) / (ll + 1), q
        out[big] = q / tb
    return out


def _kernel_values(l, r, rho):
    """Pointwise channel kernel 2 pi g_l(t) / max(r, rho)^2 (broadcasting)."""
    lo = np.minimum(r, rho)
    hi = np.maximum(r, rho)
    return CHANNEL_COEFFICIENT * _g_ratio(l, lo / hi) / hi ** 2


def _tanh_sinh_rule():
    """Tanh-sinh nodes and weights on (0, 1): step 0.115, |k| <= 34."""
    step = 0.115
    k = np.arange(-34, 35)
    u = step * k
    x = np.tanh(0.5 * np.pi * np.sinh(u))
    w = step * 0.5 * np.pi * np.cosh(u) / np.cosh(0.5 * np.pi * np.sinh(u)) ** 2
    x, w = 0.5 * (x + 1.0), 0.5 * w       # mapped to (0, 1)
    keep = (x > 0.0) & (x < 1.0)          # drop float-saturated endpoints
    return x[keep], w[keep]


_DE_X, _DE_W = _tanh_sinh_rule()

_BAND = 20       # cells each side of the diagonal that the window reaches
_WINDOW = (10.0, 1.75)   # centre and width, in cells, of the window's erfc edge
_REACH = _BAND + 3   # the near field's half-width: the window's cells and their stencils
_ROWS = 64       # row chunk of the near-field quadratures, whose (row, offset, node)
                 # arrays grow with it
_LEAF = 256      # largest dense diagonal leaf of the HODLR kernel
_ACA_TOL = 5e-14  # a cross approximation stops at crosses this small against its norm
_SVD_CUT = 1e-14  # singular values kept, relative to the block's largest
_SAMPLE = 4      # exact rows and columns each off-diagonal block is checked on
_CHECK_TOL = 1e-12  # largest sampled error, relative to the largest sampled entry


class HodlrMatrix:
    """The channel operator K = S diag(w) + B: the symmetric far field S in
    hierarchical off-diagonal low-rank form, scaled by the quadrature
    weights w, plus the near-field band B.

    S holds k_l(r_i, r_j), 0 on the diagonal.  `leaves` lists its diagonal
    leaves as (a, b, packed), the upper triangle of S[a:b, a:b] packed
    column by column (views into one buffer), applied by BLAS dspmv.
    `nodes` maps each split node (a, b) to (m, U, V), each factor its own
    Fortran-ordered array: U V^T is the block of rows a:m and columns m:b,
    and V U^T its mirror image.  `band` holds B once in LAPACK band storage,
    band[_REACH + i - j, j] = B[i, j], applied by dgbmv.  So a product
    K x = S (w x) + B x of a real vector x takes one dspmv per leaf, one
    dgbmv, and four dgemv per node: U (V^T x_bottom) and V (U^T x_top),
    each added straight into its rows of the output.  The spectral shift's
    bound on the absolute row sums of the dressed kernel takes one pass over
    the same parts, in absolute value (`dressed_row_sum_bound`).
    """

    def __init__(self, weights, leaves, nodes, band):
        self.shape = (weights.size,) * 2
        self.weights = weights
        self.leaves = leaves
        self.nodes = nodes
        self.band = band
        self._rank = max((u.shape[1] for _, u, _ in nodes.values()), default=0)

    @property
    def nbytes(self):
        return (sum(packed.nbytes for _, _, packed in self.leaves) + self.band.nbytes
                + sum(u.nbytes + v.nbytes for _, u, v in self.nodes.values()))

    def __matmul__(self, x):
        x = np.asarray(x)
        n = self.shape[0]
        if x.shape != (n,) or x.dtype.kind not in "biuf":
            raise GridMismatchError(
                f"operand of shape {x.shape} and dtype {x.dtype} is not a real vector of length {n}")
        scaled = self.weights * x
        # scipy's dgbmv takes no fewer rows than the band is wide, so a grid
        # narrower than that gets zero rows past its last
        out = np.zeros(max(n, 2 * _REACH + 1))
        t = np.zeros(self._rank)
        # Positional arguments skip the wrappers' keyword parsing:
        # dspmv(n, alpha, ap, x, incx, offx, beta, y, incy, offy, lower, overwrite_y),
        # dgbmv(m, n, kl, ku, alpha, a, x, incx, offx, beta, y, incy, offy, trans, overwrite_y),
        # dgemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y)
        for a, b, packed in self.leaves:
            dspmv(b - a, 1.0, packed, scaled, 1, a, 0.0, out, 1, a, 0, 1)
        dgbmv(out.size, n, _REACH, _REACH, 1.0, self.band, x, 1, 0, 1.0, out, 1, 0, 0, 1)
        for (a, b), (m, u, v) in self.nodes.items():
            dgemv(1.0, v, scaled, 0.0, t, m, 1, 0, 1, 1, 1)    # V^T x_bottom
            dgemv(1.0, u, t, 1.0, out, 0, 1, a, 1, 0, 1)
            dgemv(1.0, u, scaled, 0.0, t, a, 1, 0, 1, 1, 1)    # U^T x_top
            dgemv(1.0, v, t, 1.0, out, 0, 1, m, 1, 0, 1)
        return out[:n]

    def _band_entries(self):
        """(i, j, B[i, j]) over the band's slots inside the matrix, column by
        column."""
        inside, i, j = _band_slots(self.shape[0])
        return i, j, self.band.T[inside]

    def dressed_row_sum_bound(self, d):
        """A bound on the largest absolute row sum of N = sym(D K D / W),
        D = diag(d), and so on ||N||_2, N being symmetric.

        The far part of N is D S D.  Its row i sums to at most |d_i| times
        row i of |S| |d|, where a leaf gives |S| exactly and a node's block
        U V^T at most |U| |V|^T, entry by entry; the near part
        sym(D B D / W) adds half the row and column sums of |D B D / W|.
        Every step is the triangle inequality, so the bound holds for any
        signs of the leaves, the factors and the band.
        """
        d = np.abs(d)
        far = np.empty(d.size)
        for a, b, packed in self.leaves:
            far[a:b] = dspmv(b - a, 1.0, np.abs(packed), d[a:b])
        for (a, b), (m, u, v) in self.nodes.items():
            u, v = np.abs(u), np.abs(v)
            far[a:m] += u @ (v.T @ d[m:b])
            far[m:b] += v @ (u.T @ d[a:m])
        i, j, near = self._band_entries()
        near = d[i] * np.abs(near) * d[j] / self.weights[j]
        sums = np.bincount(i, near, d.size) + np.bincount(j, near, d.size)
        return float(np.max(d * far + 0.5 * sums))

    def _far_array(self):
        """S as a dense array, for tests."""
        out = np.empty(self.shape)
        for a, b, packed in self.leaves:
            out[a:b, a:b] = _unpacked(packed, b - a)
        for (a, b), (m, u, v) in self.nodes.items():
            out[a:m, m:b] = u @ v.T
            out[m:b, a:m] = out[a:m, m:b].T
        return out

    def toarray(self):
        out = self._far_array() * self.weights
        i, j, near = self._band_entries()
        out[i, j] += near
        return out


def _unpacked(packed, size):
    """The symmetric size x size matrix whose upper triangle `packed` holds
    column by column, as BLAS packs it."""
    cols, rows = np.tril_indices(size)     # packed order: by column, then row
    out = np.empty((size, size))
    out[rows, cols] = packed
    out[cols, rows] = packed
    return out


def _bisection(n):
    """The HODLR tree of range(n): its leaves (a, b) of at most _LEAF rows,
    and its split nodes (a, m, b), m = (a + b) // 2, level by level from the
    root."""
    leaves, splits, nodes = [], [], [(0, n)]
    while nodes:
        leaves += [(a, b) for a, b in nodes if b - a <= _LEAF]
        split = [(a, (a + b) // 2, b) for a, b in nodes if b - a > _LEAF]
        splits += split
        nodes = [half for a, m, b in split for half in ((a, m), (m, b))]
    return leaves, splits


@dataclass(eq=False)
class MultipoleKernel:
    """Channel operator for the |x|^-2 convolution at fixed l, as the grid caches it.

    `matrix` is a HodlrMatrix: the symmetric far field in HODLR form, times
    the quadrature weights, plus the near-field band.  A channel profile p
    on the grid maps to A_l p as `matrix @ p`; `matrix.toarray()` gives the
    dense form, for tests.
    """

    matrix: HodlrMatrix


def build_multipole_kernel(grid, l):
    """The channel-l operator on `grid`, cached on the grid, in HODLR form."""
    _check_integer("channel index", l, hi=_L_MAX_TABLE - 1)
    key = ("hartree_kernel", l)
    if key not in grid._cache:
        grid._cache[key] = MultipoleKernel(matrix=_hodlr_kernel(grid, l))
    return grid._cache[key]


def _cross(row, col, p, q):
    """(U, V), p x k and q x k, with U V^T approximating the p x q block whose
    rows and columns `row(i)` and `col(j)` evaluate, by partially pivoted
    cross approximation (Bebendorf 2000).

    Only the pivot rows and columns are evaluated.  The first pivot row is
    the last, which touches the diagonal; each next one is the largest entry
    of the last residual column among the rows not yet used.  It stops
    after two crosses in a row below _ACA_TOL times the Frobenius norm of
    U V^T, and raises QuadratureError if the rank reaches p q / (p + q),
    where the factors would be no smaller than the block.
    """
    u, v = np.empty((32, p)), np.empty((32, q))
    free = np.ones(p, dtype=bool)
    i, norm2, small = p - 1, 0.0, 0
    for k in range(p * q // (p + q)):
        if k == len(u):
            u, v = np.vstack((u, np.empty_like(u))), np.vstack((v, np.empty_like(v)))
        free[i] = False
        res = row(i) - u[:k, i] @ v[:k]
        j = int(np.argmax(np.abs(res)))
        u[k] = col(j) - v[:k, j] @ u[:k]
        v[k] = res / res[j]
        cross2 = (u[k] @ u[k]) * (v[k] @ v[k])
        norm2 += cross2 + 2.0 * np.dot(u[:k] @ u[k], v[:k] @ v[k])
        small = small + 1 if cross2 <= _ACA_TOL ** 2 * norm2 else 0
        if small == 2:
            return u[:k + 1].T, v[:k + 1].T
        i = int(np.argmax(np.where(free, np.abs(u[k]), -1.0)))
    raise QuadratureError(f"cross approximation of a {p} x {q} block did not converge",
                          diagnostics={"error_estimate": float(np.sqrt(cross2 / norm2))})


def _recompress(u, v):
    """(U, V) with U V^T = u v^T truncated at singular values _SVD_CUT times
    the largest: one QR of each side and an SVD of the small core."""
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    core_u, s, core_vt = np.linalg.svd(ru @ rv.T)
    rank = int(np.count_nonzero(s > _SVD_CUT * s[0]))
    return qu @ (core_u[:, :rank] * s[:rank]), qv @ core_vt[:rank].T


def _check_block(l, r, rows, cols, u, v):
    """Raise QuadratureError unless U V^T matches _SAMPLE exact rows and
    _SAMPLE exact columns of the far-field block k_l(r[rows], r[cols]),
    spread evenly from edge to edge, to _CHECK_TOL relative to their largest
    entry."""
    rows, cols = np.arange(rows.start, rows.stop), np.arange(cols.start, cols.stop)
    i = np.linspace(0, rows.size - 1, _SAMPLE).astype(int)
    j = np.linspace(0, cols.size - 1, _SAMPLE).astype(int)
    exact_rows = _kernel_values(l, r[rows[i], None], r[cols])
    exact_cols = _kernel_values(l, r[rows, None], r[cols[j]])
    scale = max(np.max(np.abs(exact_rows)), np.max(np.abs(exact_cols)))
    err = max(np.max(np.abs(u[i] @ v.T - exact_rows)),
              np.max(np.abs(u @ v[j].T - exact_cols))) / scale
    if not err <= _CHECK_TOL:
        raise QuadratureError(
            f"low-rank block {rows[0]}:{rows[-1] + 1} x {cols[0]}:{cols[-1] + 1} "
            f"misses its sampled entries", diagnostics={"error_estimate": float(err)})


def _band_slots(n):
    """The slots of LAPACK band storage of half-width _REACH that lie inside
    an n x n matrix, as a mask over the storage's transpose, shape
    (n, 2 _REACH + 1), and the (i, j) they hold, column by column."""
    j = np.broadcast_to(np.arange(n)[:, None], (n, 2 * _REACH + 1))
    i = j + np.arange(-_REACH, _REACH + 1)
    inside = (i >= 0) & (i < n)
    return inside, i[inside], j[inside]


def _band_storage(near):
    """The band `near`, whose entry (i, j) sits at [i, _REACH + j - i], in
    LAPACK band storage, (i, j) at [_REACH + i - j, j], Fortran-ordered."""
    n = near.shape[0]
    inside, i, j = _band_slots(n)
    band = np.zeros((n, 2 * _REACH + 1))
    band[inside] = near[i, _REACH + j - i]
    return band.T


def _hodlr_kernel(grid, l):
    """The channel-l operator on `grid` as a HodlrMatrix.

    Each diagonal leaf's upper triangle of k_l(r_i, r_j) is evaluated
    straight into its slot of the packed buffer.  Each split node takes one
    cross approximation of its upper block k_l(r_i, r_j), which the symmetry
    of the pointwise kernel makes the lower block's too; it is recompressed,
    checked against a sample of its exact rows and columns and held in
    Fortran order, which dgemv reads without a copy.  No off-diagonal block
    is evaluated whole.  The band is `_near_field`'s.
    """
    r = grid.nodes
    leaves, splits = _bisection(grid.n)
    buffer = np.empty(sum((b - a) * (b - a + 1) // 2 for a, b in leaves))
    packed_leaves, start = [], 0
    for a, b in leaves:
        cols, rows = np.tril_indices(b - a)    # BLAS packing order, as in `_unpacked`
        packed = buffer[start:start + rows.size]
        packed[...] = _kernel_values(l, r[a + rows], r[a + cols])
        packed[rows == cols] = 0.0
        packed_leaves.append((a, b, packed))
        start += rows.size
    nodes = {}
    for a, m, b in splits:
        top, bottom = slice(a, m), slice(m, b)
        u, v = _recompress(*_cross(lambda i: _kernel_values(l, r[a + i], r[bottom]),
                                   lambda j: _kernel_values(l, r[top], r[m + j]),
                                   m - a, b - m))
        _check_block(l, r, top, bottom, u, v)
        nodes[a, b] = m, np.asfortranarray(u), np.asfortranarray(v)
    return HodlrMatrix(grid.weights, packed_leaves, nodes, _band_storage(_near_field(grid, l)))


def _rule_tables(x, w):
    """(x, w, window, lagrange) for a cell rule with nodes x in [-1/2, 1/2],
    in cell widths from the cell's centre, and weights w summing to 1.

    window[core, _BAND + d, q] is the partition of unity at node q of the
    cell d cells from the row's own, 1 left of the row for core rows (core
    = 1); lagrange[s, m, q] is the m-th Lagrange polynomial of the cell's
    6-node stencil, whose s-th node is the cell's own, at node q.  Both
    depend on the cell offset and stencil position alone, so the few
    thousand window values take the standard library's `math.erfc` one by
    one.
    """
    d = np.arange(-_BAND, _BAND + 1)[:, None] + x
    centre, width = _WINDOW
    window = 0.5 * np.vectorize(math.erfc)((np.abs(d) - centre) / width)
    nodes = np.arange(6)
    lagrange = np.array([[np.prod([(x + s - j) / (m - j) for j in nodes if j != m], axis=0)
                          for m in nodes] for s in nodes])
    return x, w, np.stack((window, np.where(d < 0, 1.0, window))), lagrange


def _gauss_tables(points):
    """`_rule_tables` of the `points`-point Gauss rule on a cell, the window
    0 on the row's own cell, which `_DIAGONAL` integrates."""
    gx, gw = np.polynomial.legendre.leggauss(points)
    tables = _rule_tables(0.5 * gx, 0.5 * gw)
    tables[2][:, _BAND] = 0.0
    return tables


_GAUSS = _gauss_tables(10)   # every cell of the window but the row's own
# the row's own cell, split at its node by tanh-sinh on either side of the log singularity
_DIAGONAL = _rule_tables(np.hstack((-0.5 * _DE_X, 0.5 * _DE_X)), np.hstack((0.5 * _DE_W,) * 2))
_NODE_WINDOW = _gauss_tables(1)[2][..., 0]   # the window at the nodes, the 1-point rule's


def _by_offset(a):
    """The view of the per-cell array `a`, over a chunk's run of cells from
    _BAND before its first row, whose [k, _BAND + o] is the cell of row k + o."""
    return np.moveaxis(sliding_window_view(a, 2 * _BAND + 1, axis=0), -1, 1)


def _near_field(grid, l):
    """Every correction to the far field k_l(r_i, rho_j) w_j, as one band
    whose entry (i, j) sits at [i, _REACH + j - i].

    Row i splits its kernel as phi_i k + (1 - phi_i) k by the window
    phi_i = erfc((|xi - xi_i| / h - 10) / 1.75) / 2 in the computational
    coordinate xi, which is 1 to rounding at the row's node and below 1e-16
    at the far edge of the _BAND-th cell; core rows i <= _BAND take
    phi_i = 1 for xi < xi_i, down to the origin.  (1 - phi_i) k f is
    smooth, so the far field's midpoint weights integrate it with no end
    corrections; each row subtracts phi_i k w at the nodes and integrates
    phi_i k f rho^2 drho exactly against the degree-5 interpolant of f in
    xi, cell by cell.  Every entry lies within _REACH = _BAND + 3 of the
    diagonal.  Only r(xi) and h w r'(xi) r^2 at the cell rules' nodes
    depend on the grid.

    The cells i + o, |o| <= _BAND, of a chunk of rows lie on a regular
    (row, offset) layout, as windows onto the chunk's run of cells; cells
    off the grid weigh 0.  Cells whose stencil is centred, all but the first
    two and the last three, contract with one Lagrange table in one matmul, and
    their six stencil weights land in the band as six slabs.  Every row
    adds its terms in one fixed order, so the chunking changes no bit.
    """
    n, r, w, h = grid.n, grid.nodes, grid.weights, grid.h_xi
    m, m1 = _stretch_functions(grid.stretch, grid.r_max)
    stencil = np.clip(np.arange(n) - 2, 0, n - 6)    # each cell's first stencil node
    uncentred = np.flatnonzero(np.arange(n) - stencil != 2)
    offsets = slice(_REACH - _BAND, _REACH + _BAND + 1)
    # rows in chunks of _ROWS, which bound the quadrature temporaries; the
    # last chunk runs on past row n - 1 into rows that are dropped, so every
    # chunk contracts arrays of one shape
    band = np.zeros((-(-n // _ROWS) * _ROWS, 2 * _REACH + 1))
    for start in range(0, n, _ROWS):
        rows = np.arange(start, start + _ROWS)
        core = (rows <= _BAND).astype(int)
        cells = np.arange(start - _BAND, start + _ROWS + _BAND)
        inside = (cells >= 0) & (cells < n)
        cells = np.clip(cells, 0, n - 1)

        ri = r[np.minimum(rows, n - 1), None]
        chunk = band[start:start + _ROWS]
        chunk[:, offsets] -= (_NODE_WINDOW[core] * _by_offset(w[cells] * inside)
                             * _kernel_values(l, ri, _by_offset(r[cells])))
        # r(xi) and h w r'(xi) r^2 at the Gauss nodes of the cells, and at
        # the diagonal rule's nodes of the rows' own cells
        x, wq, window, lagrange = _GAUSS
        xi = (cells[:, None] + 0.5 + x) * h
        at = m(xi)
        weight = h * wq * m1(xi) * at ** 2 * inside[:, None]
        kw = _kernel_values(l, ri[:, :, None], _by_offset(at)) * _by_offset(weight) * window[core]
        v = (kw.reshape(-1, x.size) @ lagrange[2].T).reshape(kw.shape[:2] + (6,))
        x, wq, window, own_lagrange = _DIAGONAL
        xi = (np.minimum(rows, n - 1)[:, None] + 0.5 + x) * h
        at = m(xi)
        own = _kernel_values(l, ri, at) * (h * wq * m1(xi) * at ** 2) * window[core, _BAND]
        v[:, _BAND] = np.einsum("pq,mq->pm", own, own_lagrange[2])
        # the uncentred cells take their own stencils
        fixes = []
        for c in uncentred:
            for k in np.flatnonzero((np.abs(rows - c) <= _BAND) & (rows < n)):
                o = _BAND + c - rows[k]
                kw_c, table = (own[k], own_lagrange) if o == _BAND else (kw[k, o], lagrange)
                v[k, o] = 0.0
                fixes.append((k, _REACH + stencil[c] - rows[k], table[c - stencil[c]] @ kw_c))
        for s in range(6):      # stencil node s of cell i + o is column i + o - 2 + s
            chunk[:, s + _REACH - _BAND - 2:s + _REACH + _BAND - 1] += v[:, :, s]
        for k, j, vals in fixes:
            chunk[k, j:j + 6] += vals

    # no explicit W-symmetrization: each row is an accurate quadrature of the
    # symmetric continuum form, so bilinear symmetry holds to quadrature
    # accuracy, while forcing entrywise symmetry would corrupt the near-origin
    # rows (midpoint column weights underweight the first nodes individually).
    return band[:n]


def hartree_apply(grid, density_values):
    """Raw-array A(density) on `grid` (fast path for solvers)."""
    return build_multipole_kernel(grid, 0).matrix @ density_values


def nonlinear_potential(grid, values, mu):
    """(V, |u|^2, A(|u|^2)) for V(u) = |u|^{4/3} + mu A(|u|^2), from one |u|^2 =
    `_abs_sq(values)`, with |u|^{4/3} = cbrt(|u|^2)^2; A(|u|^2) is None at
    mu = 0, where no kernel is applied."""
    dens = _abs_sq(values)
    pot = np.cbrt(dens)
    pot *= pot
    if mu == 0.0:
        return pot, dens, None
    hart = hartree_apply(grid, dens)
    pot += mu * hart
    return pot, dens, hart


# ---------------------------------------------------------------------------
# independent 3-D quadrature oracle
# ---------------------------------------------------------------------------

_CHORD_GL = np.polynomial.legendre.leggauss(48)   # per chord interval, at both resolutions
_ORACLE_TOL = 1e-4    # relative agreement of the oracle's two resolutions
_ORACLE_SUPPORT = 40.0   # a callable density's shells reach out to R + this


def _shell_integrals(fun, l, radius, s, features):
    """Integrals of fun(|y|) P_l(cos theta_y) over the spheres of radii `s`
    centred on the axis point at `radius`.

    Chord identity: on the sphere of radius s the source radius tau runs over
    [|R-s|, R+s] with surface element 2 pi tau dtau / (R s), and the source's
    polar angle has cos theta_y = (tau^2 + R^2 - s^2) / (2 R tau).  `features`
    are kink radii of fun inside every chord of `s`; they become interval
    ends, so the Gauss rule only sees smooth pieces.
    """
    if radius == 0.0:
        # each shell is the sphere |y| = s, where P_l averages to 0 for l >= 1
        return 4.0 * np.pi * fun(s) if l == 0 else np.zeros_like(s)
    gx, gw = _CHORD_GL
    ends = np.stack([np.abs(radius - s), *(np.full_like(s, b) for b in features),
                     radius + s], axis=1)
    a, b = ends[:, :-1, None], ends[:, 1:, None]
    tau = 0.5 * (a + b) + 0.5 * (b - a) * gx
    cos_y = (tau ** 2 + radius ** 2 - s[:, None, None] ** 2) / (2.0 * radius * tau)
    vals = fun(tau) * np.polynomial.Legendre.basis(l)(np.clip(cos_y, -1.0, 1.0)) * tau
    return 2.0 * np.pi / (radius * s) * np.sum(0.5 * (b - a) * gw * vals, axis=(1, 2))


def _oracle_once(fun, l, radius, s_panels, n_s, feature_radii):
    """integral over s of the shell integrals around the axis point at `radius`."""
    gx, gw = np.polynomial.legendre.leggauss(n_s)
    total = 0.0
    for a, b in zip(s_panels[:-1], s_panels[1:]):
        s = 0.5 * (a + b) + 0.5 * (b - a) * gx
        mid = 0.5 * (a + b)    # the panel ends include every |R - rho| and R + rho
        inside = [rho for rho in feature_radii if abs(radius - mid) < rho < radius + mid]
        total += 0.5 * (b - a) * np.dot(gw, _shell_integrals(fun, l, radius, s, inside))
    return total


def brute_force_oracle(f, points, feature_radii=()):
    """Evaluate |x|^-2 * f by direct 3-D quadrature at the given radii.

    `f` is a RadialField of channel l, standing for the density p(|y|) P_l
    of its profile p, or a callable of the radius (channel 0).  The
    evaluation points lie on the axis, where the convolution equals the
    channel profile (A_l p)(R).  The quadrature re-centers spherical shells
    on the evaluation point so the kernel singularity cancels exactly.
    Convergence is verified by comparing two resolutions, which must agree
    to 1e-4 relative; failure, a NaN estimate included, raises
    QuadratureError carrying the achieved error estimate.

    A RadialField is represented by a smooth spline, appropriate for smooth
    densities, and its shells reach out to R + r_max; pass discontinuous
    densities as callables (with their jump radii in `feature_radii`) so the
    chord integrals see the true jump.  A callable's shells reach out to
    R + 40 (`_ORACLE_SUPPORT`), so it must vanish beyond |y| = 40.
    """
    if isinstance(f, RadialField):
        l = f.l
        fun = profile_interpolator(f.grid, np.real(f.values), l)
        s_support = f.grid.r_max
    else:
        l = 0
        fun = f
        s_support = _ORACLE_SUPPORT

    radii = np.atleast_1d(np.asarray(points, dtype=float))
    feature_radii = sorted(feature_radii)
    out = np.empty(radii.size)
    for idx, radius in enumerate(radii):
        s_max = radius + s_support
        breaks = {0.0, s_max}
        if 0.0 < radius < s_max:
            breaks.add(radius)     # shells through the origin kink the mean
        for rho in feature_radii:
            for cand in (abs(radius - rho), radius + rho):
                if 0.0 < cand < s_max:
                    breaks.add(cand)
        for frac in (0.25, 0.5, 0.75):
            breaks.add(frac * s_max)
        panels = np.array(sorted(breaks))
        coarse = _oracle_once(fun, l, radius, panels, 16, feature_radii)
        fine = _oracle_once(fun, l, radius, panels, 28, feature_radii)
        err = abs(fine - coarse) / max(abs(fine), 1e-300)
        if not err <= _ORACLE_TOL:
            raise QuadratureError(f"oracle failed to converge at r={radius:g}",
                                  diagnostics={"error_estimate": err})
        out[idx] = fine
    return out


_ORACLE_RADII = (0.3, 1.0, 2.0, 4.0, 8.0)   # where the calibration meets the oracle


def calibrate_channel_coefficient(grid, l):
    """Fit the channel coefficient against the 3-D oracle; returns the report.

    The kernel is built with the resolved constant 2*pi; the fitted ratio
    should be 1 to oracle accuracy and is recorded alongside the constant.
    The oracle's QuadratureError surfaces if it does not converge.
    """
    r = grid.nodes
    field = RadialField(grid, l, r ** l * np.exp(-r ** 2))
    mine = build_multipole_kernel(grid, l).matrix @ field.values
    # compare on the nodes nearest the oracle radii
    idx = [int(np.argmin(np.abs(r - radius))) for radius in _ORACLE_RADII]
    ratios = brute_force_oracle(field, r[idx]) / mine[idx]
    return {
        "l": l,
        "coefficient": CHANNEL_COEFFICIENT,
        "fitted_ratio": float(np.mean(ratios)),
        "ratio_spread": float(np.max(np.abs(ratios - 1.0))),
    }
