"""Radial meshes, quadrature, and per-channel differential operators.

Everything downstream lives on a staggered radial mesh: nodes sit at the
images of midpoints of a uniform computational grid on [0, 1], so there is
never a node at r = 0 and the 1/r, l(l+1)/r^2 singularities are untouched.
A smooth odd grading map concentrates nodes in the core; parity of each
angular channel (even profiles for even l, odd for odd l) is enforced by
mirror ghost nodes, which the staggering makes exact.

Conventions
-----------
A channel-l field stores the radial profile f(r) that multiplies the
Legendre factor P_l(cos theta) with respect to a fixed axis.  The channel
inner product is the W-weighted sum (f, g) = sum w_i conj(f_i) g_i, a
discrete integral of conj(f) g r^2 dr; genuinely three-dimensional l = 0
integrals carry the 4*pi solid angle on top (`groundstate.mass_3d`).
Every |u|^2 in the package is `_abs_sq`: re^2 + im^2 of a complex u,
u * u of a real one; `hartree.nonlinear_potential` builds V(u) from it.
Operators act on raw sample arrays: `grid.laplacian(l) @ f` applies
(-Delta)_l and `generator(grid, f, l)` the dilation generator
(`apply_generator` wraps the latter for a RadialField).

Quadrature weights are midpoint weights in the computational coordinate
plus a tiny far-field correction that makes the first six radial moments
exact.  Constants therefore integrate to r_max^3/3 to rounding, and
polynomials through degree 5 likewise.  The correction is O(h^2) and
reaches into the core, so smooth decaying fields converge at second
order: the 3-D mass of e^{-r^2} is off by 2.1e-12, 5.2e-13, 1.3e-13 and
3.2e-14 relative at n = 256, 512, 1024 and 2048 (ROADMAP item 2).

The channel Laplacian is assembled in conservative flux form on the
reduced variable u = r f with 6th-order staggered derivatives, so it is
symmetric positive semidefinite in the quadrature inner product by
construction, not merely to truncation error.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgetrf, dgetrs, dpbtrf, dpbtrs, dpotrf, dpotrs, zgbtrf, zgbtrs

from .errors import ConfigurationError, ConvergenceError, GridMismatchError

__all__ = [
    "RadialGrid",
    "RadialField",
    "build_grid",
    "h2_norm_3d",
    "generator",
    "apply_generator",
    "profile_interpolator",
]

# 6th-order centered stencil on a uniform grid (spacing folded in later).
_D1_STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_HALF_WIDTH = 3


def _fd_weights(offsets, order):
    """Interpolatory finite-difference weights for d^order/dx^order at 0."""
    k = offsets.size
    A = np.vander(offsets, k, increasing=True).T
    b = np.zeros(k)
    b[order] = float(math.factorial(order))
    return np.linalg.solve(A, b)


# staggered 6th-order first derivative: face value from 6 surrounding nodes
_DSTAG = _fd_weights(np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]), 1)


def _stretch_functions(stretch, r_max):
    """Map xi in [0,1] -> r and its first derivative, for the "uniform" map
    or the "tanh" grading r ~ xi - (w/s) tanh(s xi), w = 0.85, s = 3.

    The map is odd in xi so mirror ghost nodes land on mirrored radii.
    """
    if stretch == "uniform":
        return (lambda xi: r_max * xi, lambda xi: r_max * np.ones_like(xi))
    if stretch != "tanh":
        raise ConfigurationError(f"unknown stretch {stretch!r}")

    w, s = 0.85, 3.0
    norm = 1.0 - (w / s) * np.tanh(s)

    def m(xi):
        return r_max * (xi - (w / s) * np.tanh(s * xi)) / norm

    def m1(xi):
        return r_max * (1.0 - w / np.cosh(s * xi) ** 2) / norm

    return m, m1


@dataclass(eq=False)
class RadialGrid:
    """Staggered radial mesh with quadrature and cached channel operators."""

    n: int
    r_max: float
    nodes: np.ndarray
    weights: np.ndarray          # quadrature for integral of f r^2 dr
    jac: np.ndarray              # dr/dxi at the nodes
    jac_face: np.ndarray         # dr/dxi at the cell edges
    stretch: str                 # the map xi -> r, "uniform" or "tanh" (`_stretch_functions`)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def h_xi(self):
        return 1.0 / self.n

    def core_spacing(self):
        """Smallest node spacing (resolution guard scale for dynamics)."""
        return float(np.min(np.diff(self.nodes)))

    # -- operator cache ----------------------------------------------------

    def d1_free(self, l):
        """d/dr with parity folding at 0 and one-sided closure at r_max, as a
        canonical CSR (sorted columns, no duplicates)."""
        key = ("d1_free", l % 2)
        if key not in self._cache:
            self._cache[key] = _build_d1(self, parity=(-1) ** (l % 2))
        return self._cache[key]

    def laplacian(self, l):
        """(-Delta)_l, exactly symmetric PSD in the quadrature inner product."""
        key = ("lap", l)
        if key not in self._cache:
            self._cache[key] = _build_laplacian(self, l)
        return self._cache[key]

    def laplacian_banded(self, l):
        """(-Delta)_l in LAPACK general band storage, the input of `band_solver`.

        The flux-form stencil couples nodes up to 5 apart (two staggered
        derivatives of half-width 2.5 composed), so the band is 11 wide.  It
        is held in Fortran order, as LAPACK reads it.
        """
        key = ("lapband", l)
        if key not in self._cache:
            lap = self.laplacian(l)
            coo = lap.tocoo()
            hw = int(np.max(np.abs(coo.row - coo.col)))
            ab = self._cache[key] = np.zeros((2 * hw + 1, self.n), order="F")
            for d in range(-hw, hw + 1):     # row hw - d holds diagonal d
                ab[hw - d, max(d, 0):max(d, 0) + self.n - abs(d)] = lap.diagonal(d)
        return self._cache[key]

    def band_solver(self, l, a, b, potential=None):
        """The solve of M = a I + b ((-Delta)_l + diag potential), factored once:
        band LU for complex b (a Crank-Nicolson half); for real a, b band Cholesky
        of B = sym(W^{1/2} M W^{-1/2}), which proves B positive definite, solving
        by W^{-1/2} B^{-1} W^{1/2}.  A failed factorisation raises ConvergenceError."""
        band = self.laplacian_banded(l)
        hw = band.shape[0] // 2
        diag = band[hw] if potential is None else band[hw] + potential
        if np.iscomplexobj(b):
            # hw extra rows for pivoting, which zgbtrf sets itself; Fortran
            # order lets it factor the buffer in place
            ab = np.empty((3 * hw + 1, self.n), dtype=complex, order="F")
            np.multiply(band, b, out=ab[hw:])
            ab[2 * hw] = b * diag + a
            lu, piv, info = zgbtrf(ab, hw, hw, overwrite_ab=1)
        else:
            s = np.sqrt(self.weights)
            ab = np.zeros((hw + 1, self.n))        # upper band: row hw - d holds B[j - d, j]
            ab[hw] = b * diag + a
            for d in range(1, hw + 1):
                ab[hw - d, d:] = 0.5 * b * (s[:-d] * band[hw - d, d:] / s[d:]
                                            + s[d:] * band[hw + d, :-d] / s[:-d])
            chol, info = dpbtrf(ab)
        if info != 0:
            raise ConvergenceError("band factorisation of a I + b ((-Delta)_l + V) failed",
                                   diagnostics={"info": int(info), "l": l, "a": a, "b": b})
        if np.iscomplexobj(b):
            return lambda rhs: zgbtrs(lu, hw, hw, rhs, piv)[0]
        return lambda rhs: dpbtrs(chol, s * rhs)[0] / s


def _cholesky_solver(a, diagnostics):
    """The solve of the symmetric positive definite dense `a` by LAPACK's upper
    Cholesky factor (dpotrf, dpotrs).  A failed factor raises ConvergenceError
    with LAPACK's `info`, the order of the first leading minor that is not
    positive, added to `diagnostics`."""
    chol, info = dpotrf(a, clean=0)
    if info != 0:
        raise ConvergenceError(f"Cholesky factor failed: the leading minor of order {info} "
                               "is not positive",
                               diagnostics={**diagnostics, "info": int(info)})
    return lambda rhs: dpotrs(chol, rhs)[0]


def _lu_solver(a, diagnostics):
    """The solve of the dense `a` by LAPACK's partially pivoted LU (dgetrf,
    dgetrs).  An exactly singular factor raises ConvergenceError with LAPACK's
    `info`, the index of its zero pivot, added to `diagnostics`."""
    lu, piv, info = dgetrf(a)
    if info != 0:
        raise ConvergenceError(f"LU factor has a zero pivot at {info}",
                               diagnostics={**diagnostics, "info": int(info)})
    return lambda rhs: dgetrs(lu, piv, rhs)[0]


@dataclass(eq=False)
class RadialField:
    """Samples of one spherical-harmonic channel on a RadialGrid."""

    grid: RadialGrid
    l: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n,):
            raise GridMismatchError(
                f"field has {self.values.shape} values for a grid of {self.grid.n} nodes"
            )
        _check_integer("channel index", self.l)


def _check_integer(name, value, lo=0, hi=math.inf):
    """Refuse, with ConfigurationError, a `value` that is not an integer in
    [lo, hi]; numpy integers count, bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise ConfigurationError(f"{name} {value!r} is not an integer in [{lo}, {hi}]")


def build_grid(n, r_max, stretch="tanh"):
    """Build a staggered radial grid with quadrature weights.

    n >= 16 nodes on (0, r_max]; `stretch` is "uniform" or "tanh", whose
    node density ratio is (1 - w sech^2 s)/(1 - w) with w = 0.85, s = 3.
    """
    _check_integer("node count n", n, lo=16)
    if not 0.0 < r_max <= 1e100:     # the weights carry r_max^3
        raise ConfigurationError(f"need 0 < r_max <= 1e100, got {r_max!r}")
    m, m1 = _stretch_functions(stretch, float(r_max))

    xi_nodes = (np.arange(n) + 0.5) / n
    xi_edges = np.arange(n + 1) / n
    nodes = m(xi_nodes)
    jac = m1(xi_nodes)
    jac_face = m1(xi_edges)

    weights = _blended_weights(nodes, jac, 1.0 / n, float(r_max))
    if np.min(weights) <= 0.0:
        raise ConfigurationError("quadrature produced non-positive weights; refine the mesh")

    return RadialGrid(
        n=n,
        r_max=float(r_max),
        nodes=nodes,
        weights=weights,
        jac=jac,
        jac_face=jac_face,
        stretch=stretch,
    )


def _blended_weights(nodes, jac, h, r_max):
    """Midpoint weights plus a far-field fix making moments 0..5 exact.

    The correction is the minimum-norm adjustment in the metric
    w_mid (r/r_max)^8, which makes the global polynomial moments exact to
    rounding.  It is O(h^2), and x^8 does not vanish fast enough toward
    r = 0 to keep it out of the core, so smooth decaying integrands
    converge at second order, not at the midpoint rule's parity-driven
    spectral rate (ROADMAP item 2).
    """
    w_mid = h * jac * nodes ** 2
    x = nodes / r_max
    V = np.vander(x, 6, increasing=True).T          # rows: x^0 .. x^5
    exact = np.array([r_max ** 3 / (k + 3) for k in range(6)])
    defect = exact - V @ w_mid                      # moments of r^k/r_max^k
    omega = w_mid * x ** 8
    A = (V * omega) @ V.T
    alpha = np.linalg.solve(A, defect)
    return w_mid + omega * (V.T @ alpha)


# ---------------------------------------------------------------------------
# finite-difference operators
# ---------------------------------------------------------------------------

def _fd_rows_folded(n, stencil, parity):
    """Triplets for a centered node stencil with mirror folding at index 0.

    Mirror ghosts: node -k maps to k-1 with sign `parity`.  The last
    `_HALF_WIDTH` rows are skipped for the caller to close one-sidedly.
    Triplets come row by row, each row's in stencil order.
    """
    offsets = np.flatnonzero(stencil)
    rows = np.repeat(np.arange(n - _HALF_WIDTH), offsets.size)
    cols = rows + np.tile(offsets - _HALF_WIDTH, n - _HALF_WIDTH)
    vals = np.tile(stencil[offsets], n - _HALF_WIDTH)
    ghost = cols < 0
    return rows, np.where(ghost, -1 - cols, cols), np.where(ghost, parity * vals, vals)


def _one_sided_d1_rows(n):
    """One-sided 7-point first-derivative rows for the last 3 nodes."""
    rows, cols, vals = [], [], []
    for i in range(n - _HALF_WIDTH, n):
        shift = n - 1 - i
        offs = np.arange(-6 + shift, shift + 1)
        coeff = _fd_weights(offs.astype(float), order=1)
        for o, c in zip(offs, coeff):
            rows.append(i)
            cols.append(i + o)
            vals.append(c)
    return rows, cols, vals


def _build_d1(grid, parity):
    n = grid.n
    h = grid.h_xi
    rows, cols, vals = (np.concatenate(t) for t in zip(_fd_rows_folded(n, _D1_STENCIL, parity),
                                                      _one_sided_d1_rows(n)))
    d1_xi = sp.csr_matrix((vals / h, (rows, cols)), shape=(n, n))
    d1 = sp.diags(1.0 / grid.jac) @ d1_xi
    # the product keeps each row's columns in stencil order, which the fold
    # leaves unsorted; canonical CSR gives every copy (a complex one too)
    # the same summation order
    d1.sum_duplicates()
    return d1


def _staggered_gradient_line(n_nodes):
    """Plain staggered 6th-order derivative on a line of n_nodes nodes.

    Faces sit between nodes (n_nodes + 1 of them); face j uses nodes
    j-3 .. j+2 and nodes outside the line are treated as zero.  Triplets
    come stencil weight by weight, each weight's face by face.
    """
    faces = np.broadcast_to(np.arange(n_nodes + 1), (_DSTAG.size, n_nodes + 1))
    nodes = faces + np.arange(-3, 3)[:, None]
    on_line = (nodes >= 0) & (nodes < n_nodes)
    vals = np.broadcast_to(_DSTAG[:, None], faces.shape)[on_line]
    return sp.csr_matrix((vals, (faces[on_line], nodes[on_line])), shape=(n_nodes + 1, n_nodes))


def _build_laplacian(grid, l):
    """(-Delta)_l on profile values via the flux form on u = r f.

    The stiffness of u -> integral of u_r^2 dr is assembled on the parity
    doubled line (every row a centered flux difference, so the scheme is
    6th-order up to the outer boundary) and restricted to the physical
    half.  The result is exactly symmetric in the quadrature inner product
    and positive semidefinite.
    """
    n = grid.n
    h = grid.h_xi
    parity_u = -((-1) ** (l % 2))          # u = r f flips the channel parity

    gs = _staggered_gradient_line(2 * n)
    jac_face_full = np.concatenate([grid.jac_face[:0:-1], grid.jac_face])
    gs_r = sp.diags(1.0 / (h * jac_face_full)) @ gs
    p = sp.diags(h * jac_face_full)
    stiff_full = gs_r.T @ p @ gs_r

    # restriction of the doubled line onto the physical half
    rows = np.concatenate([np.arange(n - 1, -1, -1), np.arange(n, 2 * n)])
    cols = np.concatenate([np.arange(n), np.arange(n)])
    vals = np.concatenate([np.full(n, float(parity_u)), np.ones(n)])
    restrict = sp.csr_matrix((vals, (rows, cols)), shape=(2 * n, n))
    stiff = (restrict.T @ stiff_full @ restrict).tocsr()

    r = grid.nodes
    w_u = grid.weights / r ** 2            # measure for integral of |u|^2 dr
    t_u = sp.diags(0.5 / w_u) @ stiff + sp.diags(l * (l + 1) / r ** 2)
    lap = sp.diags(1.0 / r) @ t_u @ sp.diags(r)
    return lap.tocsr()


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _abs_sq(values):
    """|u|^2 as re^2 + im^2, without the square root of abs."""
    if np.iscomplexobj(values):
        return values.real ** 2 + values.imag ** 2
    return values * values


def h2_norm_3d(grid, values):
    """Norm equivalent to H^2: || (1 - Delta) f ||_{L^2(R^3)} of a radial f."""
    lf = values + grid.laplacian(0) @ values
    return float(np.sqrt(4.0 * np.pi * np.sum(grid.weights * _abs_sq(lf))))


def generator(grid, values, l=0):
    """The dilation generator (3/2) f + r f' on channel-l samples."""
    return 1.5 * values + grid.nodes * (grid.d1_free(l) @ values)


def apply_generator(f):
    """Apply the scaling generator to a channel field."""
    return RadialField(f.grid, f.l, generator(f.grid, f.values, f.l))


def _bspline_bases(t, k, x, span):
    """[B_0, ..., B_k] at the points x, each in its span [t[span], t[span + 1])
    of the knots t: B_p is the (p + 1, x.size) array of the degree-p
    B-splines that can be nonzero there, row q holding B_{span - p + q}.
    De Boor's recurrence, over nondegenerate spans only, so no divisor is 0.
    """
    near = t[span + np.arange(-k, k + 2)[:, None]]        # t[span - k .. span + k + 1]
    bases = [np.ones((1, x.size))]
    for j in range(1, k + 1):
        right, left = near[k + 1:k + j + 1], near[k + 1 - j:k + 1]
        w = bases[-1] / (right - left)
        basis = np.zeros((j + 1, x.size))
        basis[1:] = w * (x - left)
        basis[:-1] += w * (right - x)
        bases.append(basis)
    return bases


def _quintic_pieces(x, v):
    """The not-a-knot quintic interpolating spline of the real values v at the
    increasing sites x, as (breaks, pieces): on [breaks[s], breaks[s + 1]]
    it is sum_m pieces[m, s] (y - breaks[s])^m.

    The B-spline coefficients solve the banded collocation system (LAPACK
    gbsv, as `scipy.interpolate.make_interp_spline` does); the m-th
    derivative's coefficients follow by differencing, and its values at the
    left end of each span, over m!, are the power-form coefficients.
    """
    k, n = 5, x.size
    t = np.concatenate([np.full(k + 1, x[0]), x[3:-3], np.full(k + 1, x[-1])])
    site_span = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    cols = site_span - k + np.arange(k + 1)[:, None]
    bases = _bspline_bases(t, k, x, site_span)
    ab = np.zeros((2 * k + 1, n))                  # row k + i - j holds A[i, j]
    ab[k + np.arange(n) - cols, cols] = bases[k]
    d = solve_banded((k, k), ab, v)
    # the left ends of the nondegenerate spans k .. n - 1 are the sites 0, 3 .. n - 4
    ends = np.r_[0, 3:n - 3]
    bases = [b[:, ends] for b in bases]
    pieces = np.zeros((k + 1, n - k))
    for m in range(k + 1):
        p = k - m                                  # the degree of the m-th derivative
        if m:                                      # d[i] for i >= m; below m it is not read
            d[m:] = (p + 1) * np.diff(d[m - 1:]) / (t[k + 1:n + p + 1] - t[m:n])
        for q in range(p + 1):                     # span s takes d[s - p + q], q = 0 .. p
            pieces[m] += bases[p][q] * d[m + q:n - p + q]
        pieces[m] /= math.factorial(m)
    return t[k:n + 1], pieces


def profile_interpolator(grid, values, l=0):
    """Quintic spline of channel-l samples as a callable of the radius.

    The not-a-knot interpolating quintic spline (that of
    `scipy.interpolate.make_interp_spline(..., k=5)`) runs over the nodes
    with the first six mirrored with the channel parity (-1)^l, so it is
    smooth through r = 0.  It is built once, by `_quintic_pieces`, in
    piecewise-polynomial form, and each call evaluates it by Horner's rule
    on the span of each radius.  `values` are n real samples, and a radius
    array maps to an array of its shape.  Radii are clamped at r_max and the
    interpolant is 0 beyond it.
    """
    npad = 6
    r = np.concatenate([-grid.nodes[:npad][::-1], grid.nodes])
    v = np.concatenate([(-1.0) ** l * values[:npad][::-1], values])
    breaks, pieces = _quintic_pieces(r, v)
    r_max = grid.r_max

    def sample(y):
        y = np.asarray(y, dtype=float)
        z = np.minimum(y, r_max)
        span = np.searchsorted(breaks[1:-1], z, side="right")     # the end spans extrapolate
        s = z - breaks[span]
        out = pieces[-1][span]
        for c in pieces[-2::-1]:
            out = out * s + c[span]
        return np.where(y <= r_max, out, 0.0)

    return sample
