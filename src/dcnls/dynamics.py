"""Radial time evolution and the diagnostics of blowup runs.

The flow is the radial reduction, advanced by Strang splitting with an exact
pointwise phase rotation for the local plus Hartree potential (the modulus
is invariant during that substep, so it is exact) and a Crank-Nicolson
half for the radial Laplacian, which conserves the discrete mass to
rounding because the Laplacian is exactly symmetric in the quadrature
inner product.  The composition is time-symmetric, hence reversible.
As the rotation keeps |u|, a step's trailing potential is the next step's
leading one; the Crank-Nicolson half is u - i dt (I + i dt/2 L)^{-1} L u, so
its rounding scales with the update rather than with u: one solve against the
band LU of `RadialGrid.band_solver`, refactored only when dt changes.  So a
step applies the Hartree kernel once, for its trailing potential, and takes
one gradient, of the rotated state, which the next step's controller and
this step's record share; V, |u|^2 = re^2 + im^2 (`grid._abs_sq`) and
A(|u|^2) come from `hartree.nonlinear_potential`, and a record's quartic
energy term reuses them.  The step converts nothing: (-Delta)_0 and d/dr
are held as complex CSR copies for the run, each half rotation comes from
one cos and one sin of the real angle, and the rotations and the
Crank-Nicolson correction are applied in place.

Near blowup the step shrinks like the square of the focal scale and a
resolution guard truncates the run cleanly once the core falls under a
few cells, returning the last trusted state.

A recorded trajectory is read by three diagnostics: `virial_check`
compares the curvature of the variance with 16 E, `blowup_fit` fits the
gradient growth to (T* - t)^-gamma, and `modulation_extract` reads the
scale and the modulation b off each record's gradient norm and energy in
closed form, and the phase from one projection of the frame on Q_mu.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import RadialField, _abs_sq, _check_integer, profile_interpolator
from .groundstate import _energy, _quartic, energy_mu, grad_sq_3d, mass_3d, power_3d
from .hartree import nonlinear_potential

__all__ = [
    "EvolutionState",
    "Trajectory",
    "ModulationTrace",
    "make_initial_data",
    "evolve",
    "virial_check",
    "blowup_fit",
    "modulation_extract",
]


@dataclass(eq=False)
class EvolutionState:
    """One snapshot of the radial flow with cached conserved quantities."""

    t: float
    field: RadialField
    mass: float
    energy: float
    grad_norm: float

    @classmethod
    def from_values(cls, grid, values, mu):
        """The state at t = 0 with samples `values`."""
        values = np.asarray(values, dtype=complex)
        return cls(
            t=0.0,
            field=RadialField(grid, 0, values),
            mass=mass_3d(grid, values),
            energy=energy_mu(grid, values, mu),
            grad_norm=float(np.sqrt(grad_sq_3d(grid, values))),
        )


@dataclass(eq=False)
class Trajectory:
    """Recorded series plus decimated snapshots of an evolution run."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    grad_norm: np.ndarray
    xu2: np.ndarray
    snapshots: list                    # (t, complex values) pairs
    final: EvolutionState
    stopped_by: str
    steps: int
    refactorizations: int              # band LU factorisations, one per dt used
    dt_min: float                      # smallest |dt| a step used; None if none ran

    def mass_drift_rate(self):
        span = self.times[-1] - self.times[0]
        if span == 0:
            return 0.0
        return float(np.max(np.abs(self.mass - self.mass[0])) / self.mass[0] / span)

    def energy_drift_rate(self):
        # normalized by the kinetic scale so zero-energy states report sanely
        span = self.times[-1] - self.times[0]
        scale = max(abs(self.energy[0]), 1e-3 * self.grad_norm[0] ** 2)
        if span == 0:
            return 0.0
        return float(np.max(np.abs(self.energy - self.energy[0])) / scale / span)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

# the keyword parameters each kind of seed state takes
_SEED_PARAMS = {
    "rescaled_soliton": {"alpha", "beta", "mu"},
    "minimal_mass_profile": {"b0", "mass_factor"},
    "gaussian": {"width", "amplitude", "mu"},
}


def make_initial_data(kind, grid=None, gs=None, ps=None, **params):
    """Seed states: rescaled solitons, minimal-mass profiles, Gaussians.

    A keyword that the kind does not take raises ConfigurationError, and so
    does a value out of its range: `mu` and `amplitude` must be finite, the
    other parameters positive and finite.
    """
    if kind not in _SEED_PARAMS:
        raise ConfigurationError(f"unknown initial-data kind {kind!r}")
    unknown = sorted(set(params) - _SEED_PARAMS[kind])
    if unknown:
        raise ConfigurationError(f"{kind} takes no parameter {', '.join(unknown)}")

    def param(name, default, lo=0.0):
        value = float(params.get(name, default))
        if not lo < value < np.inf:      # NaN fails too
            raise ConfigurationError(f"{kind} needs {lo} < {name} < inf, got {value}")
        return value

    if kind == "rescaled_soliton":
        alpha = param("alpha", 1.0)
        beta = param("beta", 1.0)
        mu = param("mu", 0.0, lo=-np.inf)
        if gs is None:
            raise ConfigurationError("rescaled_soliton needs a ground state")
        grid = gs.grid
        vals = alpha ** 1.5 * profile_interpolator(grid, gs.Q.values)(alpha * beta * grid.nodes)
        return EvolutionState.from_values(grid, vals, mu)

    if kind == "minimal_mass_profile":
        from .profile import assemble_R

        b0 = param("b0", 0.2)
        mass_factor = param("mass_factor", 1.0)
        if ps is None or gs is None:
            raise ConfigurationError("minimal_mass_profile needs the profile hierarchy")
        grid = gs.grid
        vals = assemble_R(ps, b0, 0.0).channels[0]
        # renormalized to the critical mass (the pseudo-conformal phase rides
        # inside the imaginary hierarchy of the assembled profile); the
        # truncated profile itself sits a hair on the dispersal side of the
        # minimal-mass manifold, so blowup experiments nudge mass_factor just
        # above 1 to select the collapsing trajectory it shadows
        vals *= np.sqrt(mass_factor * gs.mass / mass_3d(grid, vals))
        return EvolutionState.from_values(grid, vals, gs.mu)

    # kind == "gaussian"
    width = param("width", 2.0)
    amplitude = param("amplitude", 1.0, lo=-np.inf)
    mu = param("mu", 0.0, lo=-np.inf)
    if grid is None:
        raise ConfigurationError("gaussian seed needs a grid")
    vals = amplitude * np.exp(-grid.nodes ** 2 / (2 * width ** 2))
    return EvolutionState.from_values(grid, vals, mu)


# ---------------------------------------------------------------------------
# radial evolution
# ---------------------------------------------------------------------------

_MAX_STEPS = 2_000_000   # a run that takes this many steps stops, by "max_steps"


def _rotation(angle, out):
    """exp(i angle) of the real `angle` into the complex `out`, from one cos and
    one sin, without a complex exp of the zero real part."""
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)


def evolve(u0, mu, dt=1e-3, t_final=None, record_every=25, adaptive=False,
           stop_grad_factor=None, min_scale_cells=8.0, lambda0=None,
           linear_only=False):
    """Propagate the radial equation by Strang splitting.

    Stops at `t_final`, when the gradient norm has grown by
    `stop_grad_factor`, or when the estimated focal scale falls below
    `min_scale_cells` grid cells (clean truncation with the last trusted
    state).  Negative dt runs the flow backwards.  A dt that is zero, not
    finite, or points away from `t_final` is refused, and so are a
    coupling that is not finite, a `record_every` that is not a positive
    integer, a `stop_grad_factor` that is not finite and above 1, and a
    `lambda0` or `min_scale_cells` that is not positive and finite;
    `t_final == u0.t` is a run of no steps.  `final` is the last record.
    A record's mass and gradient norm are those of its snapshot; its energy
    takes the quartic term from the step's own A(|u|^2), evaluated before
    the closing rotation, which moves |u| by rounding only.  The complex
    copy of the canonical d/dr gives each record's gradient norm the bits
    of `grad_sq_3d`.
    """
    grid = u0.field.grid
    if t_final is None and stop_grad_factor is None:
        raise ConfigurationError("need a stopping criterion (t_final or grad factor)")
    if not abs(mu) < np.inf:
        raise ConfigurationError(f"coupling must be finite, got {mu}")
    _check_integer("record_every", record_every, lo=1)
    if stop_grad_factor is not None and not 1.0 < stop_grad_factor < np.inf:
        raise ConfigurationError(f"stop_grad_factor must be finite and above 1, "
                                 f"got {stop_grad_factor}")
    for name, value in (("lambda0", lambda0), ("min_scale_cells", min_scale_cells)):
        if value is not None and not 0.0 < value < np.inf:
            raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    if not (np.isfinite(dt) and dt != 0.0):
        raise ConfigurationError(f"time step must be finite and nonzero, got {dt}")
    if t_final is not None and not (t_final - u0.t) * dt >= 0.0:
        raise ConfigurationError(f"time step {dt} points away from t_final = {t_final} "
                                 f"(start t = {u0.t})")
    u = np.asarray(u0.field.values, dtype=complex).copy()
    t = u0.t
    g0 = u0.grad_norm
    h_core = grid.core_spacing()
    r2w = grid.weights * grid.nodes ** 2
    # complex copies for the run: a real CSR times the complex state recasts
    # its data to complex on every product
    d1, lap = grid.d1_free(0).astype(complex), grid.laplacian(0).astype(complex)
    watch = adaptive or stop_grad_factor is not None or lambda0 is not None

    times, masses, energies, grads, xu2s = [], [], [], [], []
    snapshots = []

    def grad_sq(vals):
        # ||grad u||^2 as grad_sq_3d computes it: d/dr is canonical, so its
        # complex copy sums each row in the same order
        return mass_3d(grid, d1 @ vals)

    def potential(vals):
        """V(u) and the quartic term H = int A(|u|^2) |u|^2 as a callable, from
        the |u|^2 and A(|u|^2) that V came from."""
        pot, dens, hart = nonlinear_potential(grid, vals, mu)
        return pot, None if hart is None else lambda: _quartic(grid, hart, dens)

    def record(vals, tt, g2, quartic):
        times.append(tt)
        masses.append(mass_3d(grid, vals))
        energies.append(0.5 * g2 if linear_only else
                        _energy(g2, power_3d(grid, vals), mu, quartic))
        grads.append(float(np.sqrt(g2)))
        xu2s.append(float(4 * np.pi * np.sum(r2w * _abs_sq(vals))))
        if len(snapshots) == 0 or tt != snapshots[-1][0]:
            snapshots.append((tt, vals.copy()))

    pot, quartic = (None, None) if linear_only else potential(u)
    g2 = grad_sq(u)
    record(u, t, g2, quartic)
    stopped_by = "t_final"
    step_dt = dt
    cn_solve = grid.band_solver(0, 1.0, 0.5j * step_dt, factor="lu")
    refactorizations = 1
    phase = np.empty(grid.n, dtype=complex)
    phase_current = False     # phase holds exp(i dt/2 V) of this potential and step
    steps = 0
    dt_min = np.inf
    direction = 1.0 if dt > 0 else -1.0
    while steps < _MAX_STEPS:
        if t_final is not None:
            remaining = (t_final - t) * direction
            if remaining <= 1e-14 * max(abs(t_final), 1.0):
                break
        g = float(np.sqrt(g2)) if watch else None
        if stop_grad_factor is not None and g >= stop_grad_factor * g0:
            stopped_by = "grad_factor"
            break
        if lambda0 is not None and g > 0:
            lam_est = lambda0 * g0 / g
            if lam_est < min_scale_cells * h_core:
                stopped_by = "resolution_guard"
                break
        want = dt * min(1.0, (g0 / g) ** 2) if adaptive else dt
        if t_final is not None:
            want = direction * min(abs(want), remaining)
        if abs(want - step_dt) > 1e-3 * abs(step_dt):
            step_dt = want
            cn_solve = grid.band_solver(0, 1.0, 0.5j * step_dt, factor="lu")
            refactorizations += 1
            phase_current = False

        if not linear_only:
            # the last step's closing half rotation opens this one, unless dt
            # changed; the two are not merged because the controller reads the
            # gradient of the rotated state
            if not phase_current:
                _rotation(0.5 * step_dt * pot, phase)
            u *= phase
        update = cn_solve(lap @ u)
        update *= 1j * step_dt
        u -= update
        if not linear_only:
            pot, quartic = potential(u)
            _rotation(0.5 * step_dt * pot, phase)
            phase_current = True
            u *= phase
        t += step_dt
        steps += 1
        dt_min = min(dt_min, abs(step_dt))
        # one gradient per step serves the next step's controller and this
        # step's record; unwatched runs take it at records only
        recording = steps % record_every == 0
        g2 = grad_sq(u) if watch or recording else None
        if recording:
            record(u, t, g2, quartic)
    else:
        stopped_by = "max_steps"

    if times[-1] != t:
        record(u, t, grad_sq(u) if g2 is None else g2, quartic)
    final = EvolutionState(t=t, field=RadialField(grid, 0, u), mass=masses[-1],
                           energy=energies[-1], grad_norm=grads[-1])
    return Trajectory(
        times=np.array(times),
        mass=np.array(masses),
        energy=np.array(energies),
        grad_norm=np.array(grads),
        xu2=np.array(xu2s),
        snapshots=snapshots,
        final=final,
        stopped_by=stopped_by,
        steps=steps,
        refactorizations=refactorizations,
        dt_min=dt_min if steps else None,
    )


# ---------------------------------------------------------------------------
# diagnostics on trajectories
# ---------------------------------------------------------------------------

def virial_check(traj):
    """Compare the curvature of the variance series against 16 E(u0).

    The variance of any solution is exactly quadratic in time, so a global
    parabola fit is the cleanest second-difference estimate.
    """
    if traj.times.size < 5:
        raise ConfigurationError("trajectory too sparse for the virial check")
    t = traj.times
    v = traj.xu2
    coef = np.polyfit(t, v, 2)
    curvature = 2.0 * coef[0]
    e0 = traj.energy[0]
    fit = np.polyval(coef, t)
    # slopes of chords are monotone for convex/concave series even when the
    # (adaptive) time samples are unevenly spaced
    slopes = np.diff(v) / np.diff(t)
    wiggle = 1e-9 * np.max(np.abs(slopes))
    return {
        "curvature": float(curvature),
        "sixteen_E0": float(16.0 * e0),
        "ratio": float(curvature / (16.0 * e0)) if e0 != 0 else np.inf,
        "initial_slope": float(np.polyval(np.polyder(coef), t[0])),
        "fit_rel_residual": float(np.max(np.abs(v - fit)) / np.max(np.abs(v))),
        "concave": bool(np.all(np.diff(slopes) < wiggle)),
        "convex": bool(np.all(np.diff(slopes) > -wiggle)),
    }


def blowup_fit(traj):
    """Fit grad_norm ~ C (T* - t)^(-gamma) over the last decade of growth.

    A run whose gradient norm grew less than tenfold is reported undetected.
    """
    t = traj.times
    g = traj.grad_norm
    if g[-1] < 10.0 * g[0]:
        return {"detected": False, "growth": float(g[-1] / g[0])}
    window = g >= g[-1] / 10.0
    tw, gw = t[window], g[window]

    def residual_for(t_star):
        x = np.log(t_star - tw)
        slope, intercept = np.polyfit(x, np.log(gw), 1)
        res = np.log(gw) - (slope * x + intercept)
        return float(np.sqrt(np.mean(res ** 2))), -slope, float(np.exp(intercept))

    t_end = tw[-1]
    span = t_end - tw[0]
    candidates = t_end + np.geomspace(1e-4 * span, 2.0 * span, 200)
    fits = [residual_for(ts) for ts in candidates]
    best = int(np.argmin([f[0] for f in fits]))
    resid, gamma, c_fit = fits[best]
    t_star = float(candidates[best])
    # crude confidence from the residual curvature across candidates
    good = [i for i, f in enumerate(fits) if f[0] <= 1.5 * resid]
    gamma_lo = min(fits[i][1] for i in good)
    gamma_hi = max(fits[i][1] for i in good)
    return {
        "detected": True,
        "T_star": t_star,
        "C": c_fit,
        "gamma": float(gamma),
        "gamma_interval": (float(gamma_lo), float(gamma_hi)),
        "fit_residual": resid,
        "window_points": int(tw.size),
    }


# ---------------------------------------------------------------------------
# modulation extraction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ModulationTrace:
    """Per-frame u(t, r) ~ lam^{-3/2} Q_mu(r/lam) e^{i gamma - i b r^2/(4 lam^2)}.

    `times` are the frame times; `lam`, `b` and `gamma` the scale, modulation
    and phase in closed form, with the phase unwrapped across the frames
    that pass; `residual` the W-weighted L2 misfit of that model relative to
    the frame's norm; `flags` True where the residual is <= 0.3.  `lam`, `b`
    and `gamma` hold NaN where `flags` is False; `residual` is NaN only
    where `lam` or `b` has no value.
    """

    times: np.ndarray
    lam: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    residual: np.ndarray
    flags: np.ndarray


def modulation_extract(traj, gs, ps):
    """Per-frame (lambda, b, gamma) in closed form from the records.

    Both nonlinearities are L2-critical, so along a minimal-mass solution
    ||grad u||^2 - 2E = ||grad Q_mu||^2 / lam^2 exactly, and the modulation
    law lam_s / lam = -b, ds = dt / lam^2, gives b = -lam dlam/dt:

        lam   = ||grad Q_mu|| / (||grad u||^2 - 2E)^{1/2},
        b     = -lam * np.gradient(lam, t),
        gamma = arg <u, lam^{-3/2} Q_mu(r/lam) e^{-i b r^2/(4 lam^2)}>_W,

    from each record's gradient norm and energy, with lam NaN where the gap
    is <= 0 and Q_mu sampled through `profile_interpolator` (0 where
    r/lam > r_max).  A frame whose model, turned by e^{i gamma}, leaves more
    than 0.3 relative residual fails (`flags` False) and holds NaN in the
    series; the phase is unwrapped across the frames that pass only.  `ps`
    is unused.  A trajectory of fewer than two records raises
    ConfigurationError, since b needs a difference of lam.
    """
    if len(traj.times) < 2:
        raise ConfigurationError("modulation extraction needs at least two records")
    grid = gs.grid
    r, w = grid.nodes, grid.weights
    profile = profile_interpolator(grid, gs.Q.values)
    gap = traj.grad_norm ** 2 - 2.0 * traj.energy
    lam = np.full(gap.shape, np.nan)
    lam[gap > 0] = np.sqrt(grad_sq_3d(grid, gs.Q.values) / gap[gap > 0])
    b = -lam * np.gradient(lam, traj.times)

    gamma, residual = np.full(lam.shape, np.nan), np.full(lam.shape, np.nan)
    for k, (_, vals) in enumerate(traj.snapshots):
        if np.isnan(b[k]):
            continue
        y = r / lam[k]
        model = lam[k] ** -1.5 * profile(y) * np.exp(-0.25j * b[k] * y * y)
        gamma[k] = np.angle(np.sum(w * vals * np.conj(model)))
        misfit = _abs_sq(vals - np.exp(1j * gamma[k]) * model)
        residual[k] = np.sqrt(np.sum(w * misfit) / np.sum(w * _abs_sq(vals)))
    flags = residual <= 0.3
    lam[~flags], b[~flags], gamma[~flags] = np.nan, np.nan, np.nan
    gamma[flags] = np.unwrap(gamma[flags])
    return ModulationTrace(times=np.array(traj.times, dtype=float), lam=lam, b=b,
                           gamma=gamma, residual=residual, flags=flags)
