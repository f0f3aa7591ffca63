import numpy as np
import pytest

from dcnls import dynamics
from dcnls.errors import ConfigurationError
from dcnls.grid import RadialField, build_grid
from dcnls.groundstate import energy_mu, grad_sq_3d, mass_3d, solve_classical_Q, solve_Q_mu
from dcnls.dynamics import (
    EvolutionState,
    blowup_fit,
    evolve,
    make_initial_data,
    modulation_extract,
    virial_check,
)
from dcnls.linop import assemble_channel_operator, nondegeneracy_report


@pytest.fixture(scope="module")
def grid():
    return build_grid(768, 40.0, "tanh")


@pytest.fixture(scope="module")
def gs(grid):
    return solve_classical_Q(grid)


@pytest.fixture(scope="module")
def ps(gs):
    from dcnls.profile import build_hierarchy

    return build_hierarchy(gs)


def test_free_gaussian_matches_analytic(grid):
    r = grid.nodes
    u0 = make_initial_data("gaussian", grid=grid, width=2.0, amplitude=1.0)
    traj = evolve(u0, 0.0, dt=5e-4, t_final=0.5, linear_only=True)
    tf = traj.final.t
    w2 = 2 * 2.0 ** 2
    exact = (1 + 4j * tf / w2) ** -1.5 * np.exp(-r ** 2 / (w2 + 4j * tf))
    err = np.sqrt(mass_3d(grid, traj.final.field.values - exact) / mass_3d(grid, exact))
    assert err <= 1e-6


def test_standing_wave_preserved(grid, gs):
    u0 = EvolutionState.from_values(grid, gs.Q.values.astype(complex), 0.0)
    traj = evolve(u0, 0.0, dt=2e-4, t_final=1.5)
    exact = gs.Q.values * np.exp(1j * traj.final.t)
    err = np.sqrt(mass_3d(grid, traj.final.field.values - exact) / gs.mass)
    assert err <= 1e-4
    assert traj.mass_drift_rate() <= 1e-8
    assert traj.energy_drift_rate() <= 1e-6


@pytest.mark.parametrize("dt, t_final", [(0.0, 1.0), (np.nan, 1.0), (1e-3, -1.0), (-1e-3, 1.0)])
def test_evolve_refuses_a_step_that_cannot_reach_t_final(grid, dt, t_final):
    u0 = make_initial_data("gaussian", grid=grid, width=2.0, amplitude=1.0)
    with pytest.raises(ConfigurationError):
        evolve(u0, 0.0, dt=dt, t_final=t_final)
    # reaching the start time is a run of no steps
    assert evolve(u0, 0.0, dt=1e-3, t_final=u0.t).steps == 0


_BAD_EVOLVE_ARGS = [(np.nan, 25, {}), (np.inf, 25, {}), (-np.inf, 25, {}),
                    (0.0, 0, {}), (0.0, -3, {}), (0.0, 2.5, {}), (0.0, np.nan, {}),
                    # a NaN stop or guard would be silently off, a factor <= 1 stops at once
                    (0.0, 25, {"stop_grad_factor": np.nan}), (0.0, 25, {"stop_grad_factor": -1.0}),
                    (0.0, 25, {"lambda0": np.nan}), (0.0, 25, {"min_scale_cells": np.nan})]


@pytest.mark.parametrize("mu, record_every, guards", _BAD_EVOLVE_ARGS, ids=[
    f"{mu}-{every}" + "".join(f"-{k}={v}" for k, v in guards.items())
    for mu, every, guards in _BAD_EVOLVE_ARGS])
def test_evolve_refuses_bad_coupling_or_record_interval(grid, monkeypatch, mu, record_every,
                                                        guards):
    import dcnls.dynamics

    u0 = make_initial_data("gaussian", grid=grid, width=2.0, amplitude=1.0)

    def no_work(*args):
        raise AssertionError("evolve started work on the state")

    monkeypatch.setattr(dcnls.dynamics, "grad_sq_3d", no_work)
    with pytest.raises(ConfigurationError):
        evolve(u0, mu, dt=1e-3, t_final=0.1, record_every=record_every, **guards)


# entry points other than evolve, each with an argument it used to take or to
# die on untyped: (entry, keyword arguments)
_HOSTILE = [("gaussian", {"width": np.nan}), ("gaussian", {"width": np.inf}),
            ("gaussian", {"amplitude": np.inf}), ("gaussian", {"mu": np.nan}),
            ("rescaled_soliton", {"alpha": np.nan}), ("rescaled_soliton", {"beta": np.inf}),
            ("minimal_mass_profile", {"mass_factor": np.nan}),
            ("minimal_mass_profile", {"mass_factor": -1.0}),
            ("minimal_mass_profile", {"mass_factor": np.inf}),
            ("RadialField", {"l": np.nan}), ("RadialField", {"l": 1.5}),
            ("RadialField", {"l": True}),
            ("assemble_channel_operator", {"l": np.nan}), ("assemble_channel_operator", {"l": 1.5}),
            ("assemble_channel_operator", {"l": True}),
            ("nondegeneracy_report", {"k": 2.5}), ("nondegeneracy_report", {"l_max": 1.5})]


@pytest.mark.parametrize("entry, kwargs", _HOSTILE, ids=[
    entry + "".join(f"-{k}={v}" for k, v in kwargs.items()) for entry, kwargs in _HOSTILE])
def test_hostile_input_is_refused_before_any_work(grid, gs, ps, monkeypatch, entry, kwargs):
    import dcnls.dynamics
    import dcnls.linop
    import dcnls.profile

    calls = {
        "gaussian": lambda **kw: make_initial_data("gaussian", grid=grid, **kw),
        "rescaled_soliton": lambda **kw: make_initial_data("rescaled_soliton", gs=gs, **kw),
        "minimal_mass_profile": lambda **kw: make_initial_data("minimal_mass_profile",
                                                               gs=gs, ps=ps, **kw),
        "RadialField": lambda l: RadialField(grid, l, np.zeros(grid.n)),
        "assemble_channel_operator": lambda l: assemble_channel_operator(gs, "plus", l),
        "nondegeneracy_report": lambda **kw: nondegeneracy_report(gs, **kw),
    }

    def no_work(*args, **kw):
        raise AssertionError("numerical work started")

    for module, name in ((dcnls.dynamics, "profile_interpolator"), (dcnls.dynamics, "mass_3d"),
                         (dcnls.profile, "assemble_R"), (dcnls.linop, "linearize")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(ConfigurationError):
        calls[entry](**kwargs)


def test_subcritical_mass_stays_bounded(grid, gs):
    vals = 0.8 * gs.Q.values.astype(complex)   # mass below the soliton mass
    u0 = EvolutionState.from_values(grid, vals, 0.0)
    traj = evolve(u0, 0.0, dt=1e-3, t_final=2.0)
    assert np.max(traj.grad_norm) <= 2.0 * traj.grad_norm[0]


def test_time_reversibility(grid):
    u0 = make_initial_data("gaussian", grid=grid, width=1.5, amplitude=0.8, mu=0.0)
    fwd = evolve(u0, 0.0, dt=5e-4, t_final=0.3)
    back = evolve(fwd.final, 0.0, dt=-5e-4, t_final=0.0)
    err = np.sqrt(mass_3d(grid, back.final.field.values - u0.field.values) / u0.mass)
    assert err <= 1e-9


def test_scaling_symmetry(grid):
    # evolving a-rescaled data for time t/a^2 reproduces the rescaling
    from dcnls.grid import profile_interpolator

    a = 1.5
    mu = 0.02
    r = grid.nodes
    u0 = make_initial_data("gaussian", grid=grid, width=2.0, amplitude=0.9, mu=mu)
    t_base = 0.18
    traj = evolve(u0, mu, dt=2e-4, t_final=t_base)
    ua0 = EvolutionState.from_values(grid, a ** 1.5 * 0.9 *
                                     np.exp(-(a * r) ** 2 / 8).astype(complex), mu)
    traj_a = evolve(ua0, mu, dt=2e-4 / a ** 2, t_final=t_base / a ** 2)
    spline_re = profile_interpolator(grid, np.real(traj.final.field.values))
    spline_im = profile_interpolator(grid, np.imag(traj.final.field.values))
    arg = np.minimum(a * r, grid.r_max)
    expect = a ** 1.5 * np.where(a * r <= grid.r_max,
                                 spline_re(arg) + 1j * spline_im(arg), 0.0)
    err = np.sqrt(mass_3d(grid, traj_a.final.field.values - expect) / ua0.mass)
    assert err <= 1e-5


def test_virial_identity_on_gaussian(grid):
    u0 = make_initial_data("gaussian", grid=grid, width=1.5, amplitude=1.0, mu=0.02)
    traj = evolve(u0, 0.02, dt=5e-4, t_final=0.4, record_every=10)
    rep = virial_check(traj)
    assert 15.7 <= rep["curvature"] / rep["sixteen_E0"] * 16.0 <= 16.3
    # real initial data: the variance starts at a stationary point
    scale = abs(rep["curvature"]) * (traj.times[-1] - traj.times[0])
    assert abs(rep["initial_slope"]) <= 0.02 * scale


def test_virial_needs_enough_points(grid):
    u0 = make_initial_data("gaussian", grid=grid, width=1.5, amplitude=1.0)
    traj = evolve(u0, 0.0, dt=1e-3, t_final=0.002, record_every=1000)
    with pytest.raises(ConfigurationError):
        virial_check(traj)


def test_initial_data_refuses_unknown_keywords(grid):
    with pytest.raises(ConfigurationError, match="widht"):
        make_initial_data("gaussian", grid=grid, widht=3.0)


def test_negative_coupling_collapse(grid, gs):
    # supercritical-mass soliton data with negative energy collapses;
    # couplings this strongly negative leave no negative-energy rescalings,
    # so the experiment runs just inside the measured threshold
    mu = -0.01
    u0 = make_initial_data("rescaled_soliton", gs=gs, alpha=1.2, beta=0.8, mu=mu)
    assert u0.mass > gs.mass
    assert u0.energy < 0
    traj = evolve(u0, mu, dt=5e-4, t_final=6.0, adaptive=True,
                  stop_grad_factor=10.5, lambda0=1.0, record_every=20)
    assert traj.stopped_by in ("grad_factor", "resolution_guard")
    assert traj.grad_norm[-1] >= 10.0 * traj.grad_norm[0]
    rep = virial_check(traj)
    assert rep["concave"]
    assert 15.7 <= rep["curvature"] / rep["sixteen_E0"] * 16.0 <= 16.3


def test_rescaled_soliton_mass_law(gs):
    for beta in (0.8, 1.0, 1.25):
        u0 = make_initial_data("rescaled_soliton", gs=gs, alpha=1.1, beta=beta, mu=0.0)
        assert u0.mass == pytest.approx(beta ** -3 * gs.mass, rel=1e-6)


def test_standing_seed_alpha_beta_one(gs):
    u0 = make_initial_data("rescaled_soliton", gs=gs, alpha=1.0, beta=1.0, mu=0.0)
    assert np.allclose(u0.field.values, gs.Q.values, rtol=0, atol=1e-10)


def test_no_blowup_detected_for_standing_wave(grid, gs):
    u0 = EvolutionState.from_values(grid, gs.Q.values.astype(complex), 0.0)
    traj = evolve(u0, 0.0, dt=5e-4, t_final=0.5)
    fit = blowup_fit(traj)
    assert fit["detected"] is False


def test_modulation_recovers_exact_parameters(grid, gs, ps):
    from dcnls.grid import profile_interpolator

    lam0, gamma0 = 1.3, 0.7
    spline = profile_interpolator(grid, gs.Q.values)
    arg = np.minimum(grid.nodes / lam0, grid.r_max)
    vals = lam0 ** -1.5 * spline(arg) * np.exp(1j * gamma0)
    u0 = EvolutionState.from_values(grid, vals, 0.0)
    traj = evolve(u0, 0.0, dt=1e-3, t_final=2e-3, record_every=1)
    trace = modulation_extract(traj, gs, ps)
    assert trace.flags[0]
    assert trace.lam[0] == pytest.approx(lam0, abs=1e-7)
    assert trace.gamma[0] == pytest.approx(gamma0, abs=1e-7)
    assert abs(trace.b[0]) <= 1e-6


def test_flagged_frame_leaves_later_phases(grid, gs, ps):
    from types import SimpleNamespace

    q = gs.Q.values
    noise = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, grid.n))
    noise *= np.sqrt(gs.mass / mass_3d(grid, noise))
    frames = [q * np.exp(1j * phase) for phase in (0.7, 2.5, 4.0, 5.5)]
    frames.insert(2, noise)
    traj = SimpleNamespace(snapshots=list(enumerate(frames)))
    trace = modulation_extract(traj, gs, ps)
    assert trace.flags.tolist() == [True, True, False, True, True]
    assert np.isnan(trace.gamma[2])
    assert trace.gamma[[0, 1, 3, 4]] == pytest.approx([0.7, 2.5, 4.0, 5.5], abs=1e-6)


def _family_frame(grid, ps, lam, b, gamma):
    """lam^{-3/2} e^{i gamma} P_b(r/lam) sampled through the clamped interpolator."""
    from dcnls.grid import profile_interpolator

    fields = [ps.gs.Q, ps.T20, ps.T40, ps.S10, ps.S30]
    spline = profile_interpolator(grid, np.column_stack([f.values for f in fields]))
    coeffs = np.array([1.0, b * b, b ** 4, 1j * b, 1j * b ** 3])
    return lam ** -1.5 * (spline(grid.nodes / lam) @ coeffs) * np.exp(1j * gamma)


@pytest.mark.parametrize("lam", [0.2, 1.3])      # r/lam reaches r_max only at 0.2
@pytest.mark.parametrize("b", [0.0, 0.25])
def test_modulation_jacobian_matches_central_differences(grid, ps, lam, b):
    from dcnls.dynamics import _frame_residual, _profile_family

    vals = _family_frame(grid, ps, 0.7, 0.1, 0.3)
    fun, jac = _frame_residual(_profile_family(ps), grid, vals)
    x = np.array([np.log(lam), 0.4, b])
    fun(x)
    got = jac(x)
    h = 1e-5
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        want = (fun(x + step) - fun(x - step)) / (2 * h)
        assert np.linalg.norm(got[:, j] - want) <= 1e-6 * np.linalg.norm(want)


def test_modulation_fit_takes_no_finite_differences(grid, gs, ps, monkeypatch):
    import scipy.optimize._differentiable_functions as diff_functions
    import scipy.optimize._numdiff as numdiff
    from types import SimpleNamespace

    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference Jacobian requested")

    # the optimizer's function wrapper binds its own name for the helper
    monkeypatch.setattr(numdiff, "approx_derivative", refuse)
    monkeypatch.setattr(diff_functions, "approx_derivative", refuse, raising=False)
    frames = [_family_frame(grid, ps, lam, 0.1, 0.5) for lam in (1.0, 0.9)]
    traj = SimpleNamespace(snapshots=list(enumerate(frames)))
    trace = modulation_extract(traj, gs, ps)
    assert trace.flags.all()


def test_modulation_recovers_windowed_stacked_family(grid, gs, ps):
    from types import SimpleNamespace

    lam0, b0, gamma0 = 0.3, 0.2, 1.1
    assert grid.nodes[-1] / lam0 > grid.r_max     # the model vanishes on the outer nodes
    traj = SimpleNamespace(snapshots=[(0.0, _family_frame(grid, ps, lam0, b0, gamma0))])
    trace = modulation_extract(traj, gs, ps)
    assert trace.flags[0]
    assert trace.lam[0] == pytest.approx(lam0, abs=1e-7)
    assert trace.b[0] == pytest.approx(b0, abs=1e-7)
    assert trace.gamma[0] == pytest.approx(gamma0, abs=1e-7)


def test_extrapolated_start_matches_the_previous_fit_start(monkeypatch):
    # a 9b-style run, cut at threefold gradient growth: the extrapolated start
    # 2 x_k - x_{k-1} reaches the fits from the previous-fit start, for fewer
    # residual evaluations
    from scipy.optimize import leastsq

    from dcnls.profile import build_hierarchy

    g = build_grid(384, 40.0, "tanh")
    gs = solve_Q_mu(0.02, g)
    ps = build_hierarchy(gs)
    u0 = make_initial_data("minimal_mass_profile", gs=gs, ps=ps, b0=0.25, mass_factor=1.0005)
    traj = evolve(u0, 0.02, dt=1e-3, adaptive=True, stop_grad_factor=3.0, lambda0=1.0,
                  min_scale_cells=12.0, t_final=8.0, record_every=20)
    frame_residual = dynamics._frame_residual
    evaluations = [0]

    def counted(*args):
        fun, jac = frame_residual(*args)

        def fun_counted(x):
            evaluations[0] += 1
            return fun(x)

        return fun_counted, jac

    monkeypatch.setattr(dynamics, "_frame_residual", counted)
    trace = modulation_extract(traj, gs, ps)
    extrapolated, evaluations[0] = evaluations[0], 0

    family = dynamics._profile_family(ps)
    g_ref = np.sqrt(grad_sq_3d(g, gs.Q.values))
    guess, lam, b, flags = None, [], [], []
    for _, vals in traj.snapshots:
        if guess is None:
            lam0 = g_ref / np.sqrt(grad_sq_3d(g, vals)) * np.sqrt(mass_3d(g, vals) / gs.mass)
            guess = np.array([np.log(lam0), np.angle(vals[np.argmax(np.abs(vals))]), 0.05])
        fun, jac = counted(family, g, vals)
        x, _, info, _, ier = leastsq(fun, guess, Dfun=jac, full_output=True, maxfev=400,
                                     diag=np.ones(3), ftol=1e-8, xtol=1e-8, gtol=1e-8)
        rel = np.linalg.norm(info["fvec"]) / np.sqrt(np.sum(g.weights * np.abs(vals) ** 2))
        flags.append(ier in (1, 2, 3, 4) and rel <= 0.3)
        lam.append(np.exp(x[0]))
        b.append(x[2])
        if flags[-1]:
            guess = x
    assert len(flags) > 100 and trace.flags.tolist() == flags
    assert np.max(np.abs(trace.lam[trace.flags] / np.array(lam)[flags] - 1.0)) <= 1e-7
    assert np.max(np.abs(trace.b[trace.flags] - np.array(b)[flags])) <= 1e-6
    assert extrapolated < evaluations[0]


@pytest.mark.parametrize("dt", [1e-3, -1e-3])
def test_linear_step_matches_dense_crank_nicolson(dt):
    g = build_grid(128, 40.0, "tanh")
    u0 = make_initial_data("gaussian", grid=g, width=1.5, amplitude=1.0)
    traj = evolve(u0, 0.0, dt=dt, t_final=dt, record_every=1, linear_only=True)
    assert traj.steps == 1
    lap = g.laplacian(0).toarray()
    eye = np.eye(g.n)
    u = u0.field.values
    want = np.linalg.solve(eye + 0.5j * dt * lap, (eye - 0.5j * dt * lap) @ u)
    got = traj.final.field.values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_dt_min_is_the_smallest_step_taken(monkeypatch):
    g = build_grid(128, 40.0, "tanh")
    dt = 1e-3
    u0 = make_initial_data("gaussian", grid=g, width=1.0, amplitude=5.0)
    fixed = evolve(u0, 0.0, dt=dt, t_final=20 * dt, record_every=20)
    assert fixed.steps == 20
    assert fixed.dt_min == dt
    # without t_final no step is shortened to land on it, so only the
    # gradient growth shrinks dt; record_every=1 keeps every step's gradient
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 40)
    adaptive = evolve(u0, 0.0, dt=dt, adaptive=True, stop_grad_factor=10.0, record_every=1)
    assert adaptive.steps == 40 and adaptive.stopped_by == "max_steps"
    assert adaptive.dt_min < dt
    g_max = np.max(adaptive.grad_norm[:-1])
    assert adaptive.dt_min == pytest.approx(dt * (adaptive.grad_norm[0] / g_max) ** 2, rel=2e-3)


class _Counted:
    """An operator whose products `@` are counted; its `astype` copies count
    into the same tally."""

    def __init__(self, op, tally=None):
        self.op, self.tally = op, [0] if tally is None else tally

    @property
    def calls(self):
        return self.tally[0]

    def astype(self, dtype):
        return _Counted(self.op.astype(dtype), self.tally)

    def __matmul__(self, x):
        self.tally[0] += 1
        return self.op @ x


def _count_kernel_applies(monkeypatch):
    """The list that gets one entry per HodlrMatrix product from here on."""
    from dcnls import hartree

    calls = []
    apply = hartree.HodlrMatrix.__matmul__

    def counted(self, x):
        calls.append(1)
        return apply(self, x)

    monkeypatch.setattr(hartree.HodlrMatrix, "__matmul__", counted)
    return calls


def test_one_potential_and_one_factor_per_fixed_dt_run(monkeypatch):
    g = build_grid(128, 40.0, "tanh")
    mu, dt, n_steps = 0.02, 1e-3, 10
    u0 = make_initial_data("gaussian", grid=g, width=1.5, amplitude=0.8, mu=mu)
    # the records reuse their step's A(|u|^2), so every kernel apply counts
    applies = _count_kernel_applies(monkeypatch)
    traj = evolve(u0, mu, dt=dt, t_final=n_steps * dt, record_every=n_steps)
    assert len(applies) == n_steps + 1
    assert traj.steps == n_steps
    assert traj.refactorizations == 1


@pytest.fixture
def counted_adaptive_run(monkeypatch):
    """A short adaptive nonlinear run with its kernel applies and d/dr products counted."""
    g = build_grid(256, 40.0, "tanh")
    mu = 0.02
    u0 = make_initial_data("gaussian", grid=g, width=1.5, amplitude=1.2, mu=mu)
    d1 = _Counted(g.d1_free(0))
    free = g.d1_free
    monkeypatch.setattr(g, "d1_free", lambda l: d1 if l == 0 else free(l))
    applies = _count_kernel_applies(monkeypatch)
    traj = evolve(u0, mu, dt=2e-3, t_final=0.2, adaptive=True, record_every=5)
    monkeypatch.undo()
    return g, mu, traj, len(applies), d1.calls


def test_each_step_applies_the_kernel_and_d_dr_once(counted_adaptive_run):
    _, _, traj, applies, gradients = counted_adaptive_run
    assert traj.steps >= 50 and traj.refactorizations > 1
    # one of each per step; the initial record and the final one take the rest
    assert traj.steps <= applies <= traj.steps + 2
    assert traj.steps <= gradients <= traj.steps + 2


def test_records_match_fresh_evaluations(counted_adaptive_run):
    g, mu, traj, _, _ = counted_adaptive_run
    assert traj.times.size == len(traj.snapshots) > 10
    for k, (t, vals) in enumerate(traj.snapshots):
        assert t == traj.times[k]
        assert traj.mass[k] == mass_3d(g, vals)
        assert traj.grad_norm[k] == np.sqrt(grad_sq_3d(g, vals))
        # the quartic term is the step's own A(|u|^2), taken before the
        # closing rotation, which moves |u| by rounding only
        assert traj.energy[k] == pytest.approx(energy_mu(g, vals, mu), rel=1e-13, abs=0)


@pytest.mark.parametrize("mu, linear_only", [(0.0, True), (0.02, False)])
def test_final_state_is_the_last_record(mu, linear_only):
    g = build_grid(256, 40.0, "tanh")
    u0 = make_initial_data("gaussian", grid=g, width=2.0, amplitude=1.0, mu=mu)
    traj = evolve(u0, mu, dt=1e-3, t_final=0.05, linear_only=linear_only)
    final = traj.final
    assert (final.t, final.mass, final.energy, final.grad_norm) == (
        traj.times[-1], traj.mass[-1], traj.energy[-1], traj.grad_norm[-1])
    assert np.array_equal(final.field.values, traj.snapshots[-1][1])
