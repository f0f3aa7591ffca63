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
            ("minimal_mass_profile", {"b0": np.nan}), ("minimal_mass_profile", {"b0": -0.3}),
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


def _records(grid, frames, mu=0.0):
    """A trajectory of the frames at t = 0, 1, ... with their own records."""
    from types import SimpleNamespace

    return SimpleNamespace(
        times=np.arange(len(frames), dtype=float),
        grad_norm=np.sqrt([grad_sq_3d(grid, f) for f in frames]),
        energy=np.array([energy_mu(grid, f, mu) for f in frames]),
        snapshots=list(enumerate(frames)),
    )


def _noise_and_q_frames(grid, gs):
    noise = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, grid.n))
    noise *= np.sqrt(gs.mass / mass_3d(grid, noise))
    frames = [gs.Q.values * np.exp(1j * phase) for phase in (0.7, 2.5, 4.0, 5.5)]
    frames.insert(2, noise)
    return frames


def test_flagged_frame_leaves_later_phases(grid, gs, ps):
    # every frame carries Q's records, so only the residual flags the noise
    frames = _noise_and_q_frames(grid, gs)
    traj = _records(grid, [gs.Q.values] * len(frames))
    traj.snapshots = list(enumerate(frames))
    trace = modulation_extract(traj, gs, ps)
    assert trace.flags.tolist() == [True, True, False, True, True]
    assert np.isnan(trace.gamma[2])
    assert trace.gamma[[0, 1, 3, 4]] == pytest.approx([0.7, 2.5, 4.0, 5.5], abs=1e-6)


def test_noise_frame_records_flag_its_neighbours(grid, gs):
    # b at a frame takes its neighbours' lambda, so the noise frame's own
    # records spoil the models of frames 1 and 3 too
    trace = modulation_extract(_records(grid, _noise_and_q_frames(grid, gs)), gs, None)
    assert trace.flags.tolist() == [True, False, False, False, True]
    assert np.isnan(trace.lam[1:4]).all() and np.isnan(trace.b[1:4]).all()
    # two frames 4.8 apart in phase unwrap to -0.78, not 5.5
    assert np.exp(1j * trace.gamma[[0, 4]]) == pytest.approx(np.exp([0.7j, 5.5j]), abs=1e-6)


def test_modulation_needs_two_records(grid, gs):
    traj = _records(grid, [gs.Q.values])
    with pytest.raises(ConfigurationError):
        modulation_extract(traj, gs, None)


@pytest.fixture(scope="module")
def gs_mu():
    return solve_Q_mu(0.02, build_grid(1024, 40.0, "tanh"))


def _pseudo_conformal(gs, b0, t):
    """The exact minimal-mass solution l^{-3/2} Q_mu(r/l) e^{i t/l - i b0 r^2/(4 l)},
    l = 1 - b0 t, which blows up at T = 1/b0 with lambda = l and b = b0 l."""
    from dcnls.grid import profile_interpolator

    r, ell = gs.grid.nodes, 1.0 - b0 * t
    q = profile_interpolator(gs.grid, gs.Q.values)(r / ell)
    return ell ** -1.5 * q * np.exp(1j * t / ell - 0.25j * b0 * r ** 2 / ell)


def test_modulation_reads_exact_pseudo_conformal_frames(gs_mu):
    grid, b0 = gs_mu.grid, 0.25
    times = np.array([0.0, 0.5, 1.0, 1.7, 2.4, 3.0, 3.2])
    ell = 1.0 - b0 * times
    assert grid.nodes[-1] / ell[-1] > grid.r_max     # the model vanishes on the outer nodes
    traj = _records(grid, [_pseudo_conformal(gs_mu, b0, t) for t in times], gs_mu.mu)
    traj.times = times
    trace = modulation_extract(traj, gs_mu, None)
    assert trace.flags.all()
    assert np.max(np.abs(trace.lam / ell - 1.0)) <= 1e-9
    assert np.max(np.abs(trace.b / (trace.lam * b0) - 1.0)) <= 1e-9
    assert np.max(np.abs(np.angle(np.exp(1j * (trace.gamma - times / ell))))) <= 1e-10
    assert np.max(trace.residual) <= 1e-9


def test_strang_step_is_second_order_on_the_exact_solution():
    g = build_grid(512, 40.0, "tanh")
    gs = solve_Q_mu(0.02, g)
    b0, t_final = 0.25, 0.3
    u0 = EvolutionState.from_values(g, _pseudo_conformal(gs, b0, 0.0), gs.mu)
    exact = _pseudo_conformal(gs, b0, t_final)
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        u = evolve(u0, gs.mu, dt=dt, t_final=t_final).final.field.values
        errors.append(np.sqrt(mass_3d(g, u - exact) / mass_3d(g, exact)))
    assert errors[1] <= 5e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def test_blowup_of_the_exact_datum(gs_mu):
    # the pseudo-conformal solution blows up at T = 1/b0 with lambda = 1 - b0 t,
    # so lambda/(T - t) is constant and b/lambda = b0
    b0 = 0.25
    u0 = EvolutionState.from_values(gs_mu.grid, _pseudo_conformal(gs_mu, b0, 0.0), gs_mu.mu)
    traj = evolve(u0, gs_mu.mu, dt=2e-3, adaptive=True, stop_grad_factor=10.5,
                  lambda0=1.0, record_every=20)
    assert traj.stopped_by == "grad_factor"
    fit = blowup_fit(traj)
    trace = modulation_extract(traj, gs_mu, None)
    window = trace.flags & (trace.lam > 0.12) & (trace.lam < 0.3)
    lam, b, t = trace.lam[window], trace.b[window], trace.times[window]
    ratio = lam / (fit["T_star"] - t)
    assert fit["T_star"] == pytest.approx(1.0 / b0, rel=0.015)
    assert abs(fit["gamma"] - 1.0) <= 0.05
    assert ratio.max() / ratio.min() - 1.0 <= 0.06
    assert np.mean(b / lam) == pytest.approx(b0, rel=0.02)


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
