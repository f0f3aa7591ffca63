import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, interpolate

import dcnls.groundstate as groundstate
from dcnls.errors import CoercivityError, ConfigurationError, ConvergenceError
from dcnls.grid import build_grid
from dcnls.groundstate import (
    energy_mu,
    functional_report,
    grad_sq_3d,
    mass_3d,
    minimize_constrained,
    perturbation_rate,
    solve_classical_Q,
    solve_Q_mu,
)

import shooting_reference


@pytest.fixture(scope="module")
def grid():
    return build_grid(1024, 40.0, "tanh")


@pytest.fixture(scope="module")
def classical(grid):
    return solve_classical_Q(grid)


def test_classical_residual_and_positivity(classical):
    assert classical.eq_residual <= 1e-10
    q = classical.Q.values
    assert np.all(q > 0)
    assert np.all(np.diff(q) <= 1e-12 * q.max())


def test_classical_tail_decay(classical):
    # r Q(r) ~ c e^{-r}: log-derivative of r Q tends to -1
    assert classical.diagnostics["tail_logderiv"] == pytest.approx(-1.0, abs=0.01)


def test_classical_energy_vanishes(grid, classical):
    assert abs(classical.energy) <= 1e-8 * grad_sq_3d(grid, classical.Q.values)


def test_classical_saturates_local_gn(classical):
    assert functional_report(classical)["gn_local"] == pytest.approx(1.0, abs=1e-6)


def test_classical_mass_resolution_consistency(classical):
    # shooting-seeded solve repeated at double resolution (Richardson check)
    g2 = build_grid(2048, 40.0, "tanh")
    gs2 = solve_classical_Q(g2)
    assert gs2.mass == pytest.approx(classical.mass, rel=1e-6)


def test_shooting_table_read_once_per_process(monkeypatch):
    # whatever ran before, the first grid leaves the shooting profile cached,
    # so a later grid starts from it with the table gone
    import dcnls._soliton_table as table

    solve_classical_Q(build_grid(128, 40.0, "tanh"))
    monkeypatch.delattr(table, "ROWS")
    gs = solve_classical_Q(build_grid(192, 40.0, "tanh"))
    assert gs.eq_residual <= 1e-9


def test_soliton_table_is_the_bisected_shot():
    # the reference bisects the central value and shoots again by DOP853
    from dcnls._soliton_table import ROWS

    a0, rows = shooting_reference.shoot_soliton()
    table = np.array(ROWS)
    assert a0 == pytest.approx(4.191723335108508, rel=1e-13)
    assert rows.shape == table.shape == (133, 3)
    assert np.all(np.abs(rows - table) <= 1e-13 * np.abs(table))
    # the bracket ends; a0 = 1 is the equilibrium u = 1, an undershoot
    assert shooting_reference.shoot_once(1.0)[0] == +1
    assert shooting_reference.shoot_once(10.0)[0] == -1
    # the profile is the cubic Hermite interpolant through the rows
    rr, uu, vv = table.T
    r = np.linspace(0.0, rr[-1], 4001)
    np.testing.assert_allclose(groundstate._shooting_profile()(r),
                               interpolate.CubicHermiteSpline(rr, uu, vv)(r), rtol=1e-14)


@pytest.mark.filterwarnings("ignore:dop853")
def test_failed_shot_raises_convergence_error(monkeypatch):
    set_integrator = integrate.ode.set_integrator

    def capped(self, name, **kwargs):
        return set_integrator(self, name, **{**kwargs, "nsteps": 1})

    monkeypatch.setattr(integrate.ode, "set_integrator", capped)
    with pytest.raises(ConvergenceError) as exc:
        shooting_reference.shoot_once(4.0)
    assert exc.value.diagnostics["a0"] == 4.0
    assert exc.value.diagnostics["r_last"] < 30.0


def test_shooting_profile_matches_independent_integration():
    profile = groundstate._shooting_profile()
    a0 = float(profile(0.0))
    r0 = 1e-6
    upp0 = (a0 - a0 ** (7.0 / 3.0)) / 3.0

    def rhs(r, y):
        u, v = y
        return [v, -2.0 * v / r + u - np.sign(u) * np.abs(u) ** (7.0 / 3.0)]

    oracle = integrate.solve_ivp(
        rhs, (r0, 12.0), [a0 + 0.5 * upp0 * r0 ** 2, upp0 * r0], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    )
    r = np.linspace(r0, 12.0, 6001)
    expected = oracle.sol(r)[0]
    assert np.max(np.abs(profile(r) - expected)) <= 1e-6 * np.max(expected)


def test_newton_stops_one_evaluation_after_the_floor(monkeypatch):
    grid = build_grid(1024, 40.0, "tanh")
    q0 = solve_classical_Q(grid).Q.values
    history = []
    residual = groundstate._equation_residual

    def recorded(grid, q, mu):
        res = residual(grid, q, mu)
        history.append(np.max(np.abs(res)) / np.max(np.abs(q)))
        return res

    monkeypatch.setattr(groundstate, "_equation_residual", recorded)
    _, best, iters = groundstate._newton_polish(grid, q0, 0.02)
    monkeypatch.undo()
    first = next(i for i, h in enumerate(history) if h < 1e-9)
    for i in range(first + 1, len(history) - 1):
        assert history[i] <= 0.1 * min(history[:i])
    assert iters == len(history) - 1
    assert best == min(history)
    assert solve_Q_mu(0.02, grid).diagnostics["newton_iters"] == iters


def test_shooting_profile_not_computed_at_import():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import dcnls, dcnls.groundstate as g; print(g._shooting_profile.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_shooting_profile_returns_fresh_arrays():
    profile = groundstate._shooting_profile()
    r = np.linspace(0.0, 35.0, 71)
    first = profile(r)
    expected = first.copy()
    first[:] = -1.0
    np.testing.assert_array_equal(profile(r), expected)
    assert groundstate._shooting_profile() is profile


def test_pohozaev_detects_non_solutions(grid, classical):
    assert classical.pohozaev_residual <= 1e-6
    fake = np.exp(-grid.nodes ** 2)
    assert groundstate._pohozaev(groundstate._integrals(grid, fake), 0.0) > 1e-2


def test_solve_q_mu_base_case(grid, classical):
    gs = solve_Q_mu(0.0, grid)
    assert gs is classical


@pytest.mark.parametrize("classical_first", [True, False])
def test_classical_solve_is_the_mu_zero_solve(classical_first):
    # one cache entry whichever name asks first
    g = build_grid(128, 40.0, "tanh")
    if classical_first:
        first = solve_classical_Q(g)
        assert solve_Q_mu(0.0, g) is first
    else:
        first = solve_Q_mu(0.0, g)
        assert solve_classical_Q(g) is first


def _failing_polish_at(monkeypatch, failing_mu):
    polish = groundstate._newton_polish

    def polish_or_fail(grid, q0, mu, **stop):
        if abs(mu - failing_mu) < 1e-12:
            raise ConvergenceError("Newton did not reach tolerance",
                                   diagnostics={"mu": mu, "best_residual": 1e-3, "tol": 1e-9})
        return polish(grid, q0, mu, **stop)

    monkeypatch.setattr(groundstate, "_newton_polish", polish_or_fail)


def test_failed_continuation_names_the_last_convergent_coupling(monkeypatch):
    _failing_polish_at(monkeypatch, 0.04)
    with pytest.raises(ConvergenceError) as exc:
        solve_Q_mu(0.05, build_grid(128, 40.0, "tanh"))
    assert exc.value.diagnostics["mu"] == pytest.approx(0.04)
    assert exc.value.diagnostics["last_convergent_mu"] == pytest.approx(0.02)


def test_failed_classical_polish_has_no_last_convergent_coupling(monkeypatch):
    _failing_polish_at(monkeypatch, 0.0)
    for mu in (0.0, 0.05):
        with pytest.raises(ConvergenceError) as exc:
            solve_Q_mu(mu, build_grid(128, 40.0, "tanh"))
        assert exc.value.diagnostics["mu"] == 0.0
        assert "last_convergent_mu" not in exc.value.diagnostics


def test_short_grid_refused_before_the_solve(monkeypatch):
    # the tail fit of every ground state needs r_max >= 25
    monkeypatch.setattr(groundstate, "_newton_polish", None)
    for mu in (0.0, 0.02):
        with pytest.raises(ConfigurationError, match="r_max >= 25"):
            solve_Q_mu(mu, build_grid(128, 20.0, "tanh"))


def test_solve_q_mu_rejects_out_of_range(grid):
    with pytest.raises(ConfigurationError):
        solve_Q_mu(-0.01, grid)
    with pytest.raises(ConfigurationError):
        solve_Q_mu(0.5, grid)
    with pytest.raises(ConfigurationError):
        solve_Q_mu(np.nan, grid)


def test_solve_q_mu_state(grid):
    gs = solve_Q_mu(0.02, grid)
    assert gs.eq_residual <= 1e-8
    assert gs.pohozaev_residual <= 1e-6
    assert abs(gs.energy) <= 1e-6 * grad_sq_3d(grid, gs.Q.values)
    assert np.all(gs.Q.values > 0)
    rep = functional_report(gs)
    assert rep["pairing_defect"] <= 1e-8


def test_flow_pathway_matches_newton(grid, classical):
    flow = minimize_constrained(classical.mass, 0.0, grid)
    assert flow.beta > 0
    d = flow.Q.values - classical.Q.values
    assert np.sqrt(mass_3d(grid, d) / classical.mass) <= 1e-6
    assert flow.mass == pytest.approx(classical.mass, rel=1e-9)
    assert flow.energy >= -1e-6 * grad_sq_3d(grid, flow.Q.values)
    # radial symmetric-decreasing minimizer
    assert np.all(np.diff(flow.Q.values) <= 1e-10 * flow.Q.values.max())


def test_flow_pathway_small_coupling(grid):
    gs = solve_Q_mu(0.02, grid)
    flow = minimize_constrained(gs.mass, 0.02, grid)
    assert flow.beta > 0
    d = flow.Q.values - gs.Q.values
    assert np.sqrt(mass_3d(grid, d) / gs.mass) <= 1e-6


@pytest.mark.parametrize("n, mu", [(128, 0.0), (256, 0.02)])
def test_flow_pathway_on_coarse_grids(n, mu):
    coarse = build_grid(n, 40.0, "tanh")
    gs = solve_Q_mu(mu, coarse)
    flow = minimize_constrained(gs.mass, mu, coarse)
    assert np.sqrt(mass_3d(coarse, flow.Q.values - gs.Q.values) / gs.mass) <= 1e-10


def test_loose_waypoints_reach_the_floor_polished_state(grid, classical):
    # the waypoints 0.02 and 0.04 stop at residual 1e-6; polishing each to
    # the rounding floor instead gives the same Q_0.05
    q = classical.Q.values
    for m in (0.02, 0.04, 0.05):
        q, _, _ = groundstate._newton_polish(grid, q, m)
    gs = solve_Q_mu(0.05, grid)
    w = grid.weights
    assert np.sqrt(np.sum(w * (gs.Q.values - q) ** 2) / np.sum(w * q ** 2)) <= 1e-10
    assert gs.eq_residual <= 1e-9


def test_newton_iters_count_every_polish(monkeypatch):
    g = build_grid(512, 40.0, "tanh")
    solve_classical_Q(g)
    calls = []
    linearize = groundstate.linearize

    def counted(*args):
        calls.append(args[2])
        return linearize(*args)

    monkeypatch.setattr(groundstate, "linearize", counted)
    gs = solve_Q_mu(0.05, g)
    assert sorted(set(calls)) == pytest.approx([0.02, 0.04, 0.05])
    assert gs.diagnostics["newton_iters"] == len(calls)
    calls.clear()
    flow = minimize_constrained(gs.mass, 0.05, g)
    assert flow.diagnostics["newton_iters"] == len(calls) > 0


@pytest.mark.parametrize("fraction", [0.9, 0.99, np.nan])
def test_subcritical_mass_refused(grid, classical, fraction):
    with pytest.raises(ConfigurationError, match=f"a_crit = {classical.mass:g}"):
        minimize_constrained(fraction * classical.mass, 0.0, grid)


def test_supercritical_mass_refused(grid, classical):
    with pytest.raises(CoercivityError) as exc:
        minimize_constrained(classical.mass * 1.5, 0.02, grid)
    assert exc.value.diagnostics["threshold"] is not None
    assert exc.value.diagnostics["threshold"] < classical.mass


def test_perturbation_rate_asymptotic(grid):
    rep = perturbation_rate([1e-4, 10 ** -3.5, 1e-3, 10 ** -2.5], grid)
    assert 0.9 <= rep["slope"] <= 1.1
    assert rep["fit_residual"] <= 0.05
    assert rep["l2_monotone"]


def test_perturbation_rate_needs_four_points(grid):
    with pytest.raises(ConfigurationError):
        perturbation_rate([0.01], grid)


def test_critical_mass_decreases_with_coupling(grid, classical):
    m1 = solve_Q_mu(0.01, grid).mass
    m2 = solve_Q_mu(0.02, grid).mass
    assert classical.mass > m1 > m2


def test_energy_scaling_invariance(grid):
    # E(a^{3/2} u(a x)) = a^2 E(u) at the critical scaling
    r = grid.nodes
    u = np.exp(-r ** 2 / 2)
    a = 1.3
    ua = a ** 1.5 * np.exp(-((a * r) ** 2) / 2)
    assert energy_mu(grid, ua, 0.03) == pytest.approx(a ** 2 * energy_mu(grid, u, 0.03), rel=1e-7)
