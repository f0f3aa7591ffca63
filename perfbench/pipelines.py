"""Workload pipelines, their correctness checks, and the layer probes.

Every pipeline calls the public functions of `dcnls` and checks the
results against the acceptance-gate bounds of `tests/test_acceptance.py`,
copied below so that the benchmark judges a run by the gate's numbers.
Timing limits of the gate are not checks here: time is what the benchmark
measures.

Nothing at module level imports numpy or dcnls: `setup` does, inside the
time it reports, because a user pays those imports on every run.
"""

import hashlib
import json
import os
import statistics
import tempfile
import time

# criterion 1: ground-state gate
C1_RESIDUAL = 1e-8
C1_POHOZAEV = 1e-6
C1_MASS_REL = 1e-6
C1_PROFILE_REL = 1e-6
# criterion 3: non-degeneracy identities
C3_MINUS_ON_Q = 1e-7
C3_PLUS1_ON_QPRIME = 1e-6
C3_PLUS0_ON_LAMBDAQ = 1e-6
# criterion 5: hierarchy
C5_SOLVABILITY = 1e-6
C5_MASS_IDENTITY = 1e-4
C5_CLOSED_FORM = 1e-6
# criterion 6: residual scaling under halving b and d
C6_B_RATIO = (24.0, 40.0)
C6_D_RATIO = (3.4, 4.6)
# criterion 7: expansion fits
C7_ENERGY = 0.01
C7_MOMENTUM = 0.02
# criterion 9b: minimal-mass blowup
C9B_GAMMA = (0.8, 1.2)
C9B_SPREAD = 0.10
C9B_B_OVER_LAMBDA = 0.15
C9B_LAMBDA_WINDOW = (0.12, 0.3)

_CLI_COMMANDS = ("report", "profile", "groundstate_a", "groundstate_b")

CHECKS = {
    "groundstate-4096": [
        "c1.classical.residual", "c1.classical.pohozaev",
        "c1.continuation.residual", "c1.continuation.pohozaev",
        "c1.flow.mass", "c1.flow.profile", "c1.resolution.mass",
    ],
    "spectra-1536": (
        [f"{c}.mu{i}" for i in range(3) for c in ("c3", "c5")]
        + ["c5.closed_form", "c6.b_ratio", "c6.d_ratio",
           "c7.energy", "c7.momentum", "c7.mass_K"]
        + [f"cli.{cmd}.{what}" for cmd in _CLI_COMMANDS
           for what in ("exit", "status", "inventory")]
        + ["c10.identical_csv"]
    ),
    "blowup-1024": ["c9b.detected", "c9b.gamma", "c9b.spread", "c9b.b_over_lambda"],
}

# channels whose Hartree kernels each workload uses, prebuilt in setup
_CHANNELS = {"groundstate-4096": (0,), "spectra-1536": range(5), "blowup-1024": range(3)}


class Checks:
    """Outcomes of one repetition's correctness checks, in pipeline order."""

    def __init__(self, names):
        self.names = list(names)
        self.results = {}

    def record(self, name, ok, value):
        if name not in self.names:
            raise KeyError(f"undeclared check {name!r}")
        self.results[name] = {"ok": bool(ok), "value": value}

    def fail_rest(self, error):
        """A stage raised: its own checks and every later one fail."""
        for name in self.names:
            self.results.setdefault(name, {"ok": False, "value": f"not reached: {error}"})

    def summary(self):
        return [{"name": name, **self.results[name]} for name in self.names]


def setup(p, tr):
    """Imports, grids, channel operators and Hartree kernels of a workload."""
    with tr.span("setup"):
        with tr.span("setup.import"):
            import dcnls  # noqa: F401  (the import is part of what setup costs)
        from dcnls.grid import build_grid
        from dcnls.hartree import build_multipole_kernel

        channels = list(_CHANNELS[p["workload"]])
        sizes = [p["n"]] + ([p["partner_n"]] if p.get("partner_n") else [])
        grids = []
        with tr.span("grid.assembly"):
            for n in sizes:
                grid = build_grid(n, p["r_max"], "tanh")
                for l in channels:
                    grid.laplacian(l)
                    grid.d1_free(l)
                if p["workload"] == "blowup-1024":
                    grid.laplacian_banded(0)
                grids.append(grid)
        for grid in grids:
            with tr.span("hartree.kernel_build"):    # one span per grid
                for l in channels:
                    build_multipole_kernel(grid, l)
    return grids


def _check_groundstate(checks, prefix, gs):
    checks.record(f"{prefix}.residual", gs.eq_residual <= C1_RESIDUAL, gs.eq_residual)
    checks.record(f"{prefix}.pohozaev", gs.pohozaev_residual <= C1_POHOZAEV,
                  gs.pohozaev_residual)


def run_groundstate(p, grids, tr, checks, ctx):
    """Criterion 1: classical soliton, continuation, gradient flow, n/2 partner."""
    import numpy as np
    from dcnls.groundstate import mass_3d, minimize_constrained, solve_classical_Q, solve_Q_mu

    grid, partner = grids
    counts = ctx["counts"]
    with tr.span("groundstate.classical"):
        gs = solve_classical_Q(grid)
    counts["newton_iters"] += gs.diagnostics["newton_iters"]
    _check_groundstate(checks, "c1.classical", gs)

    with tr.span("groundstate.continuation"):
        gs_mu = solve_Q_mu(p["mu"], grid)
    counts["newton_iters"] += gs_mu.diagnostics["newton_iters"]
    ctx["probe_gs"] = gs_mu
    _check_groundstate(checks, "c1.continuation", gs_mu)

    with tr.span("groundstate.flow"):
        flow = minimize_constrained(gs.mass, 0.0, grid)
    counts["flow_iters"] += flow.diagnostics["flow_iterations"]
    mass_gap = abs(gs.mass - flow.mass) / gs.mass
    shape_gap = float(np.sqrt(mass_3d(grid, flow.Q.values - gs.Q.values) / gs.mass))
    checks.record("c1.flow.mass", mass_gap <= C1_MASS_REL, mass_gap)
    checks.record("c1.flow.profile", shape_gap <= C1_PROFILE_REL, shape_gap)

    with tr.span("groundstate.classical"):
        half = solve_classical_Q(partner)
    counts["newton_iters"] += half.diagnostics["newton_iters"]
    gap = abs(gs.mass - half.mass) / gs.mass
    checks.record("c1.resolution.mass", gap <= C1_MASS_REL, gap)


def run_spectra(p, grids, tr, checks, ctx):
    """Criteria 3, 5, 6, 7 on the library, then the CLI stage with criterion 10."""
    import numpy as np
    from dcnls.groundstate import solve_classical_Q, solve_Q_mu
    from dcnls.linop import nondegeneracy_report
    from dcnls.profile import build_hierarchy, invariant_expansions, residual_psi

    (grid,) = grids
    w = grid.weights
    r = grid.nodes
    counts = ctx["counts"]
    hierarchies = []
    for i, mu in enumerate(p["mus"]):
        if mu == 0.0:
            with tr.span("groundstate.classical"):
                gs = solve_classical_Q(grid)
        else:
            with tr.span("groundstate.continuation"):
                gs = solve_Q_mu(mu, grid)
        counts["newton_iters"] += gs.diagnostics["newton_iters"]
        if i == 1:
            ctx["probe_gs"] = gs

        with tr.span("linop.nondegeneracy"):
            rep = nondegeneracy_report(gs)
        counts["eigensolves"] += len(rep["channels"])
        ids = rep["identities"]
        checks.record(f"c3.mu{i}",
                      rep["status"] == "PASSED"
                      and ids["minus_on_Q"] <= C3_MINUS_ON_Q
                      and ids["plus1_on_Qprime"] <= C3_PLUS1_ON_QPRIME
                      and ids["plus0_on_LambdaQ_plus_2Q"] <= C3_PLUS0_ON_LAMBDAQ,
                      {"mu": mu, "status": rep["status"], **ids})

        with tr.span("profile.hierarchy"):
            ps = build_hierarchy(gs)
        counts["constrained_solves"] += len(ps.residuals)
        hierarchies.append(ps)
        q = gs.Q.values
        solv = max(ps.solvability.values())
        lhs = -2 * np.sum(w * q * ps.T20.values)
        rhs = np.sum(w * ps.S10.values ** 2)
        mass_id = float(abs(lhs - rhs) / abs(rhs))
        checks.record(f"c5.mu{i}",
                      solv <= C5_SOLVABILITY and mass_id <= C5_MASS_IDENTITY
                      and ps.e_mu > 0 and ps.p_mu > 0,
                      {"mu": mu, "solvability": solv, "mass_identity": mass_id})

    # closed forms at mu = 0: S10 = -r^2 Q / 4 projected off Q, e_0 = |r Q|^2 / 8
    ps0 = hierarchies[0]
    q = ps0.gs.Q.values
    exact = -r ** 2 * q / 4
    exact -= q * np.sum(w * q * exact) / np.sum(w * q * q)
    s10_err = float(np.sqrt(np.sum(w * (ps0.S10.values - exact) ** 2) / np.sum(w * exact ** 2)))
    e0 = 0.125 * 4 * np.pi * np.sum(w * r ** 2 * q ** 2)
    e0_err = float(abs(ps0.e_mu - e0) / e0)
    checks.record("c5.closed_form", max(s10_err, e0_err) <= C5_CLOSED_FORM,
                  {"S10": s10_err, "e0": e0_err})

    ps = hierarchies[1]
    with tr.span("profile.residual"):
        sups = [residual_psi(ps, b, d)[1] for b, d in ((0.1, 0.0), (0.05, 0.0),
                                                       (0.0, 0.1), (0.0, 0.05))]
    rb, rd = sups[0] / sups[1], sups[2] / sups[3]
    checks.record("c6.b_ratio", C6_B_RATIO[0] <= rb <= C6_B_RATIO[1], rb)
    checks.record("c6.d_ratio", C6_D_RATIO[0] <= rd <= C6_D_RATIO[1], rd)

    with tr.span("profile.expansions"):
        exp = invariant_expansions(ps)
    checks.record("c7.energy", abs(exp["energy_vs_e_mu"]) <= C7_ENERGY, exp["energy_vs_e_mu"])
    checks.record("c7.momentum", abs(exp["momentum_vs_p_mu"]) <= C7_MOMENTUM,
                  exp["momentum_vs_p_mu"])
    checks.record("c7.mass_K", exp["mass_defect_K"] > 0, exp["mass_defect_K"])

    _run_cli(["report", "--mu", p["cli_mu"], "--grid-n", str(p["cli_n"])],
             "report", tr, checks, ctx)
    _run_cli(["profile", "--mu", p["cli_mu"], "--grid-n", str(p["cli_n"])],
             "profile", tr, checks, ctx)
    csvs = [
        _run_cli(["groundstate", "--mu", p["determinism_mu"],
                  "--grid-n", str(p["determinism_n"]), "--threads", "1"],
                 f"groundstate_{tag}", tr, checks, ctx)
        for tag in ("a", "b")
    ]
    checks.record("c10.identical_csv", bool(csvs[0]) and csvs[0] == csvs[1],
                  sorted(csvs[0]))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_cli(argv, name, tr, checks, ctx):
    """One CLI command into a fresh --out directory; returns its CSVs' bytes."""
    from dcnls.cli import run_command

    out = tempfile.mkdtemp(prefix=f"cli-{name}-", dir=ctx["work_dir"])
    with tr.span("cli.command"):
        code = run_command(argv + ["--out", out])
    checks.record(f"cli.{name}.exit", code == 0, code)

    entries = os.listdir(out)
    run_dir = os.path.join(out, entries[0]) if len(entries) == 1 else None
    manifest_path = os.path.join(run_dir, "manifest.json") if run_dir else None
    manifest = {}
    if manifest_path and os.path.isfile(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    checks.record(f"cli.{name}.status", manifest.get("status") == "OK",
                  manifest.get("status"))

    produced = sorted(set(os.listdir(run_dir)) - {"manifest.json"}) if run_dir else []
    inventory = manifest.get("files", {})
    exact = (sorted(inventory) == produced
             and all(inventory[f] == _sha256(os.path.join(run_dir, f)) for f in produced))
    checks.record(f"cli.{name}.inventory", exact, {"listed": sorted(inventory),
                                                   "produced": produced})

    counts = ctx["counts"]
    csvs = {}
    for root, _, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            counts["cli_files"] += 1
            counts["cli_bytes"] += os.path.getsize(path)
            if f.endswith(".csv"):
                with open(path, "rb") as fh:
                    csvs[f] = fh.read()
    return csvs


def run_blowup(p, grids, tr, checks, ctx):
    """Criterion 9b: minimal-mass profile data, adaptive evolution, fits."""
    import numpy as np
    from dcnls.dynamics import blowup_fit, evolve, make_initial_data, modulation_extract
    from dcnls.groundstate import solve_classical_Q, solve_Q_mu
    from dcnls.profile import build_hierarchy

    (grid,) = grids
    counts = ctx["counts"]
    with tr.span("groundstate.classical"):
        base = solve_classical_Q(grid)
    with tr.span("groundstate.continuation"):
        gs = solve_Q_mu(p["mu"], grid)
    counts["newton_iters"] += base.diagnostics["newton_iters"] + gs.diagnostics["newton_iters"]
    ctx["probe_gs"] = gs
    with tr.span("profile.hierarchy"):
        ps = build_hierarchy(gs)
    counts["constrained_solves"] += len(ps.residuals)

    with tr.span("dynamics.initial_data"):
        u0 = make_initial_data("minimal_mass_profile", gs=gs, ps=ps, b0=p["b0"],
                               mass_factor=p["mass_factor"])
    with tr.span("dynamics.evolve"):
        traj = evolve(u0, p["mu"], dt=p["dt"], adaptive=True,
                      stop_grad_factor=p["stop_grad_factor"], lambda0=1.0,
                      min_scale_cells=p["min_scale_cells"], t_final=p["t_final"],
                      record_every=p["record_every"])
    # recorded every record_every steps plus the final state, so this is exact
    # to within record_every
    counts["steps"] += p["record_every"] * (len(traj.times) - 1)

    with tr.span("dynamics.fit"):
        fit = blowup_fit(traj)
    gamma = fit.get("gamma", float("nan"))
    checks.record("c9b.detected", fit["detected"], fit.get("growth", traj.stopped_by))
    checks.record("c9b.gamma", C9B_GAMMA[0] <= gamma <= C9B_GAMMA[1], gamma)

    with tr.span("dynamics.modulation"):
        trace = modulation_extract(traj, gs, ps)
    counts["frames"] += len(trace.times)
    counts["frames_converged"] += int(np.sum(trace.flags))

    okf = trace.flags & (trace.lam > C9B_LAMBDA_WINDOW[0]) & (trace.lam < C9B_LAMBDA_WINDOW[1])
    spread = b_over_lam = float("nan")
    if fit["detected"] and np.count_nonzero(okf) >= 2:
        lam, bb, tt = trace.lam[okf], trace.b[okf], trace.times[okf]
        ratio = lam / (fit["T_star"] - tt)
        spread = float(ratio.max() / ratio.min() - 1.0)
        b_over_lam = float(np.mean(bb / lam))
    b_target = float(1.0 / np.sqrt(ps.e_mu / u0.energy))
    checks.record("c9b.spread", spread <= C9B_SPREAD, spread)
    checks.record("c9b.b_over_lambda", abs(b_over_lam / b_target - 1.0) <= C9B_B_OVER_LAMBDA,
                  {"b_over_lambda": b_over_lam, "target": b_target})


RUN = {"groundstate-4096": run_groundstate, "spectra-1536": run_spectra,
       "blowup-1024": run_blowup}

COUNTERS = ("newton_iters", "flow_iters", "eigensolves", "constrained_solves", "steps",
            "frames", "frames_converged", "cli_files", "cli_bytes")


def kernel_census(grids):
    """Kernels held on the workload's grids: how many and their bytes."""
    kernels = [v for g in grids for k, v in g._cache.items() if k[0] == "hartree_kernel"]
    return len(kernels), sum(k.matrix.nbytes for k in kernels)


def _median_call_s(fn, min_calls, seconds):
    times = []
    stop = time.monotonic() + seconds
    while len(times) < min_calls or time.monotonic() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


LINEAR_PROBE_STEPS = 200


def run_probes(p, grids, tr, ctx):
    """Per-layer probes at the workload's n, run after the timed pipeline."""
    import numpy as np
    from dcnls.dynamics import evolve, make_initial_data
    from dcnls.grid import apply_generator
    from dcnls.hartree import hartree_apply
    from dcnls.linop import assemble_channel_operator, solve_with_constraints

    grid = grids[0]
    probe = p["probe"]
    out = {}
    with tr.span("probe.hartree_matvec"):
        rng = np.random.default_rng(probe["density_seed"])
        dens = rng.random(grid.n) * np.exp(-grid.nodes ** 2 / 4.0)
        out["matvec_s"] = _median_call_s(lambda: hartree_apply(grid, dens), 20, 0.3)

    with tr.span("probe.constrained_solve"):
        gs = ctx["probe_gs"]
        src = apply_generator(gs.Q)

        def solve():
            # a fresh operator each call, so its dense matrix is built each time
            op = assemble_channel_operator(gs, "minus", 0)
            solve_with_constraints(op, src, [gs.Q])

        out["constrained_solve_s"] = _median_call_s(solve, 1, 1.0)

    with tr.span("probe.linear_step"):
        u0 = make_initial_data("gaussian", grid=grid, width=probe["gauss_width"],
                               amplitude=probe["gauss_amplitude"])
        dt = 2e-4
        grid.laplacian_banded(0)    # built once per grid; not part of a step

        def linear_run():
            evolve(u0, 0.0, dt=dt, t_final=LINEAR_PROBE_STEPS * dt, linear_only=True,
                   record_every=LINEAR_PROBE_STEPS)

        out["linear_step_s"] = _median_call_s(linear_run, 3, 0.3) / LINEAR_PROBE_STEPS
    return out
