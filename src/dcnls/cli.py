"""Command-line driver: run directories, manifests, CSV export.

Subcommands map to the library pipelines: `groundstate`, `spectrum`,
`profile`, `evolve`, `virial`, `rate`, and `report`.  Every run writes a
directory with self-describing CSV files (header row with names and
units) and an atomically written manifest listing configuration,
tolerances, wall-clock, outcome, and a checksum inventory of the
produced files.  Reruns with identical configuration produce
byte-identical data files.

Configuration precedence: command line > config file (flat key=value
lines) > defaults.
"""

import argparse
import gc
import hashlib
import json
import os
import sys
import time

__all__ = ["run_command", "main"]

_DEFAULTS = {
    "mu": 0.0,
    "grid_n": 1024,
    "rmax": 40.0,
    "lmax": 4,
    "k": 6,
    "b": 0.1,
    "d": 0.0,
    "preset": "minimal-mass",
    "out": "runs",
    "threads": 0,
}

# keys that name a run directory when they differ from their default
_RUN_KEYS = ("rmax", "lmax", "k", "b", "d", "preset")

# bounds of the `report` checks; the pass/fail checks report 0 or 1 against 0.5
_REPORT_BOUNDS = {
    "groundstate_eq_residual": 1e-8,
    "groundstate_pohozaev": 1e-6,
    "nondegeneracy": 0.5,
    "hartree_calibration_ratio_err": 1e-4,
    "e_mu_positive": 0.5,
    "p_mu_positive": 0.5,
}


def _tolerances():
    """The bounds in force: the report table plus the solver constants."""
    from .linop import GAP_TOL, SOLVABILITY_TOL, ZERO_TOL

    return {**_REPORT_BOUNDS, "profile_solvability": SOLVABILITY_TOL,
            "kernel_zero": ZERO_TOL, "kernel_gap": GAP_TOL}


def _config_file_args(path):
    """The file's flat `key = value` lines as `--key=value` arguments."""
    args = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            args.append(f"--{key.replace('_', '-')}={val}")
    return args


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _checksum(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _finish_run(run_dir, command, cfg, status, started, extra=None, diagnostics=None):
    from . import __version__

    inventory = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "manifest.json":
            continue
        inventory[name] = _checksum(os.path.join(run_dir, name))
    manifest = {
        "command": command,
        "configuration": {k: cfg[k] for k in sorted(cfg)},
        "code_version": __version__,
        "grid": {"n": cfg["grid_n"], "r_max": cfg["rmax"], "stretch": "tanh"},
        "tolerances": _tolerances(),
        "wall_clock_seconds": time.time() - started,
        "status": status,
        "files": inventory,
    }
    if extra:
        manifest["summary"] = extra
    if diagnostics:
        manifest["diagnostics"] = diagnostics
    tmp = os.path.join(run_dir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(run_dir, "manifest.json"))


def _field_csv(run_dir, name, grid, values):
    _write_csv(
        os.path.join(run_dir, name),
        ["r[length]", "Re", "Im"],
        [grid.nodes, values.real, values.imag],
    )


def _cmd_groundstate(cfg, run_dir):
    import numpy as np

    from .groundstate import functional_report, solve_Q_mu
    from .grid import build_grid

    grid = build_grid(cfg["grid_n"], cfg["rmax"], "tanh")
    gs = solve_Q_mu(cfg["mu"], grid)
    _field_csv(run_dir, "Q_mu.csv", grid, gs.Q.values.astype(complex))
    rep = functional_report(gs)
    keys = sorted(rep)
    _write_csv(
        os.path.join(run_dir, "functional_report.csv"),
        keys,
        [[rep[k]] for k in keys],
    )
    return {"mass": rep["mass"], "eq_residual": rep["eq_residual"],
            "newton_iters": gs.diagnostics["newton_iters"]}


def _cmd_spectrum(cfg, run_dir):
    from .grid import build_grid
    from .groundstate import solve_Q_mu
    from .linop import check_spectrum_request, nondegeneracy_report

    check_spectrum_request(cfg["lmax"], cfg["k"])
    grid = build_grid(cfg["grid_n"], cfg["rmax"], "tanh")
    gs = solve_Q_mu(cfg["mu"], grid)
    rep = nondegeneracy_report(gs, l_max=cfg["lmax"], k=cfg["k"])
    rows = []
    for (kind, l), entry in rep["channels"].items():
        for idx, ev in enumerate(entry["eigenvalues"]):
            rows.append((kind, l, idx, ev))
    _write_csv(
        os.path.join(run_dir, "spectrum.csv"),
        ["kind", "l", "index", "eigenvalue"],
        [[r[0] for r in rows], [r[1] for r in rows],
         [r[2] for r in rows], [r[3] for r in rows]],
    )
    if rep["status"] != "PASSED":
        raise RuntimeError(f"non-degeneracy report failed: {rep['failures']}")
    return {"status": rep["status"], "identities": rep["identities"]}


def _cmd_profile(cfg, run_dir):
    from .grid import build_grid
    from .groundstate import solve_Q_mu
    from .profile import build_hierarchy, check_profile_request, residual_psi

    check_profile_request(cfg["b"], cfg["d"])
    grid = build_grid(cfg["grid_n"], cfg["rmax"], "tanh")
    gs = solve_Q_mu(cfg["mu"], grid)
    ps = build_hierarchy(gs)
    for name, f in ps.fields().items():
        _field_csv(run_dir, f"{name}.csv", grid, f.values.astype(complex))
    _, sup, sup_grad = residual_psi(ps, cfg["b"], cfg["d"])
    return {
        "e_mu": ps.e_mu,
        "p_mu": ps.p_mu,
        "psi_weighted_sup": sup,
        "psi_grad_weighted_sup": sup_grad,
        "solvability": ps.solvability,
    }


def _evolve_pipeline(cfg):
    from .dynamics import evolve, make_initial_data
    from .grid import build_grid
    from .groundstate import solve_classical_Q, solve_Q_mu

    grid = build_grid(cfg["grid_n"], cfg["rmax"], "tanh")
    mu = cfg["mu"]
    if cfg["preset"] == "minimal-mass":
        from .profile import build_hierarchy

        gs = solve_Q_mu(mu, grid)
        ps = build_hierarchy(gs)
        # nudged just above critical mass: the truncated profile at exactly
        # critical mass bounces off the unstable manifold once resolved
        u0 = make_initial_data("minimal_mass_profile", gs=gs, ps=ps, b0=cfg["b"],
                               mass_factor=1.0005)
        traj = evolve(u0, mu, dt=1e-3, adaptive=True, t_final=30.0,
                      stop_grad_factor=10.5, lambda0=1.0, min_scale_cells=12.0,
                      record_every=40)
        return traj, gs, ps
    if cfg["preset"] == "gaussian":
        u0 = make_initial_data("gaussian", grid=grid, width=2.0, amplitude=1.0, mu=mu)
        traj = evolve(u0, mu, dt=1e-3, t_final=1.0)
        return traj, None, None
    if cfg["preset"] == "soliton":
        gs = solve_classical_Q(grid)
        u0 = make_initial_data("rescaled_soliton", gs=gs, alpha=1.2, beta=0.8, mu=mu)
        traj = evolve(u0, mu, dt=5e-4, t_final=8.0, adaptive=True,
                      stop_grad_factor=11.0, lambda0=1.0, record_every=20)
        return traj, gs, None
    raise ValueError(f"unknown preset {cfg['preset']!r}")


def _traj_csv(run_dir, traj):
    _write_csv(
        os.path.join(run_dir, "series.csv"),
        ["t[time]", "mass", "energy", "grad_norm", "variance"],
        [traj.times, traj.mass, traj.energy, traj.grad_norm, traj.xu2],
    )


def _cmd_evolve(cfg, run_dir):
    from .dynamics import blowup_fit, modulation_extract

    traj, gs, ps = _evolve_pipeline(cfg)
    _traj_csv(run_dir, traj)
    summary = {
        "stopped_by": traj.stopped_by,
        "t_final": traj.final.t,
        "steps": traj.steps,
        "refactorizations": traj.refactorizations,
        "dt_min": traj.dt_min,
        "mass_drift_rate": traj.mass_drift_rate(),
    }
    fit = blowup_fit(traj)
    summary["blowup_fit"] = fit
    if fit.get("detected") and ps is not None:
        trace = modulation_extract(traj, gs, ps)
        _write_csv(
            os.path.join(run_dir, "modulation.csv"),
            ["t[time]", "lambda", "b", "gamma", "residual"],
            [trace.times, trace.lam, trace.b, trace.gamma, trace.residual],
        )
    return summary


def _cmd_virial(cfg, run_dir):
    from .dynamics import virial_check

    traj, _, _ = _evolve_pipeline(cfg)
    _traj_csv(run_dir, traj)
    rep = virial_check(traj)
    return {"virial": rep}


def _cmd_rate(cfg, run_dir):
    from .grid import build_grid
    from .groundstate import perturbation_rate

    grid = build_grid(cfg["grid_n"], cfg["rmax"], "tanh")
    mus = [1e-4, 10 ** -3.5, 1e-3, 10 ** -2.5]
    rep = perturbation_rate(mus, grid)
    _write_csv(
        os.path.join(run_dir, "rate.csv"),
        ["mu", "h2_difference"],
        [rep["mu_used"], rep["h2_diffs"]],
    )
    return {"slope": rep["slope"], "fit_residual": rep["fit_residual"]}


def _cmd_report(cfg, run_dir):
    from .grid import build_grid
    from .groundstate import functional_report, solve_Q_mu
    from .hartree import calibrate_channel_coefficient
    from .linop import check_spectrum_request, nondegeneracy_report
    from .profile import build_hierarchy

    check_spectrum_request(cfg["lmax"], cfg["k"])
    grid = build_grid(cfg["grid_n"], cfg["rmax"], "tanh")
    gs = solve_Q_mu(cfg["mu"], grid)
    values = {}
    rep = functional_report(gs)
    values["groundstate_eq_residual"] = rep["eq_residual"]
    values["groundstate_pohozaev"] = rep["pohozaev_defect"]
    nd = nondegeneracy_report(gs, l_max=cfg["lmax"], k=cfg["k"])
    values["nondegeneracy"] = 0.0 if nd["status"] == "PASSED" else 1.0
    cal = calibrate_channel_coefficient(grid, 0)
    values["hartree_calibration_ratio_err"] = abs(cal["fitted_ratio"] - 1)
    ps = build_hierarchy(gs)
    values["profile_solvability"] = max(ps.solvability.values())
    values["e_mu_positive"] = 0.0 if ps.e_mu > 0 else 1.0
    values["p_mu_positive"] = 0.0 if ps.p_mu > 0 else 1.0
    tol = _tolerances()
    names = list(values)
    verdicts = ["PASS" if values[k] <= tol[k] else "FAIL" for k in names]
    _write_csv(
        os.path.join(run_dir, "report.csv"),
        ["check", "value", "bound", "verdict"],
        [names, [values[k] for k in names], [tol[k] for k in names], verdicts],
    )
    status = "PASSED" if all(v == "PASS" for v in verdicts) else "FAILED"
    if status != "PASSED":
        raise RuntimeError("report found failing checks")
    return {"report": status}


_COMMANDS = {
    "groundstate": _cmd_groundstate,
    "spectrum": _cmd_spectrum,
    "profile": _cmd_profile,
    "evolve": _cmd_evolve,
    "virial": _cmd_virial,
    "rate": _cmd_rate,
    "report": _cmd_report,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dcnls",
        description="numerical laboratory for the doubly critical NLS",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value file")
    parser.add_argument("--mu", type=float)
    parser.add_argument("--grid-n", dest="grid_n", type=int)
    parser.add_argument("--rmax", type=float)
    parser.add_argument("--lmax", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--b", type=float)
    parser.add_argument("--d", type=float)
    parser.add_argument("--preset", choices=["minimal-mass", "gaussian", "soliton"])
    parser.add_argument("--out", help="parent directory for run output")
    parser.add_argument("--threads", type=int, help="BLAS/OpenMP thread cap")
    return parser


def run_command(argv):
    """Execute one subcommand; returns the process exit code (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's values go through the parser ahead of the command
            # line, so they are typed and checked alike and the command line wins
            args = parser.parse_args(_config_file_args(args.config) + list(argv))
        if args.threads is not None and not args.threads >= 0:
            parser.error(f"--threads must be >= 0, got {args.threads}")   # exits 2
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)

    cfg = dict(_DEFAULTS)
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val

    if cfg["threads"]:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(cfg["threads"])

    run_name = f"{args.command}-mu{cfg['mu']:g}-n{cfg['grid_n']}" + "".join(
        f"-{key}{cfg[key]:g}" if isinstance(cfg[key], float) else f"-{key}{cfg[key]}"
        for key in _RUN_KEYS if cfg[key] != _DEFAULTS[key]
    )
    run_dir = os.path.join(cfg["out"], run_name)
    os.makedirs(run_dir, exist_ok=True)
    for name in os.listdir(run_dir):    # the manifest lists this run's files only
        path = os.path.join(run_dir, name)
        if os.path.isfile(path):
            os.remove(path)
    started = time.time()
    try:
        summary = _COMMANDS[args.command](cfg, run_dir)
    except Exception as exc:
        from .errors import ConfigurationError

        kind = "configuration" if isinstance(exc, ConfigurationError) else "numerical"
        # the typed errors of `errors` carry a dict or one of these figures
        found = {name: getattr(exc, name) for name in ("error_estimate", "defect", "threshold")
                 if getattr(exc, name, None) is not None}
        _finish_run(run_dir, args.command, cfg, f"FAILED ({kind}): {exc}", started,
                    diagnostics=_jsonable({**getattr(exc, "diagnostics", {}), **found}))
        print(f"{kind} failure: {exc}", file=sys.stderr)
        return 2 if kind == "configuration" else 1
    finally:
        # a solved grid caches its ground state, whose fields point back at
        # the grid: free the command's grid and kernels before returning
        gc.collect()
    _finish_run(run_dir, args.command, cfg, "OK", started, extra=_jsonable(summary))
    print(f"wrote {run_dir}")
    return 0


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
