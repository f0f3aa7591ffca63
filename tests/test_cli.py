import json
import os
import subprocess
import sys
import weakref

import pytest

import dcnls.grid
from dcnls.cli import run_command


def _run(args, cwd):
    return run_command(args + ["--out", os.path.join(cwd, "runs")])


def test_groundstate_smoke(tmp_path):
    code = _run(["groundstate", "--mu", "0.05", "--grid-n", "256"], str(tmp_path))
    assert code == 0
    run_dir = tmp_path / "runs" / "groundstate-mu0.05-n256"
    assert (run_dir / "Q_mu.csv").exists()
    assert (run_dir / "functional_report.csv").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "OK"
    assert "Q_mu.csv" in manifest["files"]
    iters = manifest["summary"]["newton_iters"]
    assert isinstance(iters, int) and iters > 0
    header = (run_dir / "Q_mu.csv").read_text().splitlines()[0]
    assert header == "r[length],Re,Im"


def test_command_frees_its_grid(tmp_path, monkeypatch):
    # the solved grid caches its ground state, whose fields refer back to the
    # grid; the command's grid and kernels must not outlive run_command
    refs = []
    build = dcnls.grid.build_grid

    def spy(*args):
        grid = build(*args)
        refs.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(dcnls.grid, "build_grid", spy)
    assert _run(["groundstate", "--mu", "0.02", "--grid-n", "256"], str(tmp_path)) == 0
    assert len(refs) == 1 and refs[0]() is None


def test_spectrum_smoke(tmp_path):
    code = _run(["spectrum", "--mu", "0.02", "--grid-n", "256", "--lmax", "2",
                 "--k", "3"], str(tmp_path))
    assert code == 0
    run_dir = tmp_path / "runs" / "spectrum-mu0.02-n256-lmax2-k3"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["summary"]["status"] == "PASSED"


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run_command(["groundstate", "--bogus", "1"]) == 2


def test_unknown_command_exits_2():
    assert run_command(["frobnicate"]) == 2


def test_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.03\ngrid_n = 512\n")
    code = run_command(["groundstate", "--config", str(cfg), "--grid-n", "256",
                        "--out", str(tmp_path / "runs")])
    assert code == 0
    # CLI overrides the file; the file overrides defaults
    assert (tmp_path / "runs" / "groundstate-mu0.03-n256").exists()


def test_bad_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert run_command(["groundstate", "--config", str(cfg)]) == 2


def test_bad_config_preset_exits_2(tmp_path):
    # a config-file value is checked like the same value on the command line
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = bogus\n")
    assert _run(["evolve", "--config", str(cfg), "--grid-n", "256"], str(tmp_path)) == 2
    assert _run(["evolve", "--preset", "bogus", "--grid-n", "256"], str(tmp_path)) == 2


def test_out_of_range_coupling_exits_2(tmp_path):
    code = _run(["groundstate", "--mu", "0.3", "--grid-n", "256"], str(tmp_path))
    assert code == 2
    run_dir = tmp_path / "runs" / "groundstate-mu0.3-n256"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"].startswith("FAILED (configuration)")
    assert _run(["groundstate", "--mu", "nan", "--grid-n", "256"], str(tmp_path)) == 2


@pytest.mark.parametrize("args", [["spectrum", "--rmax", "1e300"], ["groundstate", "--rmax", "nan"],
                                  ["groundstate", "--rmax", "inf"], ["profile", "--b", "nan"],
                                  # shorter than the soliton's tail fit
                                  ["groundstate", "--rmax", "10"]])
def test_non_finite_or_overflowing_input_exits_2(tmp_path, args):
    assert _run(args + ["--grid-n", "256"], str(tmp_path)) == 2
    (manifest,) = (tmp_path / "runs").glob("*/manifest.json")
    assert json.loads(manifest.read_text())["status"].startswith("FAILED (configuration)")
    # refused before any solve, so the run wrote nothing but its manifest
    assert os.listdir(manifest.parent) == ["manifest.json"]


def test_negative_thread_cap_exits_2_before_export(tmp_path, monkeypatch):
    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in variables:
        monkeypatch.delenv(var, raising=False)
    assert _run(["groundstate", "--grid-n", "256", "--threads", "-1"], str(tmp_path)) == 2
    assert not any(var in os.environ for var in variables)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flags", [["--lmax", "-1"], ["--k", "1"], ["--k", "0"]])
def test_out_of_range_spectrum_request_exits_2(tmp_path, flags):
    # the kernel checks need L_+ on channels 0 and 1 and two eigenvalues each
    code = _run(["spectrum", "--mu", "0.02", "--grid-n", "256"] + flags, str(tmp_path))
    assert code == 2
    (manifest,) = (tmp_path / "runs").glob("*/manifest.json")
    assert json.loads(manifest.read_text())["status"].startswith("FAILED (configuration)")


@pytest.mark.parametrize("command", ["spectrum", "report"])
def test_spectrum_request_checked_before_the_solve(tmp_path, monkeypatch, command):
    import dcnls.groundstate

    def no_solve(*args, **kwargs):
        raise RuntimeError("the ground state was solved")

    monkeypatch.setattr(dcnls.groundstate, "solve_Q_mu", no_solve)
    assert _run([command, "--grid-n", "256", "--k", "1"], str(tmp_path)) == 2
    (manifest,) = (tmp_path / "runs").glob("*/manifest.json")
    assert json.loads(manifest.read_text())["status"].startswith("FAILED (configuration)")


@pytest.mark.parametrize("mu", ["0.02", "0"])
def test_untabulated_channel_refused_before_the_solve(tmp_path, monkeypatch, mu):
    # the kernel is tabulated for channels 0..7 only, so --lmax 8 cannot be
    # served at any coupling
    import dcnls.groundstate

    def no_solve(*args, **kwargs):
        raise RuntimeError("the ground state was solved")

    monkeypatch.setattr(dcnls.groundstate, "solve_Q_mu", no_solve)
    code = _run(["spectrum", "--mu", mu, "--grid-n", "256", "--lmax", "8"], str(tmp_path))
    assert code == 2
    (manifest,) = (tmp_path / "runs").glob("*/manifest.json")
    assert json.loads(manifest.read_text())["status"].startswith("FAILED (configuration)")


def test_numerical_failure_exits_1(tmp_path, monkeypatch):
    import dcnls.cli as cli

    def boom(cfg, run_dir):
        raise RuntimeError("synthetic solver breakdown")

    monkeypatch.setitem(cli._COMMANDS, "groundstate", boom)
    code = _run(["groundstate", "--grid-n", "256"], str(tmp_path))
    assert code == 1
    run_dir = tmp_path / "runs" / "groundstate-mu0-n256"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"].startswith("FAILED (numerical)")


def test_failed_eigensolve_exits_1(tmp_path, monkeypatch):
    from dcnls import hartree

    # a negative bound lifts the shift above L_+,0's lowest eigenvalue, so the
    # Cholesky factor of B - sigma I fails
    monkeypatch.setattr(hartree.HodlrMatrix, "dressed_row_sum_bound", lambda self, d: -1e3)
    code = _run(["spectrum", "--mu", "0.02", "--grid-n", "256"], str(tmp_path))
    assert code == 1
    run_dir = tmp_path / "runs" / "spectrum-mu0.02-n256"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"].startswith("FAILED (numerical)")
    assert manifest["diagnostics"]["leaf"] == "0:256"


def test_failed_run_keeps_its_diagnostics(tmp_path, monkeypatch):
    import numpy as np

    from dcnls import groundstate
    from dcnls.errors import ConvergenceError

    def stalled(grid, q0, mu):
        raise ConvergenceError("Newton did not reach tolerance",
                               diagnostics={"mu": mu, "best_residual": np.float64(3.3e-9),
                                            "tol": 1e-9})

    monkeypatch.setattr(groundstate, "_newton_polish", stalled)
    code = _run(["groundstate", "--mu", "0.05", "--grid-n", "256"], str(tmp_path))
    assert code == 1
    run_dir = tmp_path / "runs" / "groundstate-mu0.05-n256"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "FAILED (numerical): Newton did not reach tolerance"
    assert manifest["diagnostics"]["best_residual"] == 3.3e-9
    assert manifest["diagnostics"]["tol"] == 1e-9


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = run_command(["groundstate", "--mu", "0.01", "--grid-n", "256",
                            "--threads", "1", "--out", str(out)])
        assert code == 0
    f1 = (out1 / "groundstate-mu0.01-n256" / "Q_mu.csv").read_bytes()
    f2 = (out2 / "groundstate-mu0.01-n256" / "Q_mu.csv").read_bytes()
    assert f1 == f2
    r1 = (out1 / "groundstate-mu0.01-n256" / "functional_report.csv").read_bytes()
    r2 = (out2 / "groundstate-mu0.01-n256" / "functional_report.csv").read_bytes()
    assert r1 == r2


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dcnls.cli"],
        input="", capture_output=True, text=True,
    )
    assert proc.returncode == 2   # missing required subcommand


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    return env


def test_cli_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dcnls.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_threads_flag_caps_blas(tmp_path):
    script = (
        "import sys\n"
        "from dcnls.cli import run_command\n"
        "codes = [run_command(['groundstate', '--grid-n', '256', '--threads', '1',\n"
        "                      '--out', out]) for out in sys.argv[1:]]\n"
        "threads = [l.split()[1] for l in open('/proc/self/status')\n"
        "           if l.startswith('Threads:')][0]\n"
        "print(*codes, threads)\n"
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    proc = subprocess.run([sys.executable, "-c", script, *map(str, outs)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "0", "1"]
    for name in ("Q_mu.csv", "functional_report.csv"):
        a, b = ((out / "groundstate-mu0-n256" / name).read_bytes() for out in outs)
        assert a == b


def test_groundstate_cold_and_warm_shooting_byte_identical(tmp_path):
    # a fresh process reads the soliton table itself; in-process, the
    # shooting profile cached by an earlier grid seeds the Newton polish
    from dcnls.grid import build_grid
    from dcnls.groundstate import solve_classical_Q

    args = ["groundstate", "--mu", "0.01", "--grid-n", "256", "--threads", "1"]
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    proc = subprocess.run([sys.executable, "-m", "dcnls.cli", *args, "--out", str(cold)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    solve_classical_Q(build_grid(192, 40.0, "tanh"))
    assert run_command(args + ["--out", str(warm)]) == 0
    for name in ("Q_mu.csv", "functional_report.csv"):
        a, b = ((out / "groundstate-mu0.01-n256" / name).read_bytes() for out in (cold, warm))
        assert a == b


def test_spectrum_byte_identical_across_processes(tmp_path):
    # the eigensolver starts from a fixed vector, so fresh processes agree
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "dcnls.cli", "spectrum", "--mu", "0.02", "--grid-n", "256",
             "--threads", "1", "--out", str(out)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
    a, b = ((out / "spectrum-mu0.02-n256" / "spectrum.csv").read_bytes() for out in outs)
    assert a == b


def test_failed_rerun_lists_no_stale_files(tmp_path, monkeypatch):
    import dcnls.cli as cli
    from dcnls.errors import ConfigurationError

    args = ["groundstate", "--mu", "0.05", "--grid-n", "256"]
    assert _run(args, str(tmp_path)) == 0

    def refuse(cfg, run_dir):
        raise ConfigurationError("synthetic bad configuration")

    monkeypatch.setitem(cli._COMMANDS, "groundstate", refuse)
    assert _run(args, str(tmp_path)) == 2
    run_dir = tmp_path / "runs" / "groundstate-mu0.05-n256"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"].startswith("FAILED (configuration)")
    assert manifest["files"] == {}


def test_runs_differing_only_in_rmax_keep_their_own_results(tmp_path):
    args = ["groundstate", "--mu", "0.05", "--grid-n", "256"]
    assert _run(args, str(tmp_path)) == 0
    assert _run(args + ["--rmax", "30"], str(tmp_path)) == 0
    for name, r_max in (("groundstate-mu0.05-n256", 40.0),
                        ("groundstate-mu0.05-n256-rmax30", 30.0)):
        run_dir = tmp_path / "runs" / name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["grid"]["r_max"] == r_max
        assert "Q_mu.csv" in manifest["files"]
        assert (run_dir / "Q_mu.csv").exists()


def test_manifest_tolerances_are_the_constants_in_force(tmp_path):
    import dcnls.cli as cli
    from dcnls import linop

    assert _run(["groundstate", "--grid-n", "256"], str(tmp_path)) == 0
    run_dir = tmp_path / "runs" / "groundstate-mu0-n256"
    tol = json.loads((run_dir / "manifest.json").read_text())["tolerances"]
    assert tol["kernel_zero"] == linop.ZERO_TOL
    assert tol["kernel_gap"] == linop.GAP_TOL
    assert tol["profile_solvability"] == linop.SOLVABILITY_TOL
    for name, bound in cli._REPORT_BOUNDS.items():
        assert tol[name] == bound
    assert len(tol) == len(cli._REPORT_BOUNDS) + 3
