"""The dcnls benchmark: one workload, one run, metrics as the last stdout line.

    python3 perfbench/run.py --workload spectra-1536 --seed 0 --seconds 35 --trace 0

Load shape: a closed loop with one client.  Each repetition is one worker
process (perfbench/worker.py) that imports dcnls, sets up and runs the
workload's pipeline start to finish and checks its outputs; the next
repetition starts when it has exited.  Workers run one at a time with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before
numpy loads.

--trace 0 repeats the pipeline while another repetition is expected to end
within --seconds (at least one repetition), then starts set-up-only workers
until there are SETUP_SAMPLES set-up times.  It reports the medians of
wall_s (spawn to verified result), setup_s (spawn to the end of set-up:
imports, grids, channel operators and Hartree kernels) and peak_rss_mb
(the worker's ru_maxrss).

--trace 1 runs one untraced and one traced repetition.  The traced one
wraps spans around the calls into each dcnls layer, then runs the layer
probes after its result is verified, so probes never enter wall_s.  It
reports per-layer self times, counts and probes, the traced wall time,
the tracing overhead (traced minus untraced wall_s) and the time no layer
span covers.

`attempted` and `failed` count correctness checks over all repetitions;
their ratio is the checks_failed_frac of each run.  `--small` runs the
workloads at reduced n for the benchmark's self-check, where the checks
are not expected to pass.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402
from worker import RESULT_TAG, THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, draw_params  # noqa: E402

SETUP_SAMPLES = 2         # the run budget has no room for a third 4096 set-up
RUN_LIMIT_S = 170.0         # every run must end within 180 s
MB = 1e6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; the "_s" times are self times of the span of
# the same name without the suffix
PER_LAYER = {
    "setup.import_s": "s",
    "grid.assembly_s": "s",
    "hartree.kernel_build_s": "s",
    "hartree.kernel_builds": "count",
    "hartree.kernel_mb": "MB",
    "hartree.matvec_us": "us",
    "groundstate.classical_s": "s",
    "groundstate.continuation_s": "s",
    "groundstate.flow_s": "s",
    "groundstate.newton_iters": "count",
    "groundstate.flow_iters": "count",
    "linop.nondegeneracy_s": "s",
    "linop.eigensolves": "count",
    "linop.constrained_solve_ms": "ms",
    "profile.hierarchy_s": "s",
    "profile.constrained_solves": "count",
    "profile.residual_s": "s",
    "profile.expansions_s": "s",
    "dynamics.initial_data_s": "s",
    "dynamics.evolve_s": "s",
    "dynamics.steps": "count",
    "dynamics.step_us": "us",
    "dynamics.linear_step_us": "us",
    "dynamics.modulation_s": "s",
    "dynamics.frames": "count",
    "dynamics.frames_converged_ratio": "ratio",
    "dynamics.fit_s": "s",
    "cli.command_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class BenchError(RuntimeError):
    """The run cannot produce a result (missing sources, crashed worker)."""


def _git_sha():
    """HEAD's commit from .git, or None where the tree is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(params, mode, trace, rep_id, work_dir, deadline):
    """Run one worker to completion; returns its result with times made relative."""
    t_spawn = time.monotonic()
    spec = {"params": params, "mode": mode, "trace": trace, "rep_id": rep_id,
            "t_spawn": t_spawn, "work_dir": work_dir}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                            env=_worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker passed the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    t_exit = time.monotonic()
    tagged = [line for line in out.splitlines() if line.startswith(RESULT_TAG)]
    if proc.returncode != 0 or not tagged:
        raise BenchError(f"{mode} worker exited with code {proc.returncode} and no result")
    res = json.loads(tagged[-1][len(RESULT_TAG):])
    res["setup_s"] = res["t_setup"] - t_spawn
    res["process_s"] = t_exit - t_spawn
    if mode == "pipeline":
        res["wall_s"] = res["t_verified"] - t_spawn
    for span in res.get("spans", []):
        span["start"] -= t_spawn
        span["end"] -= t_spawn
    return res


def _checks_line(rep):
    bad = [c for c in rep["checks"] if not c["ok"]]
    text = f"{len(rep['checks']) - len(bad)}/{len(rep['checks'])} checks passed"
    for c in bad:
        text += f"\n    FAILED {c['name']}: {c['value']}"
    if rep["error"]:
        text += f"\n    stage raised {rep['error']}"
    return text


def _layer_metrics(traced, untraced_wall):
    """Per-layer metrics of one traced repetition."""
    selfs = self_times(traced["spans"])
    counts = traced["counts"]
    probes = traced.get("probes", {})
    out = {}
    for name in PER_LAYER:
        if name.endswith("_s") and not name.startswith("trace."):
            out[name] = selfs.get(name[:-2], 0.0)
    steps = counts["steps"]
    frames = counts["frames"]
    out.update({
        "hartree.kernel_builds": traced["kernels"],
        "hartree.kernel_mb": traced["kernel_bytes"] / MB,
        "hartree.matvec_us": probes.get("matvec_s", 0.0) * 1e6,
        "groundstate.newton_iters": counts["newton_iters"],
        "groundstate.flow_iters": counts["flow_iters"],
        "linop.eigensolves": counts["eigensolves"],
        "linop.constrained_solve_ms": probes.get("constrained_solve_s", 0.0) * 1e3,
        "profile.constrained_solves": counts["constrained_solves"],
        "dynamics.steps": steps,
        "dynamics.step_us": out["dynamics.evolve_s"] / steps * 1e6 if steps else 0.0,
        "dynamics.linear_step_us": probes.get("linear_step_s", 0.0) * 1e6,
        "dynamics.frames": frames,
        "dynamics.frames_converged_ratio": counts["frames_converged"] / frames if frames else 0.0,
        "cli.files_written": counts["cli_files"],
        "cli.bytes_written": counts["cli_bytes"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
        "trace.unaccounted_s": selfs.get("rep", 0.0) + selfs.get("setup", 0.0),
    })
    return out


def run(workload, seed, seconds, trace, small=False, log=print):
    """One benchmark run; returns (result dict for the last line, info dict)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dcnls", "__init__.py")):
        raise BenchError(f"dcnls sources not found under {os.path.join(ROOT, 'src')}")
    params = draw_params(workload, seed, small)
    log(f"perfbench {workload} seed {seed}: {json.dumps(params)}")
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        reps = []
        setups = []
        while True:
            rep = _spawn(params, "pipeline", False, len(reps), work_dir, deadline)
            reps.append(rep)
            setups.append(rep["setup_s"])
            log(f"rep {len(reps)}: wall {rep['wall_s']:.3f} s, setup {rep['setup_s']:.3f} s, "
                f"rss {rep['maxrss_kb'] * 1024 / MB:.1f} MB, {_checks_line(rep)}")
            if trace:
                traced = _spawn(params, "pipeline", True, len(reps), work_dir, deadline)
                reps.append(traced)
                log(f"traced rep: wall {traced['wall_s']:.3f} s, {_checks_line(traced)}")
                break
            elapsed = time.monotonic() - started
            if elapsed + rep["process_s"] > min(seconds, RUN_LIMIT_S / 2):
                break
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(params, "setup", False, -1, work_dir, deadline)["setup_s"])
        log(f"setup samples: {', '.join(f'{s:.3f}' for s in setups)} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    attempted = sum(len(r["checks"]) for r in reps)
    failed = sum(not c["ok"] for r in reps for c in r["checks"])
    if trace:
        values = _layer_metrics(reps[1], reps[0]["wall_s"])
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] * 1024 / MB for r in reps),
        }
        units = END_TO_END
    info = {
        "workload": workload,
        "params": params,
        "repetitions": len(reps),
        "checks_failed_frac": failed / attempted,
        "checks": [r["checks"] for r in reps],
        "stage_errors": [r["error"] for r in reps if r["error"]],
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": reps[0]["thread_env"],
        "os_threads": [r["os_threads"] for r in reps],
        "versions": reps[0]["versions"],
    }
    if trace:
        info["spans"] = reps[1]["spans"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced n, for the benchmark's self-check")
    args = parser.parse_args(argv)
    # a terminated run still stops and waits for its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"checks_failed_frac = {info['checks_failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps({"perfbench_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
