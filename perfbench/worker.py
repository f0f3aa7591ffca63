"""One repetition of one workload, in a process of its own.

Started by run.py with the BLAS thread variables already set to 1 in its
environment, so they hold when numpy loads.  Usage:

    python3 perfbench/worker.py '<json spec>'

The spec names the workload parameters, the mode ("pipeline" or "setup"),
whether to trace, the parent's monotonic clock reading at spawn and a
scratch directory.  The worker prints its result as one line starting
with RESULT_TAG; the parent turns those results into metrics.
"""

import json
import os
import resource
import sys
import time
import traceback

import pipelines
from spans import NullTracer, Tracer

RESULT_TAG = "PERFBENCH_RESULT "
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _versions():
    import numpy
    import scipy

    def blas(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
    }


def main(spec):
    p = spec["params"]
    tr = Tracer(spec["rep_id"], root_start=spec["t_spawn"]) if spec["trace"] else NullTracer()
    grids = pipelines.setup(p, tr)
    result = {"t_setup": time.monotonic()}
    if spec["mode"] == "pipeline":
        checks = pipelines.Checks(pipelines.CHECKS[p["workload"]])
        ctx = {"counts": dict.fromkeys(pipelines.COUNTERS, 0), "work_dir": spec["work_dir"]}
        error = None
        try:
            pipelines.RUN[p["workload"]](p, grids, tr, checks, ctx)
        except Exception as exc:    # a failed stage is a result to report, not a crash
            error = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
            traceback.print_exc()
            checks.fail_rest(type(exc).__name__)
        result["t_verified"] = time.monotonic()
        tr.close_root(result["t_verified"])
        result.update(checks=checks.summary(), error=error, counts=ctx["counts"])
        result["kernels"], result["kernel_bytes"] = pipelines.kernel_census(grids)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["os_threads"] = _os_threads()
    result["thread_env"] = {var: os.environ.get(var) for var in THREAD_VARS}
    result["versions"] = _versions()
    if spec["trace"] and spec["mode"] == "pipeline":
        result["probes"] = pipelines.run_probes(p, grids, tr, ctx) if error is None else {}
        result["spans"] = tr.spans
    print(RESULT_TAG + json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
