"""Self-check of the benchmark: each workload once at reduced n.

    python3 -m pytest perfbench/test_perfbench.py

At reduced n the correctness checks are not expected to pass; these tests
check that every metric BENCHMARK.json names is emitted with its unit, and
that a tree without the dcnls sources gets an error and no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-work"))


def test_refuses_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_subtract_children():
    spans = [
        {"name": "rep", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "setup", "start": 0.5, "end": 3.0, "parent": 0},
        {"name": "hartree.kernel_build", "start": 1.0, "end": 2.5, "parent": 1},
        {"name": "dynamics.evolve", "start": 3.0, "end": 9.0, "parent": 0},
    ]
    assert self_times(spans) == {"rep": 1.5, "setup": 1.0,
                                 "hartree.kernel_build": 1.5, "dynamics.evolve": 6.0}
