"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

Smoke mode shrinks every workload to a few seconds; these tests check
that each workload emits every metric BENCHMARK.json declares, with its
unit, and that the benchmark refuses to run without the source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]

sys.path.insert(0, str(ROOT / "bench"))
from tracer import pass_metrics  # noqa: E402


def run_bench(root, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    res = run_bench(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DEFINITION["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)  # end-to-end metrics are never 0
    report = json.loads(res.stdout.splitlines()[-2])
    env = report["environment"]
    assert env["seed"] == 5 and env["blas_threads_pinned"] == 1 and env["nproc"] >= 1
    assert all(set(s) == {"median", "q1", "q3", "n"} for s in report["summary"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(tmp_path, WORKLOADS[0], 0)
    assert res.returncode != 0
    assert res.stdout == ""


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["experiment.run", 1.0, 9.0, 0],
        ["panel.simulate", 2.0, 6.0, 1],
        ["fbm.exact", 3.0, 5.0, 2],
    ]
    m = pass_metrics(spans, {}, wall=12.0)
    assert m["cli.self_s"] == 2.0
    assert m["experiment.self_s"] == 4.0
    assert m["panel.simulate_s"] == 2.0
    assert m["fbm.exact_s"] == 2.0
    assert m["trace.coverage"] == 10.0 / 12.0
