"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    return {(name, key): val for name, mod in list(sys.modules.items())
            if name == "intgeo" or name.startswith("intgeo.")
            for key, val in vars(mod).items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_identical_results(workload, tmp_path):
    import intgeo.cli  # noqa: F401
    from intgeo.estimation import RunningMean

    caches, commands = workloads.build(workload, 7, str(tmp_path))
    checks = worker.Checks()
    worker.run_workload(caches, str(tmp_path), checks, "cache", None)
    _, plain = worker.run_workload(commands, str(tmp_path), checks, "plain", None)
    before, update = _bindings(), RunningMean.update
    trace = tracer.Tracer()
    with trace:
        assert intgeo.cli.main is not before[("intgeo.cli", "main")]
        _, traced = worker.run_workload(commands, str(tmp_path), checks, "traced", None)
    after = _bindings()
    assert after.keys() == before.keys() and RunningMean.update is update
    assert all(after[k] is v for k, v in before.items())
    assert checks.failed == []
    assert [worker.digest(r) for r in traced] == [worker.digest(r) for r in plain]
    assert trace.stats["cli.main"].calls == len(commands)
    assert all(s is not None for s in trace.spans)
    layers = trace.layer_metrics(1)
    probe_only = {"cli.thread_speedup", "cli.thread_invariant", "trace.overhead_s"}
    assert {name for name, _, _ in tracer.PER_LAYER} - probe_only <= set(layers)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "tta_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cj-spectra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
