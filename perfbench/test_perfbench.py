"""Tests of the benchmark itself, each workload on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run

assert run.locate_source()

import workloads  # noqa: E402  (needs the path locate_source sets)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

PRINTED_ONLY = {
    "big_cycle": {"wall_s": "s", "activations_per_s": "1/s"},
    "sweep_small": {
        "wall_s": "s", "activations_per_s": "1/s", "run_p50_ms": "ms", "run_p99_ms": "ms"
    },
    "trace_audit": {"wall_s": "s"},
    "model_check": {"wall_s": "s"},
}


def bench(capsys, *args: str) -> tuple[dict[str, str], dict]:
    """Run the benchmark in-process; the printed metrics as name -> unit,
    and the result line."""
    assert run.main([*args, "--seed", "3", "--seconds", "1", "--small"]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, value, unit = line.split()[1:4]
            float(value)
            printed[name] = unit
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    printed, result = bench(capsys, "--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    expected["fail_frac"] = "ratio"
    if trace == "0":
        expected.update(PRINTED_ONLY[workload])
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    assert {k: printed.get(k) for k in expected} == expected


def test_a_wrong_coloring_counts_as_a_failure(capsys, monkeypatch):
    real_run = workloads.engine.run

    def miscoloring_run(*args, **kwargs):
        trace = real_run(*args, **kwargs)
        trace.outputs[1] = trace.outputs[0]  # nodes 0 and 1 are adjacent on every cycle
        return trace

    monkeypatch.setattr(workloads.engine, "run", miscoloring_run)
    printed, result = bench(capsys, "--workload", "sweep_small", "--trace", "0")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert printed["fail_frac"] == "ratio"


def test_the_checker_flags_each_kind_of_wrong_result():
    graph = workloads.model.cycle(4)
    ids = workloads.model.monotone_chain_ids(4)
    execution = workloads.engine.new_execution(graph, ids, "slow6")
    trace = workloads.engine.run(execution, workloads.schedulers.make_scheduler("sync", 4), 50)
    good = dict(trace.outputs)
    assert workloads.coloring_problems(graph, trace, "slow6") == []
    missing = {p: c for p, c in good.items() if p != 3}
    for outputs in ({**good, 1: good[0]}, {**good, 2: (3, 0)}, missing):
        trace.outputs = outputs
        assert workloads.coloring_problems(graph, trace, "slow6")
    trace.outputs, trace.tstar = good, None
    assert workloads.coloring_problems(graph, trace, "slow6")


def test_the_stopwatch_samples_the_reference_loop_outside_operations(monkeypatch):
    def slow_reference_s():
        time.sleep(0.05)
        return 0.05

    monkeypatch.setattr(workloads, "reference_s", slow_reference_s)
    monkeypatch.setattr(workloads, "REFERENCE_EVERY_S", 0.0)
    watch = workloads.Stopwatch()
    watch.start()
    watch(None)  # a step inside engine.run, where the reference loop is sampled
    assert watch.stop() == watch.wall_s < 0.05
    assert watch.wall_over_ref() == pytest.approx(watch.wall_s / 0.05)


def test_without_the_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big_cycle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert done.stdout == ""
