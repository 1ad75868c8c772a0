"""Benchmark of wfcolor: one workload per call, untraced or traced.

    python3 perfbench/run.py --workload big_cycle --seed 0 --seconds 30 --trace 0

The workloads are big_cycle, sweep_small, trace_audit and model_check (see
workloads.py; BENCHMARK.json says why each was chosen). A run repeats passes
until the next one would end after --seconds, with at least one pass. A pass
sets up fresh inputs, times the workload's fixed set of operations and checks
every result. The run reports medians over its passes. All times are host
time, in one process and one thread.

After every half second of a pass's timed operations, between operations
or inside a long engine.run, the run times a fixed pure-Python reference
loop outside the timed region (workloads.Stopwatch). wall_over_ref, the
operations' time in units of the reference loop's, is the time
BENCHMARK.json gates: the shared host's speed drifts by 10-30% between runs
of the same code, and both times drift with it.

--trace 0 prints the end-to-end metrics. --trace 1 measures untraced for the
first half of --seconds, then wraps wfcolor's public functions with spans
(tracer.py) for the second half. It prints the per-module metrics of the
median traced pass and trace_overhead_frac, and writes them, with the machine
facts, to .bench_build/perfbench/trace-<workload>-<seed>.json.

Every line but the last is for people: the machine facts, each metric with its
unit, fail_frac, the checks that failed and the digest of every simulated
statistic. The last line is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is 0 after a completed run, even when
checks failed (correct is false then), and 2 on bad arguments or when the
wfcolor sources are not found in src/ beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("big_cycle", "sweep_small", "trace_audit", "model_check")


def locate_source() -> bool:
    """Put the checkout's src/ first on the import path; False when the
    wfcolor sources are not there."""
    if not os.path.isfile(os.path.join(SOURCE, "wfcolor", "__init__.py")):
        return False
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    return True


def machine_facts() -> dict:
    numpy = None
    if importlib.util.find_spec("numpy") is not None:
        numpy = importlib.metadata.version("numpy")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # from KiB


def time_setups(setup, seed, small) -> list[float]:
    """Set-up times on top of the passes' own. A cheap set-up is repeated
    until half a second or 100 samples, so that its median is steady."""
    samples: list[float] = []
    begin = time.perf_counter()
    while len(samples) < 100 and time.perf_counter() - begin < 0.5:
        start = time.perf_counter()
        setup(seed, small, WORKDIR)
        samples.append(time.perf_counter() - start)
    return samples


@dataclass
class Pass:
    setup_s: float
    result: "workloads.PassResult"
    spans: tuple | None  # (set-up SpanTable, operations SpanTable) when traced


def run_passes(setup, run, seed, small, checker, deadline, tracer=None) -> list[Pass]:
    passes = []
    while True:
        gc.collect()
        start = time.perf_counter()
        inputs = setup(seed, small, WORKDIR)
        setup_s = time.perf_counter() - start
        setup_spans = tracer.take() if tracer else None
        result = run(inputs, checker)
        del inputs  # so the next set-up does not hold two sets of inputs
        spans = (setup_spans, tracer.take()) if tracer else None
        passes.append(Pass(setup_s, result, spans))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return passes


def median_pass(passes: list[Pass]) -> Pass:
    return sorted(passes, key=lambda p: p.result.wall_s)[(len(passes) - 1) // 2]


def recorded_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_digests(name, seed, small, passes, checker) -> str:
    """All passes must simulate identically; at the default seed and full
    size the digest must equal the recorded one. Returns a status word."""
    digests = {p.result.digest.hexdigest() for p in passes}
    checker.check(f"{name} digest", [] if len(digests) == 1 else ["passes simulated differently"])
    if small or seed != DEFAULT_SEED:
        return "not recorded for this seed and size"
    recorded = recorded_digests().get(name)
    same = digests == {recorded}
    checker.check(f"{name} recorded digest", [] if same else [f"recorded digest is {recorded}"])
    return "matches the recorded digest" if same else "DIFFERS from the recorded digest"


def end_to_end_metrics(
    name: str, setups: list[float], passes: list[Pass]
) -> dict[str, tuple[float, str]]:
    wall_s = statistics.median(p.result.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups + [p.setup_s for p in passes]), "s"),
        "wall_over_ref": (statistics.median(p.result.wall_over_ref for p in passes), "ratio"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # printed only: wall_s drifts 10-30% with the shared host's speed between
    # runs, which wall_over_ref cancels; the rest are not defined on every
    # workload, and BENCHMARK.json gates only metrics that every workload reports
    if name in ("big_cycle", "sweep_small"):
        activations = passes[0].result.activations
        metrics["activations_per_s"] = (activations / wall_s, "1/s")
    if name == "sweep_small":
        # per pass, so that memory does not grow with the number of passes
        for i, metric in enumerate(("run_p50_ms", "run_p99_ms")):
            value = statistics.median(p.result.run_p50_p99_s[i] for p in passes)
            metrics[metric] = (value * 1e3, "ms")
    return metrics


GATED = ("setup_s", "wall_over_ref", "peak_rss_mb")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not locate_source():
        print(f"error: no wfcolor sources in {SOURCE}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    name, seed, small = args.workload, args.seed, args.small
    setup, run = workloads.WORKLOADS[name]
    checker = workloads.Checker()
    facts = machine_facts()
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    start = time.perf_counter()
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    setups = time_setups(setup, seed, small)
    passes = run_passes(setup, run, seed, small, checker, start + untraced_s)
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        workloads.Stopwatch.inside_runs = False
        try:
            traced = run_passes(setup, run, seed, small, checker, start + args.seconds, tracer)
        finally:
            tracer.uninstall()
            workloads.Stopwatch.inside_runs = True
    status = check_digests(name, seed, small, passes + traced, checker)

    print(f"workload {name} seed={seed} passes={len(passes)} traced_passes={len(traced)}")
    print("wall_s of each pass: " + " ".join(f"{p.result.wall_s:.4f}" for p in passes + traced))
    ratios = " ".join(f"{p.result.wall_over_ref:.2f}" for p in passes + traced)
    print(f"wall_over_ref of each pass: {ratios}")
    e2e = end_to_end_metrics(name, setups, passes)
    for metric, (value, unit) in e2e.items():
        print(f"metric {metric} {value:.6g} {unit}")
    report = {metric: e2e[metric] for metric in GATED}
    if traced:
        report = traced_report(name, seed, facts, e2e["wall_s"][0], traced, checker)
    print(f"metric fail_frac {checker.fail_frac:.6g} ratio ({checker.failed}/{checker.attempted})")
    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(f"digest {name} seed={seed} {passes[0].result.digest.hexdigest()} ({status})")
    for line in passes[0].result.digest.lines:
        print(f"  {line}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
            }
        )
    )
    return 0


def traced_report(name, seed, facts, untraced_wall_s, traced, checker) -> dict:
    import tracer as tracing

    chosen = median_pass(traced)
    setup_spans, run_spans = chosen.spans
    metrics = tracing.per_module_metrics(setup_spans, run_spans, chosen.result.stats)
    traced_wall_s = statistics.median(p.result.wall_s for p in traced)
    metrics["trace_overhead_frac"] = (traced_wall_s / untraced_wall_s - 1, "ratio")
    self_sum_s = run_spans.self_sum_s()
    within = self_sum_s <= chosen.result.wall_s + 1e-9
    checker.check(
        f"{name} span self times",
        [] if within else [f"sum {self_sum_s:.6f} s exceeds wall_s {chosen.result.wall_s:.6f} s"],
    )
    not_exercised = {
        metric: f"{name} does not call this layer"
        for metric, (value, _) in metrics.items()
        if value == 0
    }
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} {value:.6g} {unit}")
    print(f"span self times: {self_sum_s:.6g} s in a traced pass of {chosen.result.wall_s:.6g} s")
    print("not exercised: " + (", ".join(not_exercised) or "none"))
    path = os.path.join(WORKDIR, f"trace-{name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "machine": facts,
                "untraced_wall_s": untraced_wall_s,
                "traced_wall_s": traced_wall_s,
                "self_sum_s": self_sum_s,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "not_exercised": not_exercised,
            },
            fh,
            indent=1,
        )
    print(f"per-module metrics written to {os.path.relpath(path, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
