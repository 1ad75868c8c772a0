"""The four benchmark workloads and the checks on their results.

A workload is a pair of functions. ``setup(seed, small, workdir)`` builds
every graph, id assignment, scheduler and execution the workload needs;
``run(inputs, checker)`` performs the workload's fixed set of operations on
them, times each operation, checks each result and returns a ``PassResult``.
Executions are single-use, so every pass gets freshly set-up inputs.

Workloads reach the library only through module attributes (``engine.run``,
never a name imported from ``engine``), so a tracer that replaces those
attributes sees every call. The checks here use none of ``analysis``: they
re-derive what a correct result looks like from the graph and the protocol's
palette.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from wfcolor import analysis, engine, model, protocols, schedulers

SLOW6, SLOW5, FAST5, DELTASQ = (
    protocols.SLOW6,
    protocols.SLOW5,
    protocols.FAST5,
    protocols.DELTASQ,
)


class Checker:
    """Counts operations, and those whose result is wrong or missing."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def in_palette(protocol: str, color, delta: int) -> bool:
    if protocol in (SLOW6, DELTASQ):
        top = 2 if protocol == SLOW6 else delta
        return (
            isinstance(color, tuple)
            and len(color) == 2
            and all(isinstance(c, int) and c >= 0 for c in color)
            and sum(color) <= top
        )
    return isinstance(color, int) and 0 <= color <= 4


def coloring_problems(graph, trace, protocol: str) -> list[str]:
    """A run must terminate with every node returned, each output in the
    protocol's palette and no edge with the same color at both ends."""
    problems = []
    if trace.tstar is None:
        problems.append("did not terminate")
    outputs = trace.outputs
    missing = graph.node_count - len(outputs)
    if missing:
        problems.append(f"{missing} nodes did not return")
    delta = graph.max_degree
    for p, color in sorted(outputs.items()):
        if not in_palette(protocol, color, delta):
            problems.append(f"node {p} returned {color!r}, outside the {protocol} palette")
            break
    for p, q in graph.edges():
        if p in outputs and q in outputs and outputs[p] == outputs[q]:
            problems.append(f"adjacent nodes {p},{q} both returned {outputs[p]!r}")
            break
    return problems


class Digest:
    """sha256 over every simulated statistic of a pass, in a fixed order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.lines: list[str] = []

    def add(self, item: dict, line: str | None = None) -> None:
        self._hash.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        self._hash.update(b"\n")
        if line is not None:
            self.lines.append(line)

    def add_run(self, label: str, graph, trace, show: bool = True, **extra) -> None:
        n = graph.node_count
        outputs = [trace.outputs.get(p) for p in range(n)]
        activations = [trace.activations.get(p, 0) for p in range(n)]
        self.add(
            {"run": label, "outputs": outputs, "activations": activations,
             "tstar": trace.tstar, **extra},
            f"{label}: tstar={trace.tstar} activations={sum(activations)} "
            f"max={max(activations)}" + "".join(f" {k}={v}" for k, v in extra.items())
            if show
            else None,
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class PassResult:
    """One pass over a workload's operations."""

    wall_s: float  # sum of the timed operations
    wall_over_ref: float  # see Stopwatch
    digest: Digest
    run_p50_p99_s: tuple[float, float] | None = None  # latency of one run, sweep_small
    activations: int = 0  # working activations of engine.run calls; a search's are not visible
    stats: dict[str, int] = field(default_factory=dict)  # trace_bytes, explored, ...


clock = time.perf_counter
REFERENCE_EVERY_S = 0.5


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds the workloads spend their time on:
    calls, tuples, dict and set updates and integer arithmetic."""
    counts: dict[tuple[int, int], int] = {}
    seen = set()
    for i in range(20_000):
        key = (i % 251, i % 13)
        counts[key] = counts.get(key, 0) + i * 7 % 11
        seen.add(hash(key) & 1023)
    return len(seen)


def reference_s() -> float:
    """Median time of three reference loops, about 30 ms in all."""
    samples = []
    for _ in range(3):
        start = clock()
        reference_loop()
        samples.append(clock() - start)
    return statistics.median(samples)


class Stopwatch:
    """Times a pass's operations, and the reference loop between them.

    The shared host's speed drifts by 10-30% over seconds, and the reference
    loop's time drifts with it. Once REFERENCE_EVERY_S of operations have gone
    by since the last reference sample, the loop is sampled again, outside the
    timed region: at the next start(), or inside a long engine.run when the
    stopwatch is one of its observers. wall_over_ref sums each stretch of
    operations divided by the mean of the reference samples on either side.

    A traced pass reports no wall_over_ref, and sets inside_runs to False:
    a sample inside engine.run would count in that span's self time.
    """

    inside_runs = True

    def __init__(self) -> None:
        self.wall_s = 0.0
        self._over_ref = 0.0
        self._stretch_s = 0.0
        self._reference_s = reference_s()
        self._operation_s = 0.0
        self._lap_start = 0.0

    def start(self) -> None:
        if self._stretch_s >= REFERENCE_EVERY_S:
            self._close_stretch()
        self._operation_s = 0.0
        self._lap_start = clock()

    def __call__(self, record) -> None:
        """As an engine observer: a point inside an operation where the
        reference loop may be sampled."""
        if not self.inside_runs:
            return
        self._lap()
        if self._stretch_s >= REFERENCE_EVERY_S:
            self._close_stretch()
        self._lap_start = clock()

    def stop(self) -> float:
        """The operation's time since start(), which it adds to the pass."""
        self._lap()
        return self._operation_s

    def _lap(self) -> None:
        lap = clock() - self._lap_start
        self._operation_s += lap
        self._stretch_s += lap
        self.wall_s += lap

    def _close_stretch(self) -> None:
        after = reference_s()
        self._over_ref += self._stretch_s / ((self._reference_s + after) / 2)
        self._reference_s = after
        self._stretch_s = 0.0

    def wall_over_ref(self) -> float:
        if self._stretch_s:
            self._close_stretch()
        return self._over_ref


# --- big_cycle ---------------------------------------------------------------

def setup_big_cycle(seed: int, small: bool, workdir: str) -> list:
    n = 500 if small else 10**5
    graph = model.cycle(n)
    horizon = engine.default_horizon(FAST5, n)
    specs = [
        ("chain/sync", model.monotone_chain_ids(n), "sync"),
        ("random/rand:0.5", model.random_unique_ids(graph, seed=seed), f"rand:0.5:{seed}"),
    ]
    return [
        (
            label,
            graph,
            engine.new_execution(graph, ids, FAST5),
            schedulers.make_scheduler(text, n),
            analysis.XhatColoringObserver(graph),
            horizon,
            seed,
        )
        for label, ids, text in specs
    ]


def run_big_cycle(inputs: list, checker: Checker) -> PassResult:
    digest = Digest()
    watch = Stopwatch()
    activations = 0
    for label, graph, execution, scheduler, observer, horizon, seed in inputs:
        watch.start()
        trace = engine.run(
            execution, scheduler, horizon, [observer, watch], keep_steps=False, seed=seed
        )
        watch.stop()
        problems = coloring_problems(graph, trace, FAST5)
        if not observer.report.passed:
            problems.append("xhat_coloring observer flagged a violation")
        checker.check(f"big_cycle {label}", problems)
        digest.add_run(label, graph, trace)
        activations += sum(trace.activations.values())
    return PassResult(watch.wall_s, watch.wall_over_ref(), digest, activations=activations)


# --- sweep_small -------------------------------------------------------------

def setup_sweep_small(seed: int, small: bool, workdir: str) -> dict:
    sizes = range(3, 6) if small else range(3, 17)
    id_seeds = 2 if small else 20
    sched_seeds = 2 if small else 10
    graphs = {n: model.cycle(n) for n in sizes}
    wc_graph = model.cycle(8)
    wc_budget = 200 if small else 2000  # a few tenths of a second
    return {
        "graphs": graphs,
        "ids": {
            n: [model.random_unique_ids(g, seed=id_seeds * seed + k) for k in range(id_seeds)]
            for n, g in graphs.items()
        },
        # seed 0 gives the acceptance grid's 22 schedules
        "schedules": ["sync", "rr"]
        + [f"rand:{p}:{sched_seeds * seed + s}" for p in (0.3, 0.7) for s in range(sched_seeds)],
        "worst_case": (wc_graph, model.random_unique_ids(wc_graph, seed=seed), wc_budget),
        "seed": seed,
    }


def run_sweep_small(inputs: dict, checker: Checker) -> PassResult:
    digest = Digest()
    watch = Stopwatch()
    latencies = []
    activations = 0
    for protocol in (SLOW6, SLOW5):
        for n, graph in inputs["graphs"].items():
            horizon = engine.default_horizon(protocol, n)
            bound = 3 * n // 2 + 4 if protocol == SLOW6 else 3 * n + 8
            for k, ids in enumerate(inputs["ids"][n]):
                for text in inputs["schedules"]:
                    watch.start()
                    scheduler = schedulers.make_scheduler(text, n)
                    execution = engine.new_execution(graph, ids, protocol)
                    trace = engine.run(execution, scheduler, horizon, (), keep_steps=False)
                    reports = (
                        analysis.check_proper_coloring(graph, trace.outputs),
                        analysis.check_palette(trace.outputs, protocol, graph.max_degree),
                    )
                    latencies.append(watch.stop())
                    problems = coloring_problems(graph, trace, protocol)
                    problems += [f"{r.name} audit failed" for r in reports if not r.passed]
                    worst = max(trace.activations.values())
                    if worst > bound:
                        problems.append(f"{worst} activations exceed the bound {bound}")
                    checker.check(f"sweep_small {protocol} n={n} ids={k} {text}", problems)
                    digest.add_run(f"{protocol}/n={n}/ids={k}/{text}", graph, trace, show=False)
                    activations += sum(trace.activations.values())
    graph, ids, budget = inputs["worst_case"]
    watch.start()
    found, worst = schedulers.worst_case_search(graph, ids, SLOW6, budget, inputs["seed"])
    watch.stop()
    bound = 3 * graph.node_count // 2 + 4
    problems = [] if 1 <= worst <= bound else [f"worst case {worst} outside 1..{bound}"]
    checker.check("sweep_small worst_case_search", problems)
    digest.add(
        {"run": "worst_case_search", "worst": worst, "sets": [sorted(s) for s in found.sets]},
        f"worst_case_search slow6 n={graph.node_count} budget={budget}: worst={worst}",
    )
    digest.lines.insert(0, f"{len(latencies)} engine runs, {activations} working activations")
    quantiles = (statistics.median(latencies), statistics.quantiles(latencies, n=100)[98])
    return PassResult(watch.wall_s, watch.wall_over_ref(), digest, quantiles, activations)


# --- trace_audit -------------------------------------------------------------

def setup_trace_audit(seed: int, small: bool, workdir: str) -> list:
    specs = [
        ("chain/sync", 40 if small else 400, "chain", "sync"),
        ("random/rand:0.5", 200 if small else 10**4, "random", f"rand:0.5:{seed}"),
    ]
    inputs = []
    for label, n, id_kind, text in specs:
        graph = model.cycle(n)
        if id_kind == "chain":
            ids = model.monotone_chain_ids(n)
        else:
            ids = model.random_unique_ids(graph, seed=seed)
        inputs.append(
            (
                label,
                graph,
                ids,
                engine.new_execution(graph, ids, SLOW6),
                schedulers.make_scheduler(text, n),
                engine.default_horizon(SLOW6, n),
                seed,
                os.path.join(workdir, f"trace-{id_kind}.jsonl"),
            )
        )
    return inputs


def run_trace_audit(inputs: list, checker: Checker) -> PassResult:
    digest = Digest()
    watch = Stopwatch()
    activations = 0
    trace_bytes = 0
    audits = (
        analysis.parity_audit,
        analysis.ab_exclusion_audit,
        analysis.ab_growth_audit,
        analysis.activation_bound_audit,
    )
    for label, graph, ids, execution, scheduler, horizon, seed, path in inputs:
        watch.start()
        with open(path, "w", encoding="utf-8") as fh:
            writer = engine.TraceFileWriter(
                fh, engine.TraceHeader(graph, ids, SLOW6, scheduler.text, seed, horizon)
            )
            trace = engine.run(
                execution, scheduler, horizon, [writer, watch], keep_steps=True, seed=seed
            )
            writer.finish(trace)
        watch.stop()
        watch.start()
        decoded = engine.read_trace(path)
        watch.stop()
        reports = []
        for audit in audits:
            watch.start()
            reports.append(audit(decoded))
            watch.stop()
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        problems = coloring_problems(graph, trace, SLOW6)
        if (decoded.outputs, decoded.activations, decoded.tstar) != (
            trace.outputs,
            trace.activations,
            trace.tstar,
        ):
            problems.append("decoded trace differs from the one in memory")
        problems += [f"{r.name} audit failed" for r in reports if not r.passed]
        checker.check(f"trace_audit {label}", problems)
        digest.add_run(label, graph, trace, trace_sha256=hashlib.sha256(data).hexdigest())
        activations += sum(trace.activations.values())
        trace_bytes += len(data)
    return PassResult(
        watch.wall_s, watch.wall_over_ref(), digest,
        activations=activations, stats={"trace_bytes": trace_bytes},
    )


# --- model_check -------------------------------------------------------------

def ranked_ids(graph, seed: int, ranks: tuple[int, ...]):
    """Seeded random ids, placed so that node p holds the ranks[p]-th smallest.

    An exhaustive check's cost depends on the order of the ids alone, not on
    their values: on C5 it is 1,895 or 18,361 configurations as the order
    varies. Fixing the order keeps the workload's cost the same on every
    seed, while the seed still draws the values."""
    values = sorted(model.random_unique_ids(graph, seed=seed).ids)
    return model.explicit_ids(graph, [values[r] for r in ranks])


def setup_model_check(seed: int, small: bool, workdir: str) -> list:
    c3 = model.cycle(3)
    c4 = model.cycle(4)
    c5 = model.cycle(5)
    # the check's cost varies fourfold with the graph drawn, so the graph is
    # the one seed 0 draws (K4); the ranks are the orders seed 0 draws
    general = model.random_connected_graph(4, 3, 0)
    c5_ranks = (1, 3, 2, 4, 0)
    triangle_ids = model.explicit_ids(c3, (1, 2, 5))
    # Each check explores at most a few thousand configurations, so that a
    # pass takes half a second and its memo stays small. slow6 on C5 with
    # chain ids and bound 11 explores 60k configurations in 5 s, and its time
    # moves with the cache use of the host's other tenants.
    # (label, graph, ids, protocol, activation bound or None, known verdict);
    # slow5 and fast5 livelock on this triangle, so fail is the right answer
    return [
        ("slow6/C4/chain/bound10", c4, model.monotone_chain_ids(4), SLOW6, 10, "pass"),
        ("slow6/C5/random/bound11", c5, ranked_ids(c5, seed, c5_ranks), SLOW6, 11, "pass"),
        ("slow6/C5/random/safety", c5, ranked_ids(c5, seed, c5_ranks), SLOW6, None, "pass"),
        ("deltasq/G4/random/safety", general, ranked_ids(general, seed, (0, 2, 1, 3)),
         DELTASQ, None, "pass"),
        ("slow5/C3/1,2,5/bound25", c3, triangle_ids, SLOW5, 25, "fail"),
        ("fast5/C3/1,2,5/bound25", c3, triangle_ids, FAST5, 25, "fail"),
    ]


def run_model_check(inputs: list, checker: Checker) -> PassResult:
    digest = Digest()
    watch = Stopwatch()
    explored = memo_hits = transitions = 0
    for label, graph, ids, protocol, bound, expected in inputs:
        watch.start()
        report = schedulers.exhaustive_check(graph, ids, protocol, bound)
        watch.stop()
        verdict = report.verdict
        problems = [] if verdict == expected else [f"verdict {verdict}, known answer {expected}"]
        checker.check(f"model_check {label}", problems)
        digest.add(
            {"run": label, "verdict": verdict, "explored": report.explored,
             "memo_hits": report.memo_hits, "max_activations": report.max_activations},
            f"{label}: verdict={verdict} explored={report.explored} memo_hits={report.memo_hits}",
        )
        explored += report.explored
        memo_hits += report.memo_hits
        transitions += report.explored - 1 + report.memo_hits
    stats = {"explored": explored, "memo_hits": memo_hits, "transitions": transitions}
    return PassResult(watch.wall_s, watch.wall_over_ref(), digest, stats=stats)


WORKLOADS = {
    "big_cycle": (setup_big_cycle, run_big_cycle),
    "sweep_small": (setup_sweep_small, run_sweep_small),
    "trace_audit": (setup_trace_audit, run_trace_audit),
    "model_check": (setup_model_check, run_model_check),
}
