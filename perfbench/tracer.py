"""Spans around the public functions of wfcolor, aggregated as they close.

``Tracer.install()`` replaces each public function listed in ``SPANS`` (a
module attribute, a class attribute or an entry of ``protocols.ACTIVATE``)
with a wrapper that times the call. Spans nest: the parent of a span is the
innermost span open when it starts. Hot spans open about once per activation,
10^6 times a run, so no span is stored; each closes into a running
(calls, total, self) entry per (name, parent), and memory stays flat. Self
time is a span's duration minus the time its child spans cover.

``Execution`` looks up ``ACTIVATE[protocol]`` when it is built, so install
the tracer before any execution is constructed.
"""

from __future__ import annotations

import time
from collections import Counter

from wfcolor import analysis, cointoss, engine, model, protocols, schedulers

ACTIVATE_SPANS = {
    protocols.SLOW6: "protocols.slow6_activate",
    protocols.SLOW5: "protocols.slow5_activate",
    protocols.FAST5: "protocols.fast5_activate",
    protocols.DELTASQ: "protocols.deltasq_activate",
}


def _returned(args, kwargs, result) -> int:
    return type(result) is protocols.Return


def _recorded(args, kwargs, result) -> int:
    return kwargs.get("record", args[2] if len(args) > 2 else True)


def _checked(args, kwargs, result) -> int:
    return result.checked


# (owner, attribute, span name, optional (counter name, count function)).
# A function bound under two names is wrapped under both.
SPANS = [
    (model, "cycle", "model.cycle", None),
    (model, "random_connected_graph", "model.random_connected_graph", None),
    (model, "random_unique_ids", "model.random_unique_ids", None),
    (model, "monotone_chain_ids", "model.monotone_chain_ids", None),
    (model, "explicit_ids", "model.explicit_ids", None),
    *(
        (protocols.ACTIVATE, protocol, name, ("protocols.returns", _returned))
        for protocol, name in ACTIVATE_SPANS.items()
    ),
    (protocols, "cv_reduce", "cointoss.cv_reduce", None),
    (cointoss, "cv_reduce", "cointoss.cv_reduce", None),
    (engine, "new_execution", "engine.new_execution", None),
    (schedulers, "new_execution", "engine.new_execution", None),
    (engine.Execution, "apply_step", "engine.apply_step", ("engine.recorded_steps", _recorded)),
    (engine, "run", "engine.run", None),
    (engine.TraceFileWriter, "__init__", "engine.encode", None),
    (engine.TraceFileWriter, "__call__", "engine.encode", None),
    (engine.TraceFileWriter, "finish", "engine.encode", None),
    (engine, "read_trace", "engine.decode", None),
    (schedulers.Scheduler, "at", "schedulers.at", None),
    (schedulers.Scheduler, "support_after", "schedulers.support_after", None),
    (schedulers, "make_scheduler", "schedulers.make_scheduler", None),
    (schedulers, "exhaustive_check", "schedulers.exhaustive_check", None),
    (schedulers, "worst_case_search", "schedulers.worst_case_search", None),
    (analysis.XhatColoringObserver, "__call__", "analysis.xhat_observer", None),
    *(
        (analysis, f"{audit}_audit", f"analysis.{audit}_audit", ("analysis.checked", _checked))
        for audit in ("parity", "ab_exclusion", "ab_growth", "activation_bound")
    ),
    (analysis, "check_proper_coloring", "analysis.coloring_checks", None),
    (analysis, "check_palette", "analysis.coloring_checks", None),
]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Installs the spans and aggregates them; see the module docstring."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter[str] = Counter()
        self._names: list[str | None] = [None]
        self._child_s: list[float] = [0.0]
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans = self.spans
        counts = self.counts
        names = self._names
        child_s = self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = names[-1]
            names.append(name)
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                names.pop()
                inner = child_s.pop()
                child_s[-1] += duration
                entry = spans.get((name, parent))
                if entry is None:
                    spans[(name, parent)] = [1, duration, duration - inner]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - inner
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in SPANS:
            original = _get(owner, attr)
            self._originals.append((owner, attr, original))
            _set(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            _set(owner, attr, original)

    def take(self) -> "SpanTable":
        """The spans and counts recorded since the last take; recording
        starts afresh."""
        spans = {key: tuple(entry) for key, entry in self.spans.items()}
        table = SpanTable(spans, Counter(self.counts))
        self.spans.clear()
        self.counts.clear()
        return table


class SpanTable:
    """Aggregated spans of one phase: (name, parent) -> (calls, total_s, self_s)."""

    def __init__(self, spans: dict[tuple[str, str | None], tuple], counts: Counter) -> None:
        self.spans = spans
        self.counts = counts

    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(e[0] for (n, p), e in self.spans.items() if n == name and parent in ("*", p))

    def total_s(self, name: str) -> float:
        return sum(e[1] for (n, _), e in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(e[2] for (n, _), e in self.spans.items() if n == name)

    def self_sum_s(self, prefix: str = "") -> float:
        return sum(e[2] for (n, _), e in self.spans.items() if n.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_module_metrics(
    setup: SpanTable, run: SpanTable, stats: dict[str, int]
) -> dict[str, tuple[float, str]]:
    """The per-module metrics of one traced pass, as name -> (value, unit).

    ``setup`` holds the spans of the pass's set-up, ``run`` those of its timed
    operations, ``stats`` the counts the workload read off its results.
    A rate or ratio whose base is zero on a workload reads 0.
    """
    m: dict[str, tuple[float, str]] = {}
    m["model.setup_s"] = (setup.self_sum_s("model."), "s")
    activate_calls = 0
    for name in ACTIVATE_SPANS.values():
        calls = run.calls(name)
        activate_calls += calls
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (run.self_s(name), "s")
    m["protocols.return_ratio"] = (_ratio(run.counts["protocols.returns"], activate_calls), "ratio")
    m["cointoss.cv_reduce.calls"] = (run.calls("cointoss.cv_reduce"), "count")
    m["cointoss.cv_reduce.self_s"] = (run.self_s("cointoss.cv_reduce"), "s")
    m["engine.new_execution.self_s"] = (run.self_s("engine.new_execution"), "s")
    m["engine.apply_step.calls"] = (run.calls("engine.apply_step"), "count")
    m["engine.apply_step.self_s"] = (run.self_s("engine.apply_step"), "s")
    m["engine.activations"] = (
        sum(run.calls(name, "engine.apply_step") for name in ACTIVATE_SPANS.values()),
        "count",
    )
    m["engine.recorded_steps"] = (run.counts["engine.recorded_steps"], "count")
    m["engine.run.self_s"] = (run.self_s("engine.run"), "s")
    trace_mb = stats.get("trace_bytes", 0) / 1e6
    m["engine.trace_bytes"] = (stats.get("trace_bytes", 0), "B")
    for codec in ("encode", "decode"):
        seconds = run.self_s(f"engine.{codec}")
        m[f"engine.{codec}.self_s"] = (seconds, "s")
        m[f"engine.{codec}_mb_per_s"] = (_ratio(trace_mb, seconds), "MB/s")
    m["schedulers.at.calls"] = (run.calls("schedulers.at"), "count")
    m["schedulers.at.self_s"] = (run.self_s("schedulers.at"), "s")
    m["schedulers.support_after.self_s"] = (run.self_s("schedulers.support_after"), "s")
    m["schedulers.make_scheduler.self_s"] = (run.self_s("schedulers.make_scheduler"), "s")
    explored = stats.get("explored", 0)
    memo_hits = stats.get("memo_hits", 0)
    transitions = stats.get("transitions", 0)
    m["schedulers.exhaustive_check.self_s"] = (run.self_s("schedulers.exhaustive_check"), "s")
    m["schedulers.exhaustive_check.explored"] = (explored, "count")
    m["schedulers.exhaustive_check.memo_hits"] = (memo_hits, "count")
    m["schedulers.exhaustive_check.transitions"] = (transitions, "count")
    m["schedulers.exhaustive_check.memo_hit_ratio"] = (_ratio(memo_hits, transitions), "ratio")
    m["schedulers.exhaustive_check.transitions_per_s"] = (
        _ratio(transitions, run.total_s("schedulers.exhaustive_check")),
        "1/s",
    )
    m["schedulers.worst_case_search.evaluations"] = (
        run.calls("engine.new_execution", "schedulers.worst_case_search"),
        "count",
    )
    m["schedulers.worst_case_search.self_s"] = (run.self_s("schedulers.worst_case_search"), "s")
    m["analysis.xhat_observer.calls"] = (run.calls("analysis.xhat_observer"), "count")
    m["analysis.xhat_observer.self_s"] = (run.self_s("analysis.xhat_observer"), "s")
    for audit in ("parity", "ab_exclusion", "ab_growth", "activation_bound"):
        m[f"analysis.{audit}_audit.self_s"] = (run.self_s(f"analysis.{audit}_audit"), "s")
    m["analysis.checked"] = (run.counts["analysis.checked"], "count")
    m["analysis.coloring_checks.self_s"] = (run.self_s("analysis.coloring_checks"), "s")
    return m

