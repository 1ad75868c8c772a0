"""Command-line harness for reproducible coloring experiments.

Subcommands: run, sweep, mc, worstcase, audit, lemmas. Exit codes are stable
across subcommands: 0 on success, 1 on any property violation,
counterexample, or non-termination, 2 on usage or configuration errors.

Options may come from a line-oriented key=value config file (--config);
explicit command-line flags override file values. The WFC_SEED environment
variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import sys
import time
from dataclasses import dataclass, fields

from . import analysis, cointoss, engine, model, schedulers
from .protocols import FAST5, PROTOCOLS, SLOW5, SLOW6

OK = 0
VIOLATION = 1
USAGE = 2

_INLINE_IDS = re.compile(r"^\d+(,\d+)+$")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One experiment: what to run, under which schedule, and where to put it."""

    protocol: str | None = None
    n: int | None = None
    graph: str | None = None
    ids: str | None = None
    seed: int | None = None
    sched: str | None = None
    horizon: int | None = None
    trials: int | None = None
    trace: str | None = None
    bound: int | None = None
    budget: int | None = None

    _INTS = ("n", "seed", "horizon", "trials", "bound", "budget")

    @classmethod
    def from_text(cls, text: str, source: str = "config") -> "ExperimentConfig":
        """The config in text; an error names source and the line."""
        cfg = cls()
        known = {f.name for f in fields(cls)}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source} line {lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
            if key in cls._INTS:
                try:
                    value = int(value)
                except ValueError:
                    raise ConfigError(
                        f"{source} line {lineno}: {key} must be an integer, got {value!r}"
                    ) from None
            setattr(cfg, key, value)
        return cfg

    def override(self, **values) -> None:
        for key, value in values.items():
            if value is not None:
                setattr(self, key, value)


def load_config(path: str) -> ExperimentConfig:
    with model.open_text(path, "config file") as fh:
        return ExperimentConfig.from_text(fh.read(), f"config file {path}")


def _default_seed() -> int:
    text = os.environ.get("WFC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"WFC_SEED must be an integer, got {text!r}") from None


def _experiment(cfg: ExperimentConfig) -> model.Graph:
    """Checks the settings every command shares and returns the graph."""
    if cfg.protocol not in PROTOCOLS:
        raise ConfigError(f"--protocol must be one of {'|'.join(PROTOCOLS)}")
    if cfg.graph is not None:
        return model.load_edge_list(cfg.graph)
    if cfg.n is not None:
        return model.cycle(cfg.n)
    raise ConfigError("need either --n or --graph")


def _resolve_ids(cfg: ExperimentConfig, graph: model.Graph, seed: int) -> model.IdAssignment:
    mode = cfg.ids or "random"
    if mode == "random":
        return model.random_unique_ids(graph, seed=seed)
    if mode == "chain":
        if not graph.is_cycle:
            raise ConfigError("chain ids are defined on cycles")
        return model.monotone_chain_ids(graph.node_count)
    if mode.startswith("proper:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"id mode {mode!r} is not proper:<k> with an integer k") from None
        return model.proper_coloring_ids(graph, k, seed=seed)
    if mode.startswith("file:"):
        return model.load_ids(mode.split(":", 1)[1], graph)
    if _INLINE_IDS.match(mode):
        return model.explicit_ids(graph, [int(v) for v in mode.split(",")])
    raise ConfigError(f"unknown id mode {mode!r}")


def _bound(cfg: ExperimentConfig, protocol: str, n: int) -> int | None:
    """--bound when given, else the protocol's declared bound on the n-cycle."""
    if cfg.bound is None:
        return analysis.declared_bound(protocol, n)
    if cfg.bound < 0:
        raise ConfigError(f"--bound must be at least 0, got {cfg.bound}")
    return cfg.bound


def _horizon(cfg: ExperimentConfig, protocol: str, n: int) -> int:
    if cfg.horizon is None:
        return engine.default_horizon(protocol, n)
    if cfg.horizon < 1:
        raise ConfigError(f"--horizon must be at least 1, got {cfg.horizon}")
    return cfg.horizon


def _reseed(descriptor: schedulers.Descriptor, salt: int) -> schedulers.Descriptor:
    if isinstance(descriptor, schedulers.RandomSched):
        return schedulers.RandomSched(descriptor.p_act, _derive(descriptor.seed, salt))
    if isinstance(descriptor, schedulers.CrashSched):
        return schedulers.CrashSched(_reseed(descriptor.base, salt), descriptor.crash_times)
    return descriptor


def _derive(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _fast5_observers(protocol: str, graph: model.Graph) -> list:
    """The streaming audit of fast5's published-identifier coloring."""
    return [analysis.XhatColoringObserver(graph)] if protocol == FAST5 else []


def _outcome_audits(
    graph: model.Graph, protocol: str, trace: engine.Trace, observers: list
) -> list[analysis.AuditReport]:
    """What a run returned is a proper coloring inside the palette, and no
    audit observer flagged a step."""
    return [
        analysis.check_proper_coloring(graph, trace.outputs),
        analysis.check_palette(trace.outputs, protocol, graph.max_degree),
    ] + [observer.report for observer in observers]


_STEP_AUDITS = {
    SLOW6: analysis.heard_of_audits,
    SLOW5: lambda trace: [analysis.stop_rule_audit(trace)],
}


def _step_audits(trace: engine.Trace) -> list[analysis.AuditReport]:
    """The activation bound and lemma audits of a trace's kept steps, for the
    protocols that have them."""
    audits = _STEP_AUDITS.get(trace.header.protocol)
    return [analysis.activation_bound_audit(trace), *audits(trace)] if audits else []


def _print_outcome(trace: engine.Trace, reports: list[analysis.AuditReport]) -> int:
    """Print a trace's outcome and audits; OK when it terminated and every
    audit passed."""
    if trace.terminated:
        print(f"terminated: yes (tstar={trace.tstar})")
        print(f"round_complexity: {analysis.round_complexity(trace)}")
    else:
        print(f"terminated: no (horizon={trace.header.horizon})")
    print(f"max_activations: {max(trace.activations.values(), default=0)}")
    print(f"returned: {len(trace.outputs)}/{trace.header.graph.node_count}")
    for report in reports:
        print(f"audit {report.summary()}")
        for t, node, detail in report.violations[:10]:
            print(f"  violation t={t} node={node}: {detail}")
    if not trace.terminated or any(not r.passed for r in reports):
        return VIOLATION
    return OK


def cmd_run(cfg: ExperimentConfig, from_trace: str | None = None) -> int:
    if from_trace is not None:
        header = _read_header(from_trace)
        graph, ids = header.graph, header.ids
        protocol, sched_text = header.protocol, header.sched
        seed, horizon = header.seed, header.horizon
    else:
        graph = _experiment(cfg)
        seed = cfg.seed
        ids = _resolve_ids(cfg, graph, seed)
        protocol = cfg.protocol
        sched_text = cfg.sched or "sync"
        horizon = _horizon(cfg, protocol, graph.node_count)
    execution = engine.new_execution(graph, ids, protocol)
    scheduler = schedulers.make_scheduler(sched_text, graph.node_count)

    audit_observers = _fast5_observers(protocol, graph)
    observers = list(audit_observers)
    writer = None
    trace_fh = None
    if cfg.trace:
        trace_fh = open(cfg.trace, "w", encoding="utf-8")
        writer = engine.TraceFileWriter(
            trace_fh,
            engine.TraceHeader(graph, ids, protocol, scheduler.text, seed, horizon),
        )
        observers.append(writer)

    keep_steps = protocol in _STEP_AUDITS
    trace = engine.run(execution, scheduler, horizon, observers, keep_steps, seed)
    if writer is not None:
        writer.finish(trace)
        trace_fh.close()
    return _print_outcome(
        trace, _outcome_audits(graph, protocol, trace, audit_observers) + _step_audits(trace)
    )


def cmd_audit(path: str) -> int:
    """Audit a stored trace as run audits the trace it writes."""
    trace = engine.read_trace(path)
    graph, protocol = trace.header.graph, trace.header.protocol
    observers = _fast5_observers(protocol, graph)
    for observer in observers:
        for record in trace.steps:
            observer(record)
    return _print_outcome(
        trace, _outcome_audits(graph, protocol, trace, observers) + _step_audits(trace)
    )


def _read_header(path: str) -> engine.TraceHeader:
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        return engine.parse_header(line.decode())
    except ValueError as exc:
        raise ConfigError(f"trace file {path} line 1: {exc}") from None


def cmd_sweep(cfg: ExperimentConfig) -> int:
    graph = _experiment(cfg)
    trials = cfg.trials if cfg.trials is not None else 0
    if trials < 1:
        raise ConfigError("--trials must be at least 1")
    n = graph.node_count
    protocol = cfg.protocol
    horizon = _horizon(cfg, protocol, n)
    base_descriptor = schedulers.parse_descriptor(cfg.sched or "sync")
    bound = _bound(cfg, protocol, n)

    def trial_inputs(trial: int) -> tuple[int, engine.Execution, schedulers.Scheduler]:
        seed = _derive(cfg.seed, trial)
        execution = engine.new_execution(graph, _resolve_ids(cfg, graph, seed), protocol)
        return seed, execution, schedulers.Scheduler(_reseed(base_descriptor, trial), n)

    first = trial_inputs(0)  # a malformed id mode or schedule exits 2 before any output
    print("trial\tseed\tterminated\ttstar\tmax_act\tviolations")
    failures = 0
    maxima = []
    for trial in range(trials):
        seed, execution, scheduler = trial_inputs(trial) if trial else first
        observers = _fast5_observers(protocol, graph)
        trace = engine.run(execution, scheduler, horizon, observers, False, seed)
        problems = [] if trace.terminated else ["non-terminated"]
        problems += [
            r.name for r in _outcome_audits(graph, protocol, trace, observers) if not r.passed
        ]
        max_act = max(trace.activations.values(), default=0)
        maxima.append(max_act)
        if bound is not None and max_act > bound:
            problems.append(f"bound({max_act}>{bound})")
        if problems:
            failures += 1
        print(
            f"{trial}\t{seed}\t{int(trace.terminated)}\t{trace.tstar}"
            f"\t{max_act}\t{','.join(problems) or '-'}"
        )
    print(
        f"# aggregate trials={trials} max={max(maxima)} "
        f"median={statistics.median(maxima):g} failures={failures}"
        + (f" bound={bound}" if bound is not None else "")
    )
    return VIOLATION if failures else OK


def cmd_mc(cfg: ExperimentConfig) -> int:
    graph = _experiment(cfg)
    if cfg.bound is None:
        raise ConfigError("mc needs --bound")
    bound = _bound(cfg, cfg.protocol, graph.node_count)
    ids = _resolve_ids(cfg, graph, cfg.seed)
    start = time.perf_counter()
    try:
        report = schedulers.exhaustive_check(graph, ids, cfg.protocol, bound)
    except schedulers.StateSpaceExceeded as exc:
        print(f"state space exceeded: {exc}")
        return VIOLATION
    wall_s = time.perf_counter() - start
    print(f"explored: {report.explored}")
    print(f"memo_hits: {report.memo_hits}")
    print(f"max_activations: {report.max_activations}")
    print(f"verdict: {report.verdict}")
    for counterexample in report.safety_violations:
        print(f"safety violation: {counterexample.detail}")
        print(f"  schedule: {list(counterexample.schedule)}")
    for node, count in report.bound_violations:
        print(f"bound violation: node {node} reached {count} > {bound}")
        if report.bound_schedule is not None:
            print(f"  schedule: {list(report.bound_schedule)}")
    print(f"transitions: {report.transitions}")
    print(f"max_depth: {report.max_depth}")
    print(f"transitions_per_s: {report.transitions / wall_s:.0f}")
    if report.verdict == "pass":
        return OK
    if cfg.trace:
        schedule = report.bound_schedule
        if report.safety_violations:
            schedule = report.safety_violations[0].schedule
        schedulers.save_schedule(schedule, cfg.trace)
        print(f"counterexample schedule written to {cfg.trace}")
    return VIOLATION


def cmd_worstcase(cfg: ExperimentConfig) -> int:
    graph = _experiment(cfg)
    bound = _bound(cfg, cfg.protocol, graph.node_count)
    ids = _resolve_ids(cfg, graph, cfg.seed)
    budget = cfg.budget if cfg.budget is not None else 200
    descriptor, worst = schedulers.worst_case_search(
        graph, ids, cfg.protocol, budget, cfg.seed
    )
    print(f"worst_max_activations: {worst}")
    if cfg.trace:
        schedulers.save_schedule(descriptor.sets, cfg.trace)
        print(f"schedule written to {cfg.trace}")
    if bound is not None:
        print(f"bound: {bound}")
        if worst > bound:
            print("bound exceeded")
            return VIOLATION
    return OK


def cmd_lemmas() -> int:
    failures = 0
    checked, bad = cointoss.check_contraction()
    print(f"contraction: checked {checked} pairs, {len(bad)} counterexamples")
    for x, y in bad[:10]:
        print(f"  f({x},{y}) = {cointoss.cv_reduce(x, y)} >= {y}")
    failures += len(bad)
    checked, bad3 = cointoss.check_chain_coloring()
    print(f"chain_coloring: checked {checked} triples, {len(bad3)} counterexamples")
    for x, y, z in bad3[:10]:
        print(f"  f({x},{y}) = f({y},{z}) = {cointoss.cv_reduce(x, y)}")
    failures += len(bad3)
    checked, issues = cointoss.check_logstar_decay()
    print(f"logstar_decay: checked {checked} points, {len(issues)} issues")
    for issue in issues[:10]:
        print(f"  {issue}")
    failures += len(issues)
    return VIOLATION if failures else OK


# the flags that only some commands read, and which commands read which
_FLAGS = {
    "sched": dict(help="scheduler descriptor (default: sync)"),
    "horizon": dict(type=int),
    "trials": dict(type=int),
    "trace": dict(help="output path (trace file, or schedule for mc and worstcase)"),
    "bound": dict(type=int, help="activation bound to check against"),
    "budget": dict(type=int, help="search budget for worstcase"),
    "from-trace": dict(help="re-run the header of a stored trace"),
}
_COMMANDS = {
    "run": ("execute one trace and audit it", ("sched", "horizon", "trace", "from-trace")),
    "sweep": ("run seeded trials and report statistics", ("sched", "horizon", "trials", "bound")),
    "mc": ("exhaustively model-check a tiny instance", ("bound", "trace")),
    "worstcase": ("search for adversarial schedules", ("bound", "budget", "trace")),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="wfcolor",
        description="simulate and audit wait-free coloring protocols on cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--protocol", choices=PROTOCOLS)
        p.add_argument("--n", type=int, help="cycle size")
        p.add_argument("--graph", help="edge-list file for general graphs")
        p.add_argument(
            "--ids",
            help="random | chain | proper:<k> | file:<path> | inline list like 1,2,5",
        )
        p.add_argument("--seed", type=int, help="base seed (default: WFC_SEED or 0)")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    audit = sub.add_parser("audit", help="audit a stored trace without running it again")
    audit.add_argument("path", help="trace file written by run --trace")
    sub.add_parser("lemmas", help="run the exhaustive reduction-function checks")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extra = parser.parse_known_args(argv)
        # the top-level parser knows no flag but --help, so all that comes
        # before the command is its to reject; the rest is the command's
        head = argv[:argv.index(args.command)]
        if head:
            parser.error(f"unrecognized arguments: {' '.join(head)}")
        if extra:
            subparsers[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return USAGE if exc.code else OK
    if args.command == "lemmas":
        return cmd_lemmas()
    try:
        if args.command == "audit":
            return cmd_audit(args.path)
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg.override(**{f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)})
        if cfg.seed is None:
            cfg.seed = _default_seed()
        if args.command == "run":
            return cmd_run(cfg, args.from_trace)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "mc":
            return cmd_mc(cfg)
        if args.command == "worstcase":
            return cmd_worstcase(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
