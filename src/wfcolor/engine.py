"""Execution engine with write-then-read step semantics and trace recording.

A step activates a set of processes simultaneously: every activated working
process first writes its current state to its register, then all of them
read their neighbors' registers (so simultaneous writers see each other's
fresh values), and finally each applies its protocol transition. Activating
a process that has already returned is a silent no-op; its register stays
frozen at the last written value and remains readable.

`step` is the one definition of that semantics: `Execution.apply_step`,
run's reference loop and the exhaustive model checker call it. `kernel.py`
restates it on numpy arrays for large cycles, where `run` hands it the run;
tests/test_kernel.py checks that restatement against `step`.

An execution is its registers and states (both built on first read),
returns, activation counts and step count. `run` takes a fresh execution
only, so a trace describes the whole execution from its first step: the
trace is the outcome, and the kernel builds its tables from the ids and the
graph alone. A trace's per-node keys, in its outputs and its activation
counts, are the graph's own ints (`Graph.nodes`) on every path.

Traces serialize as line-delimited JSON: a header line, one line per step
with fields t/act/w/rd/dec, and a final line with out/tstar. Identical
inputs produce byte-identical trace files. A `StepEncoder` writes the step
lines of one trace straight as text, the same bytes as `json.dumps` with
sorted keys; `step_line` is one with a fresh memo. `read_trace` streams a
trace and replays it: step t runs sigma(t) of the header's sched, each line
is accepted only as the bytes written for the replay, and the steps end
where run stops, so a trace it reads is an execution of its header,
schedule included.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, IO, Iterable, NamedTuple, Sequence

from .model import Graph, IdAssignment, from_edges
from .protocols import (
    ACTIVATE,
    CYCLE_ONLY,
    Color,
    CollectorPaused,
    Continue,
    Decision,
    FAST5,
    INFINITE,
    PROTOCOLS,
    ProtocolState,
    Return,
    View,
    _continue,
    initial_state,
    new_states,
)


class NotTerminated(RuntimeError):
    """The queried quantity is only defined for terminated executions."""


class StepRecord(NamedTuple):
    """Everything that happened at one time step."""

    t: int
    activated: tuple[int, ...]
    writes: dict[int, ProtocolState]
    reads: dict[int, tuple[View, ...]]
    decisions: dict[int, Decision]


@dataclass(frozen=True)
class TraceHeader:
    graph: Graph
    ids: IdAssignment
    protocol: str
    sched: str
    seed: int
    horizon: int


@dataclass
class Trace:
    header: TraceHeader
    steps: list[StepRecord]
    outputs: dict[int, Color]
    activations: dict[int, int]
    tstar: int | None

    @property
    def terminated(self) -> bool:
        return self.tstar is not None


class Execution:
    """Single-owner mutable execution state of one protocol over one graph."""

    def __init__(self, graph: Graph, ids: IdAssignment, protocol: str):
        check_instance(graph, ids, protocol)
        self.graph = graph
        self.ids = ids
        self.protocol = protocol
        self.returned: dict[int, Color] = {}  # a node works until it returns
        self.activations: list[int] = [0] * graph.node_count
        self.last_move = 0  # the last step at which a working process moved
        self._activate = ACTIVATE[protocol]
        self._t = 0
        # set here: an attribute added after __init__ slows small runs ~10% on CPython 3.11
        self._registers: list[View] | None = None
        self._states: list[ProtocolState] | None = None

    @property
    def registers(self) -> list[View]:
        if self._registers is None:  # built on first read, as the states are
            self._registers = [None] * self.graph.node_count
        return self._registers

    @property
    def states(self) -> list[ProtocolState]:
        if self._states is None:  # built on first read: a kernel run never reads them
            _, a, b, r = initial_state(self.protocol, 0)  # the fields every id shares, in one pass
            self._states = new_states(zip(self.ids.ids, repeat(a), repeat(b), repeat(r)))
        return self._states

    def all_returned(self) -> bool:
        return len(self.returned) == self.graph.node_count

    def _moved(self, movers: Sequence[int], decisions: Sequence[Decision]) -> None:
        """Count one step whose movers took these decisions: the step count,
        last_move, each mover's activation and each return, keyed by the
        graph's int for its node (Graph.nodes), not the scheduler's."""
        self._t += 1
        if movers:
            self.last_move = self._t
        activations = self.activations
        returned = self.returned
        for p, decision in zip(movers, decisions):
            activations[p] += 1
            if type(decision) is Return:
                returned[self.graph.nodes[p]] = decision.color

    def apply_step(self, activated: Iterable[int]) -> StepRecord:
        """Run one simultaneous step for the given activation set, and return
        its record. A node outside the graph is refused before anything moves."""
        acts = frozenset(activated)  # no copy when the scheduler hands over a frozenset
        movers = sorted(acts.difference(self.returned))
        # an unknown node never returns, so the least and greatest mover bound it
        if movers and (movers[0] < 0 or movers[-1] >= self.graph.node_count):
            raise ValueError(f"unknown node index {movers[0] if movers[0] < 0 else movers[-1]}")
        views, decisions = step(
            self.registers, self.states, movers, self.graph.adjacency, self._activate
        )
        self._moved(movers, decisions)
        return _step_record(self._t, acts, self.registers, movers, views, decisions)


def _step_record(t: int, acts: frozenset[int], registers: list[View], movers: list[int],
                 views: Sequence[tuple[View, ...]], decisions: Sequence[Decision]) -> StepRecord:
    """The record of step t, once step has run its movers."""
    return StepRecord(t, tuple(sorted(acts)), {p: registers[p] for p in movers},
                      dict(zip(movers, views)), dict(zip(movers, decisions)))


def check_instance(graph: Graph, ids: IdAssignment, protocol: str) -> None:
    """Reject an unknown protocol, ids that do not fit the graph, and a cycle
    protocol on another graph."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    ids.validate_for(graph)
    if protocol in CYCLE_ONLY and not graph.is_cycle:
        raise ValueError(f"{protocol} runs on cycles only")


def step(
    registers: list[View],
    states: list[ProtocolState],
    movers: Sequence[int],
    adjacency: Sequence[Sequence[int]],
    activate: Callable[[ProtocolState, tuple[View, ...]], Decision],
) -> tuple[list[tuple[View, ...]], list[Decision]]:
    """One write-then-read step of the working processes in movers, in place.

    Every mover writes its state to its register; then each reads its
    neighbors' registers and activates, and a Continue replaces its state.
    Returns the views and the decisions, in mover order.
    """
    for p in movers:
        registers[p] = states[p]
    views_of = []
    decisions = []
    for p in movers:
        neighbors = adjacency[p]
        if len(neighbors) == 2:  # every node of a cycle; spares a list per read
            views = (registers[neighbors[0]], registers[neighbors[1]])
        else:
            views = tuple([registers[q] for q in neighbors])
        decision = activate(states[p], views)
        if type(decision) is Continue:
            states[p] = decision.state
        views_of.append(views)
        decisions.append(decision)
    return views_of, decisions


def new_execution(graph: Graph, ids: IdAssignment, protocol: str) -> Execution:
    """All registers unwritten, all states fresh, nobody returned."""
    return Execution(graph, ids, protocol)


def default_horizon(protocol: str, node_count: int) -> int:
    """Generous step budgets: termination inside them is expected, so running
    out signals a bug rather than a tight schedule."""
    if protocol == FAST5:
        return 400
    return 20 * node_count + 200


# run hands a run to the numpy kernel (kernel.py) from this many nodes on. A
# kernel step has a fixed cost of about 100 us (slow6) to 140 us (fast5), and
# a graph's first kernel run builds its adjacency array, about 80 us here;
# measured against the loop, every cycle protocol under sync and rand:0.3, 0.5
# and 0.7 runs faster in the kernel from 768 nodes on (sync from below 128).
# Small cycles never import numpy.
KERNEL_MIN_NODES = 768
# the kernel's cv_reduce takes bit lengths from float64, exact below this
KERNEL_ID_LIMIT = 2**53


def run(
    execution: Execution,
    scheduler,
    horizon: int,
    observers: Sequence[Callable[[StepRecord], None]] = (),
    keep_steps: bool = True,
    seed: int = 0,
) -> Trace:
    """Drive a fresh execution under a scheduler for at most horizon steps.

    Stops early once no process the scheduler can still activate is working,
    that is once every node of the scheduler's support_after(t + 1) has
    returned (every node, when it answers None); the trace then reports the
    last time a working process was activated as tstar. Running out of
    horizon is reported, not raised. An execution that has already taken a
    step is refused: the trace numbers its steps, counts activations and
    reads tstar from step 1, so it would disagree with itself.

    A run keeping no step records of a cycle protocol on KERNEL_MIN_NODES
    nodes or more, every identifier below KERNEL_ID_LIMIT, goes to the numpy
    kernel when numpy imports and kernel.takes its schedule; observers see
    every step either way. The trace is the outcome: a kernel run leaves
    registers and states initial. Its outputs are the execution's returns
    themselves, not a copy: the execution is spent, as run refuses it, and
    an apply_step on it would change the trace's outputs too.

    A run that keeps its step records runs with the cyclic collector paused,
    as in new_states, observers included: the records hold no reference
    cycles, and the collections that their growing list sets off would walk
    it again and again. The pause ends by moving them, unwalked, to the
    oldest generation (see CollectorPaused).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if execution._t:
        raise ValueError(f"run takes a fresh execution; this one is at step {execution._t}")
    n = execution.graph.node_count
    if scheduler.node_count != n:
        raise ValueError(
            f"scheduler {scheduler.text!r} is built for {scheduler.node_count} nodes, "
            f"the execution has {n}"
        )
    steps: list[StepRecord] = []
    if keep_steps:
        with CollectorPaused(keep=True):
            tstar = _run_steps(execution, scheduler, horizon, observers, steps)
    else:
        kernel = _kernel(execution, scheduler)
        if kernel is not None:
            tstar = kernel.run(execution, scheduler, horizon, observers)
        else:
            tstar = _run_steps(execution, scheduler, horizon, observers, None)
    header = TraceHeader(
        execution.graph,
        execution.ids,
        execution.protocol,
        scheduler.text,
        seed,
        horizon,
    )
    activations = dict(zip(execution.graph.nodes, execution.activations))
    return Trace(header, steps, execution.returned, activations, tstar)


def _kernel(execution: Execution, scheduler):
    """The kernel module when it may run this execution under this scheduler
    (see kernel.takes), else None."""
    ids = execution.ids.ids  # naturals, as IdAssignment checks
    if (
        execution.protocol not in CYCLE_ONLY
        or len(ids) < KERNEL_MIN_NODES
        or max(ids) >= KERNEL_ID_LIMIT
    ):
        return None
    try:
        from . import kernel
    except ImportError:  # numpy is an optional dependency
        return None
    return kernel if kernel.takes(scheduler) else None


def _run_steps(
    execution: Execution,
    scheduler,
    horizon: int,
    observers: Sequence[Callable[[StepRecord], None]],
    steps: list[StepRecord] | None,
) -> int | None:
    """run's reference loop; returns tstar, or None when the horizon ran out.

    Each step calls step on the execution's registers and states, bound
    once, with the movers sorted(at(t) - returned), and counts the step with
    Execution._moved; a step with no working mover writes, reads and decides
    nothing, so it is only counted. A StepRecord is built only when records
    are kept or observers watch. Unlike apply_step, the loop neither copies
    at(t) nor checks its range: run checks the scheduler's node count, and
    schedulers check their nodes.
    """
    returned, n = execution.returned, execution.graph.node_count
    at, support_after = scheduler.at, scheduler.support_after
    registers, states, moved = execution.registers, execution.states, execution._moved
    adjacency, activate = execution.graph.adjacency, execution._activate
    recording = steps is not None or bool(observers)
    views = decisions = ()  # an empty step keeps the last ones, which no mover reads
    for t in range(1, horizon + 1):
        acts = at(t)
        movers = sorted(acts.difference(returned))
        if movers:
            views, decisions = step(registers, states, movers, adjacency, activate)
        moved(movers, decisions)
        if recording:
            record = _step_record(t, acts, registers, movers, views, decisions)
            if steps is not None:
                steps.append(record)
            for observer in observers:
                observer(record)
        support = support_after(t + 1)  # None: every node
        if len(returned) == n if support is None else returned.keys() >= support:
            return execution.last_move
    return None


# --- trace serialization -------------------------------------------------

def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def header_line(header: TraceHeader) -> str:
    return _dump(
        {
            "graph": {"n": header.graph.node_count, "edges": header.graph.edges()},
            "ids": {"kind": header.ids.kind, "values": list(header.ids.ids)},
            "protocol": header.protocol,
            "sched": header.sched,
            "seed": header.seed,
            "horizon": header.horizon,
        }
    )


def _return_text(decision: Return) -> str:
    color = decision.color
    if type(color) is int:
        return f'["ret",{color}]'
    return f'["ret",[{",".join(map(str, color))}]]'


class _RegisterTexts(dict):
    """Register record -> its text, formatted on first lookup, in a dict
    that empties itself before it would hold more than limit entries. Equal
    records have one text, as every register field is an int: IdAssignment
    refuses bools and floats, which compare equal to ints."""

    def __init__(self, limit: int):
        self.limit = limit

    def __missing__(self, rec: View) -> str:
        if len(self) >= self.limit:
            self.clear()
        if rec is None:
            text = "null"
        else:
            x, a, b, r = rec
            if r is None:
                text = f"[{x},{a},{b}]"
            elif r == INFINITE:
                text = f'[{x},"inf",{a},{b}]'
            else:
                text = f"[{x},{r},{a},{b}]"
        self[rec] = text
        return text


class StepEncoder:
    """step_line for the steps of one trace on node_count nodes. Each node's
    name is built once, and each register's text once per value, in a memo
    of at most 4 * node_count + 64 entries, so a writer's memory stays flat
    in the number of steps.

    A node's key is its name, its index as a string, so "10" sorts before
    "2": one sort of the movers by name gives the order of json.dumps's
    sorted keys for w, rd and dec, which hold the same movers."""

    def __init__(self, node_count: int):
        self._names = [str(p) for p in range(node_count)]
        self.texts = _RegisterTexts(4 * node_count + 64)

    def __call__(self, record: StepRecord) -> str:
        names, texts = self._names, self.texts
        writes, reads, decisions = record.writes, record.reads, record.decisions
        w, rd, dec = [], [], []
        for p in sorted(writes, key=names.__getitem__):
            name = names[p]
            w.append(f'"{name}":{texts[writes[p]]}')
            views = reads[p]
            if len(views) == 2:  # every node of a cycle
                rd.append(f'"{name}":[{texts[views[0]]},{texts[views[1]]}]')
            else:
                rd.append(f'"{name}":[{",".join(map(texts.__getitem__, views))}]')
            d = decisions[p]
            dec.append(f'"{name}":["cont",{texts[d.state]}]' if type(d) is Continue
                       else f'"{name}":{_return_text(d)}')
        act = ",".join(map(names.__getitem__, record.activated))
        return (f'{{"act":[{act}],"dec":{{{",".join(dec)}}},"rd":{{{",".join(rd)}}},'
                f'"t":{record.t},"w":{{{",".join(w)}}}}}')


def step_line(record: StepRecord) -> str:
    """The step's line, built as text: the bytes that json.dumps with sorted
    keys gives for its fields. It is a StepEncoder's line, with a fresh memo."""
    return StepEncoder(1 + max(chain(record.activated, record.writes), default=-1))(record)


def final_line(trace: Trace) -> str:
    return _dump(
        {
            "out": {str(p): list(c) if isinstance(c, tuple) else c
                    for p, c in sorted(trace.outputs.items())},
            "tstar": trace.tstar,
        }
    )


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        writer = TraceFileWriter(fh, trace.header)
        for record in trace.steps:
            writer(record)
        writer.finish(trace)


class TraceFileWriter:
    """Streaming observer writing trace lines as steps happen, through one
    StepEncoder; memory stays flat regardless of run size. Call finish()
    with the completed trace; it drops the encoder's memo."""

    def __init__(self, fh: IO[str], header: TraceHeader):
        self._fh = fh
        self._encode = StepEncoder(header.graph.node_count)
        fh.write(header_line(header) + "\n")

    def __call__(self, record: StepRecord) -> None:
        self._fh.write(self._encode(record) + "\n")

    def finish(self, trace: Trace) -> None:
        self._encode = None
        self._fh.write(final_line(trace) + "\n")


def _object(line: str) -> dict:
    """The JSON object on a line; a ValueError when it holds another value."""
    raw = json.loads(line)
    if type(raw) is not dict:
        raise ValueError("not a JSON object")
    return raw


_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _field(raw: dict, path: str, kind: type):
    """The header's field at a dotted path, refused unless its type is kind
    (a bool is not an int)."""
    value = raw
    for key in path.split("."):
        value = value[key]
    if type(value) is not kind:
        raise ValueError(f"trace header field {path!r} is not {_KINDS[kind]}: {value!r}")
    return value


def parse_header(line: str) -> TraceHeader:
    """The header of a trace; a ValueError names a field it lacks or whose
    type is wrong."""
    try:
        raw = _object(line)
        for name in ("graph", "ids"):  # before the fields inside them
            _field(raw, name, dict)
        n, edges = _field(raw, "graph.n", int), _field(raw, "graph.edges", list)
        if n < 1:
            raise ValueError(f"trace header field 'graph.n' is {n}, "
                             f"but a graph has at least 1 node")
        pair = next((e for e in edges if type(e) is not list or len(e) != 2), None)
        if pair is not None:
            raise ValueError(f"trace header field 'graph.edges' holds {pair!r}, not a pair")
        ends = list(map(type, chain.from_iterable(edges)))
        if ends.count(int) != len(ends):
            odd = next(v for v in chain.from_iterable(edges) if type(v) is not int)
            raise ValueError(f"trace header field 'graph.edges' holds {odd!r}, not an integer")
        graph = from_edges(n, edges)
        ids = IdAssignment(tuple(_field(raw, "ids.values", list)), raw["ids"]["kind"])
        sched = _field(raw, "sched", str)
        seed, horizon = _field(raw, "seed", int), _field(raw, "horizon", int)
        if horizon < 0:
            raise ValueError(f"trace header field 'horizon' is negative: {horizon}")
        if horizon == 0:
            raise ValueError("trace header field 'horizon' is 0, but a run takes at least 1 step")
        return TraceHeader(graph, ids, raw["protocol"], sched, seed, horizon)
    except json.JSONDecodeError:
        raise ValueError("trace header is not a JSON line") from None
    except KeyError as exc:
        raise ValueError(f"trace header has no field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed trace header: {exc}") from None


def _difference(line: str, expected: str, n: int, t: int | None = None) -> str:
    """The first thing in which a line differs from expected, the line that
    the replay of step t (of the whole trace, for None) writes: a field it
    lacks, its step number, a node outside the graph, or a node's entry in
    a field. Entries are compared as JSON text, so true is not taken for 1."""
    raw, replay = _object(line), json.loads(expected)
    whose = "the replay" if t is None else f"the replay of step {t}"
    if replay.keys() - raw.keys():
        return f"no field {min(replay.keys() - raw.keys())!r}"
    if t is not None and json.dumps(raw["t"]) != str(t):
        return f"t {raw['t']!r} is not this line's step number {t}"
    nodes = set(map(str, range(n)))
    for field in sorted(raw):
        if field not in replay:
            return f"field {field!r} is not in {whose}"
        mine, theirs = raw[field], replay[field]
        if json.dumps(mine) == json.dumps(theirs):
            continue
        if type(mine) is not dict:
            return f"{field} is {json.dumps(mine)}, {whose} {json.dumps(theirs)}"
        for p in sorted(mine.keys() | theirs.keys(), key=lambda p: (len(p), p)):
            if p not in nodes:
                return f"unknown node index {p}"
            entries = [json.dumps(d[p]) if p in d else "none" for d in (mine, theirs)]
            if entries[0] != entries[1]:
                return f"node {p} has {field} {entries[0]}, {whose} {entries[1]}"
    return f"{whose} writes the same fields in other bytes"


def read_trace(path: str) -> Trace:
    """A trace file, read by replaying it: at step line t, a fresh execution
    of the header runs at(t) of the scheduler that the header's sched
    builds. That sched must be the scheduler's text, and must not name a
    schedule file, which is never opened. Each line, with its newline, is
    accepted only as written for the replay: a step line by one StepEncoder,
    the final line by final_line with the replay's tstar, as run reports
    it, and last the header by header_line. The steps end where run's loop
    stops: no step line may follow a step after which every node of
    support_after(t + 1) has returned, and none may be missing before that
    step or the horizon. A ValueError names the file, the 1-based line of
    the first line that fails, undecodable bytes included, and what in it
    differs from the replay.

    The file is read line by line, as bytes: only b"\n" ends a line. The
    replay interns the initial states and each Continue state through one
    dict, so equal register records are one shared ProtocolState. The
    collector is paused meanwhile, and its pause ends as run's does."""
    from .schedulers import make_scheduler  # schedulers imports this module

    with open(path, "rb") as fh, CollectorPaused(keep=True):
        first, line = fh.readline(), fh.readline()  # a line follows the header
        if not line:
            raise ValueError(f"trace file {path} is truncated")
        lineno = 1
        try:
            head = first.decode()[:-1]
            header = parse_header(head)
            horizon, n, sched = header.horizon, header.graph.node_count, header.sched
            if "replay:" in sched.replace("replay:@", ""):  # an inline replay holds no 'replay:'
                raise ValueError(f"sched {sched!r} names a schedule file, which is not opened")
            scheduler = make_scheduler(sched, n)
            if scheduler.text != sched:
                raise ValueError(f"sched is {sched!r}, which is written {scheduler.text!r}")
            execution = new_execution(header.graph, header.ids, header.protocol)
            returned = execution.returned
            shared: dict[ProtocolState, ProtocolState] = {}
            states = execution._states = [shared.setdefault(s, s) for s in execution.states]
            encode = StepEncoder(n)
            steps = []
            stopped = False
            for lineno, following in enumerate(fh, 2):  # a line follows: line is a step line
                t, line = lineno - 1, line.decode()  # drops the bytes
                if t > horizon:
                    raise ValueError(f"step {t} is past the header's horizon {horizon}")
                record = execution.apply_step(scheduler.at(t))
                for p, d in record.decisions.items():
                    if type(d) is Continue and shared.setdefault(d.state, d.state) is not d.state:
                        states[p] = shared[d.state]
                        record.decisions[p] = _continue((states[p],))
                expected = encode(record)
                # line ends in its newline; compared in place, as it may be 10^5 bytes long
                if len(line) != len(expected) + 1 or not line.startswith(expected):
                    raise ValueError(_difference(line[:-1], expected, n, t))
                if stopped:  # a line written for the replay, which has no more steps
                    raise ValueError(f"step {t} is past the run's end at step {t - 1}, where "
                                     f"every node the schedule may still activate has returned")
                steps.append(record)
                support = scheduler.support_after(t + 1)  # as run's loop asks it
                stopped = len(returned) == n if support is None else returned.keys() >= support
                line = following
            lineno, final = len(steps) + 2, line.decode()
            ended = final.endswith("\n")
            final = final[:-1] if ended else final
            last = len(steps)
            if not stopped and last < horizon:
                raise ValueError(f"the steps stop at {last}, but the run goes on after step "
                                 f"{last}: a node the schedule may still activate is working")
            tstar = execution.last_move if stopped else None  # as run reports it
            activations = dict(zip(header.graph.nodes, execution.activations))
            trace = Trace(header, steps, returned, activations, tstar)
            expected = final_line(trace)
            if expected != final:
                raise ValueError(_difference(final, expected, n))
            if not ended:
                raise ValueError("no newline ends the final line")
            lineno, expected = 1, header_line(header)
            if expected != head:  # last, so that the other lines name their own faults
                i = len(os.path.commonprefix([head, expected]))
                raise ValueError(f"the header has {head[i:i + 12]!r} at column {i + 1}, "
                                 f"where it is written {expected[i:i + 12]!r}")
        except json.JSONDecodeError:
            raise ValueError(f"trace file {path} line {lineno}: not a JSON line") from None
        except KeyError as exc:
            raise ValueError(f"trace file {path} line {lineno}: no field {exc.args[0]!r}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"trace file {path} line {lineno}: {exc}") from None
    return trace
