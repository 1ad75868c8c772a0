"""Schedule generators, adversarial search, and exhaustive model checking.

A scheduler is a pure generator of activation sets: the same descriptor
produces the same set at the same time index, always. Crashes are modeled
purely as absence from the schedule from some time onward.

Descriptor text forms (used in trace headers and on the command line):

    sync                        every node, every step
    rr                          singleton {t mod n}
    rand:<p>:<seed>             each node independently with probability p
    crash:<node>@<t>,...;<base> base schedule minus node from time t onward
    replay:<file>               explicit sets loaded from a schedule file
    replay:@<sets>              explicit sets inline, steps split by '|'

Schedule files hold one step per line: space-separated node indices, a blank
line for an empty set; lines starting with '#' are comments. A descriptor
formats its replay sets inline, so a trace header never names a file.

No scheduler holds a set of all n nodes up front. `support_after` answers
None for "every node may still be activated" (sync, rr, rand, and a crash
schedule before its first crash time), and only sync's `at` builds the set
of all nodes, on its first call.

A rand: scheduler on fewer than KERNEL_MIN_NODES nodes reads sigma(t) from a
process-wide memo of activation sets keyed by (seed, p, n); see _rand_sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .engine import KERNEL_MIN_NODES, new_execution, step
from .model import Graph, IdAssignment, open_text
from .protocols import ACTIVATE, Continue, Return, palette_ok


@dataclass(frozen=True)
class Synchronous:
    pass


@dataclass(frozen=True)
class RoundRobin:
    pass


@dataclass(frozen=True)
class RandomSched:
    p_act: float
    seed: int


@dataclass(frozen=True)
class CrashSched:
    base: "Descriptor"
    crash_times: tuple[tuple[int, int], ...]  # (node, first silent time)


@dataclass(frozen=True)
class ReplaySched:
    sets: tuple[frozenset[int], ...]


Descriptor = Union[Synchronous, RoundRobin, RandomSched, CrashSched, ReplaySched]


def format_descriptor(descriptor: Descriptor) -> str:
    if isinstance(descriptor, Synchronous):
        return "sync"
    if isinstance(descriptor, RoundRobin):
        return "rr"
    if isinstance(descriptor, RandomSched):
        return f"rand:{descriptor.p_act}:{descriptor.seed}"
    if isinstance(descriptor, CrashSched):
        pairs = ",".join(f"{p}@{t}" for p, t in descriptor.crash_times)
        return f"crash:{pairs};{format_descriptor(descriptor.base)}"
    if isinstance(descriptor, ReplaySched):
        steps = "|".join(",".join(str(p) for p in sorted(s)) for s in descriptor.sets)
        return f"replay:@{steps}"
    raise ValueError(f"unknown descriptor {descriptor!r}")


# the most crash: prefixes a descriptor nests: Scheduler, format_descriptor
# and kernel._activation_masks recurse once per prefix
CRASH_DEPTH_LIMIT = 100


def parse_descriptor(text: str) -> Descriptor:
    if text == "sync":
        return Synchronous()
    if text == "rr":
        return RoundRobin()
    if text.startswith("rand:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected rand:<p>:<seed>, got {text!r}")
        try:
            return RandomSched(float(parts[1]), int(parts[2]))
        except ValueError:
            raise ValueError(f"expected rand:<p>:<seed> with a number p and an "
                             f"integer seed, got {text!r}") from None
    if text.startswith("crash:"):
        crashes = []  # each prefix's pairs, outermost first, parsed in a loop
        while text.startswith("crash:"):
            if len(crashes) == CRASH_DEPTH_LIMIT:
                raise ValueError(f"a descriptor nests at most {CRASH_DEPTH_LIMIT} crash: prefixes")
            body = text[len("crash:"):]
            if ";" not in body:
                raise ValueError(f"expected crash:<node>@<t>,...;<base>, got {text!r}")
            pairs_text, base_text = body.split(";", 1)
            pairs = []
            for item in pairs_text.split(","):
                try:
                    node_text, time_text = item.split("@")
                    pairs.append((int(node_text), int(time_text)))
                except ValueError:
                    raise ValueError(f"crash item {item!r} in {text!r} is not <node>@<t>") from None
            crashes.append(tuple(pairs))
            text = base_text
        descriptor = parse_descriptor(text)  # not a crash: text
        for pairs in reversed(crashes):
            descriptor = CrashSched(descriptor, pairs)
        return descriptor
    if text.startswith("replay:@"):
        body = text[len("replay:@"):]
        if not body:
            return ReplaySched(())
        return ReplaySched(
            tuple(
                frozenset(_replay_node(p, text) for p in chunk.split(",") if p)
                for chunk in body.split("|")
            )
        )
    if text.startswith("replay:"):
        path = text[len("replay:"):]
        return ReplaySched(load_schedule(path))
    raise ValueError(f"unknown scheduler descriptor {text!r}")


def _replay_node(item: str, text: str) -> int:
    try:
        return int(item)
    except ValueError:
        raise ValueError(f"replay item {item!r} in {text!r} is not a node index") from None


def load_schedule(path: str) -> tuple[frozenset[int], ...]:
    sets = []
    with open_text(path, "schedule file") as fh:
        for lineno, raw in enumerate(fh, 1):
            if raw.lstrip().startswith("#"):
                continue
            line = raw.split("#", 1)[0].strip()
            try:
                sets.append(frozenset(int(p) for p in line.split()))
            except ValueError:
                raise ValueError(f"schedule file {path} line {lineno}: expected node "
                                 f"indices, got {raw.strip()!r}") from None
    return tuple(sets)


def save_schedule(sets: Sequence[Iterable[int]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sets:
            fh.write(" ".join(str(p) for p in sorted(s)) + "\n")


class Scheduler:
    """A descriptor bound to a node count, queryable by time index."""

    def __init__(self, descriptor: Descriptor, node_count: int):
        self.descriptor = descriptor
        self.node_count = node_count
        self.text = format_descriptor(descriptor)
        self._all = None  # sync's sigma(t), built by the first call of at
        self._sets = None  # rand:'s memo entry, bound by the first call of at
        if isinstance(descriptor, RandomSched):
            if not 0 < descriptor.p_act <= 1:
                raise ValueError(f"activation probability {descriptor.p_act} not in (0,1]")
        if isinstance(descriptor, CrashSched):
            for node, t in descriptor.crash_times:
                if not 0 <= node < node_count:
                    raise ValueError(f"crash node {node} out of range")
                if t < 0:
                    raise ValueError(f"crash time {t} is negative")
            self._base = Scheduler(descriptor.base, node_count)
            # support_after's last answer, by (base support, crashed nodes); no method
            # of self, so that the cache holds no reference to the scheduler
            self._support = lru_cache(maxsize=1)(
                lambda base, dead: (frozenset(range(node_count)) if base is None else base) - dead
            )
        if isinstance(descriptor, ReplaySched):
            for s in descriptor.sets:
                for p in s:
                    if not 0 <= p < node_count:
                        raise ValueError(f"replay schedule node {p} out of range")
            suffix: list[frozenset[int]] = [frozenset()] * (len(descriptor.sets) + 1)
            for i in range(len(descriptor.sets) - 1, -1, -1):
                union = suffix[i + 1] | descriptor.sets[i]
                suffix[i] = suffix[i + 1] if union == suffix[i + 1] else union
            self._suffix = suffix

    def at(self, t: int) -> frozenset[int]:
        """The activation set sigma(t), t >= 1."""
        d = self.descriptor
        if isinstance(d, RandomSched):
            sets = self._sets
            if sets is None:
                sets = self._sets = _rand_sets(d.seed, d.p_act, self.node_count)
            found = sets.get(t)
            return _draw_set(d, self.node_count, t, sets) if found is None else found
        if isinstance(d, Synchronous):
            if self._all is None:
                self._all = frozenset(range(self.node_count))
            return self._all
        if isinstance(d, RoundRobin):
            return frozenset((t % self.node_count,))
        if isinstance(d, CrashSched):
            alive = self._base.at(t)
            dead = {node for node, start in d.crash_times if t >= start}
            return alive - dead if dead else alive
        if isinstance(d, ReplaySched):
            return d.sets[t - 1] if 0 < t <= len(d.sets) else frozenset()
        raise ValueError(f"unknown descriptor {d!r}")

    def support_after(self, t: int) -> frozenset[int] | None:
        """Nodes that may still appear in sigma(t') for some t' >= t, or None
        when every node may.

        A crash schedule answers the very same frozenset from one crash time
        to the next (while its base's answer is the same set): it keeps its
        last answer, keyed by its base's answer and its crashed nodes. So the
        kernel, which converts a set to a mask once per object, does so once
        per crash time.
        """
        d = self.descriptor
        if isinstance(d, CrashSched):
            base = self._base.support_after(t)
            dead = frozenset([node for node, start in d.crash_times if t >= start])
            return self._support(base, dead) if dead else base
        if isinstance(d, ReplaySched):
            index = min(max(t - 1, 0), len(d.sets))
            return self._suffix[index]
        return None


def random_stream(seed: int, t: int) -> random.Random:
    """The generator whose draws, one per node in index order, decide
    sigma(t) of rand:<p>:<seed>."""
    return random.Random(f"rand:{seed}:{t}")


# (seed, p, n) -> {t: sigma(t)} of rand:<p>:<seed> on n nodes, or None after
# the key's first use; see _rand_sets
_SETS: dict[tuple[int, float, int], dict[int, frozenset[int]] | None] = {}
_INTERNED: dict[frozenset[int], frozenset[int]] = {}  # each distinct stored set, once
_SETS_CAP = 1 << 16
_units = 0  # the keys and stored steps in _SETS, plus 1 + len(s) per set s in _INTERNED
_UNSTORED: dict[int, frozenset[int]] = {}  # stays empty: its holder draws every step


def _rand_sets(seed: int, p: float, n: int) -> dict[int, frozenset[int]]:
    """The memo entry that a rand:<p>:<seed> scheduler on n nodes reads and
    _draw_set fills, or _UNSTORED on the key's first use and from
    KERNEL_MIN_NODES nodes on.

    Seeding a stream from its string costs about 10 us, more than building a
    small graph's set. Sweeps over id sets and sizes run the same few
    descriptors again and again, so from a key's second use on its sets are
    kept, one per step, and read back. A first use only marks the key:
    `wfcolor sweep` reseeds every trial, so it stores nothing. Equal sets
    are interned, so that keys and steps share one object. An entry is a
    function of its key alone, so every caller reads what it would have
    drawn. The memo counts its keys, its stored steps and 1 + len(s) for
    each interned set s, at most _SETS_CAP = 2**16 units, and is cleared
    when it would pass that; a scheduler bound to an entry before a clear
    reads what it holds and stores no more. Its worst case, marks only, is
    about 9 MB. From KERNEL_MIN_NODES nodes on a set costs more to keep
    than to draw.
    """
    global _units
    if n >= KERNEL_MIN_NODES:
        return _UNSTORED
    key = (seed, p, n)
    sets = _SETS.get(key, _UNSTORED)
    if sets is _UNSTORED:
        if _units >= _SETS_CAP:
            _clear_sets()
        _units += 1
        _SETS[key] = None
    elif sets is None:
        sets = _SETS[key] = {}
    return sets


def _draw_set(d: RandomSched, n: int, t: int, sets: dict[int, frozenset[int]]) -> frozenset[int]:
    """sigma(t) of d on n nodes from its stream, kept in sets while sets is
    the memo's entry for its key."""
    global _units
    draw, p = random_stream(d.seed, t).random, d.p_act
    drawn = frozenset([i for i in range(n) if draw() < p])
    if _SETS.get((d.seed, p, n)) is not sets:  # _UNSTORED, or cleared since it was bound
        return drawn
    shared = _INTERNED.get(drawn)
    units = 1 if shared is not None else 2 + len(drawn)
    if _units + units > _SETS_CAP:
        _clear_sets()
        return drawn
    _units += units
    sets[t] = shared = _INTERNED.setdefault(drawn, drawn)
    return shared


def _clear_sets() -> None:
    global _units
    _SETS.clear()
    _INTERNED.clear()
    _units = 0


def make_scheduler(descriptor: Descriptor | str, node_count: int) -> Scheduler:
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    return Scheduler(descriptor, node_count)


# --- adversarial schedule search ------------------------------------------

def _max_working_activations(
    graph: Graph, ids: IdAssignment, protocol: str, sets: Sequence[frozenset[int]]
) -> tuple[int, int]:
    """The most working activations of any node when a fresh execution runs
    sets in order, stopping once every node has returned, and the number of
    sets it applied: len(sets) when some node never returned. A schedule
    that agrees with sets on that many first sets gives the same two."""
    ex = new_execution(graph, ids, protocol)
    for count, s in enumerate(sets, 1):
        ex.apply_step(s)
        if ex.all_returned():
            return max(ex.activations), count
    return max(ex.activations), len(sets)


def worst_case_search(
    graph: Graph,
    ids: IdAssignment,
    protocol: str,
    budget: int,
    seed: int,
) -> tuple[ReplaySched, int]:
    """Hill-climb over replay schedules for a high working-activation count.

    Mutates the incumbent schedule (resampling whole steps or toggling single
    activations), keeps mutants that do not lose ground, and restarts from a
    fresh random schedule after a stall. Schedules have 6n + 24 steps.
    Deterministic for a given seed; budget counts candidate schedules.

    A mutant changes no step before the least index it touched. When that
    index is at or past the number of steps the incumbent's run applied
    before every node returned, the mutant's run is the incumbent's up to
    there, so it takes the incumbent's value without a run. The rng draws
    the same either way, so the result is that of running every candidate.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = graph.node_count
    rng = random.Random(f"worstcase:{seed}")
    steps = 6 * n + 24

    def random_schedule() -> list[frozenset[int]]:
        return [
            frozenset(p for p in range(n) if rng.random() < 0.5) for _ in range(steps)
        ]

    def mutate(sets: list[frozenset[int]]) -> tuple[list[frozenset[int]], int]:
        """A mutant of sets, and the least index it touched."""
        out = list(sets)
        least = steps
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(steps)
            least = min(least, i)
            if rng.random() < 0.5:
                out[i] = frozenset(p for p in range(n) if rng.random() < 0.5)
            else:
                p = rng.randrange(n)
                out[i] = out[i] - {p} if p in out[i] else out[i] | {p}
        return out, least

    current = random_schedule()
    current_value, current_count = _max_working_activations(graph, ids, protocol, current)
    best, best_value = current, current_value
    evaluations = 1
    stall = 0
    while evaluations < budget:
        restart = stall >= 40
        # a restart may change every step, the first included
        candidate, least = (random_schedule(), 0) if restart else mutate(current)
        if least < current_count:
            value, count = _max_working_activations(graph, ids, protocol, candidate)
        else:
            value, count = current_value, current_count
        evaluations += 1
        if restart or value >= current_value:
            current, current_value, current_count = candidate, value, count
        if value > best_value:
            best, best_value = candidate, value
            stall = 0
        else:
            stall = 0 if restart else stall + 1
    return ReplaySched(tuple(best)), best_value


# --- exhaustive model checking --------------------------------------------

class StateSpaceExceeded(RuntimeError):
    """Exploration passed the configured configuration ceiling."""


@dataclass(frozen=True)
class Counterexample:
    schedule: tuple[tuple[int, ...], ...]
    detail: str


@dataclass
class McReport:
    explored: int
    safety_violations: list[Counterexample] = field(default_factory=list)
    bound_violations: list[tuple[int, int]] = field(default_factory=list)
    bound_schedule: tuple[tuple[int, ...], ...] | None = None
    memo_hits: int = 0
    max_activations: int = 0
    max_depth: int = 0  # longest schedule on the DFS stack

    @property
    def verdict(self) -> str:
        if self.safety_violations or self.bound_violations:
            return "fail"
        return "pass"

    @property
    def transitions(self) -> int:
        """Steps taken: each reached a new configuration, a seen one, or a
        violation that ended the search."""
        return self.explored - 1 + self.memo_hits + (self.verdict == "fail")


def exhaustive_check(
    graph: Graph,
    ids: IdAssignment,
    protocol: str,
    activation_bound: int | None,
    config_ceiling: int = 10_000_000,
) -> McReport:
    """Explore every schedule of a tiny instance up to the activation bound.

    Branches over all non-empty subsets of working processes at every step
    (the empty set cannot affect any assertion), memoizes configurations
    (registers, states, outputs, activation counts), and checks at
    every new configuration that returned neighbors hold distinct in-palette
    colors and that no process worked past the activation bound. Each DFS
    stack entry holds a configuration, its working subsets and a countdown
    whose subset is the step to the entry above (or, at the top, the step
    taken); at the first violation the witness is those steps, in order.

    A configuration holds small ints: each distinct ProtocolState gets an id
    the first time it appears, the unwritten register (None) is id 0, and
    registers and states are tuples of ids; outputs are colors or None.
    engine.step runs on the ids through a transition memo over
    ACTIVATE[protocol]: a miss decodes the ids, calls the transition and
    keeps its Return, or a Continue holding the id of the new state. The
    transitions are pure functions of (state, views), so the memo is exact,
    and interning by equality merges exactly the configurations that equal
    objects would: the counts, verdicts and witnesses are those of a search
    over the objects themselves. The subsets of each distinct tuple of
    working processes and the palette test of each distinct color are
    computed once.

    With activation_bound=None only safety is checked: activation counts are
    dropped from the configuration, so the reachable space is explored
    regardless of how many activations it takes to reach it (this terminates
    exactly when the protocol's reachable core space is finite).
    """
    n = graph.node_count
    if n > 5:
        raise ValueError(f"exhaustive check is limited to 5 nodes, got {n}")
    if activation_bound is not None and activation_bound < 0:
        raise ValueError(f"activation bound must be at least 0, got {activation_bound}")
    base = new_execution(graph, ids, protocol)
    delta = graph.max_degree
    adjacency = graph.adjacency
    activate = ACTIVATE[protocol]
    counted = activation_bound is not None

    values: list = [None]  # id -> ProtocolState; 0 is the unwritten register
    index = {None: 0}
    transition: dict = {}  # (state id, view ids) -> Return or Continue(state id)

    def intern(value) -> int:
        i = index.get(value)
        if i is None:
            i = index[value] = len(values)
            values.append(value)
        return i

    def activate_ids(sid: int, view_ids: tuple[int, ...]):
        key = (sid, view_ids)
        decision = transition.get(key)
        if decision is None:
            decision = activate(values[sid], tuple([values[v] for v in view_ids]))
            if type(decision) is Continue:
                decision = Continue(intern(decision.state))
            transition[key] = decision
        return decision

    subsets_of: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def subsets(outputs: Sequence) -> tuple[tuple[int, ...], ...]:
        working = tuple([p for p in range(n) if outputs[p] is None])
        found = subsets_of.get(working)
        if found is None:
            found = subsets_of[working] = tuple(
                tuple([working[i] for i in range(len(working)) if mask >> i & 1])
                for mask in range(1, 1 << len(working))
            )
        return found

    in_palette: dict = {}  # color -> palette_ok

    initial = (
        tuple([intern(r) for r in base.registers]),
        tuple([intern(s) for s in base.states]),
        (None,) * n,
        (0,) * n if counted else (),
    )
    report = McReport(explored=1)
    seen = {initial}
    first = subsets(initial[2])
    stack = [[initial, first, len(first)]]

    while stack:
        entry = stack[-1]
        left = entry[2]
        if not left:
            stack.pop()
            continue
        left -= 1
        entry[2] = left
        config, choices, _ = entry
        movers = choices[left]
        registers, states, outputs, counts = config
        new_registers = list(registers)
        new_states = list(states)
        _, decisions = step(new_registers, new_states, movers, adjacency, activate_ids)
        new_outputs = list(outputs)
        new_counts = list(counts)
        for p, decision in zip(movers, decisions):
            if counted:
                new_counts[p] += 1
                if new_counts[p] > activation_bound:
                    report.bound_violations.append((p, new_counts[p]))
                    report.bound_schedule = tuple(e[1][e[2]] for e in stack)
                    return report
            if type(decision) is Return:
                new_outputs[p] = decision.color
        for p in movers:  # after the loop above: every simultaneous returner is set
            color = new_outputs[p]
            if color is None:
                continue
            ok = in_palette.get(color)
            if ok is None:
                ok = in_palette[color] = palette_ok(protocol, color, delta)
            if not ok:
                detail = f"node {p} returned {color!r} outside the palette"
                schedule = tuple(e[1][e[2]] for e in stack)
                report.safety_violations.append(Counterexample(schedule, detail))
                return report
            for q in adjacency[p]:
                if new_outputs[q] == color:
                    detail = f"adjacent nodes {q},{p} both returned {color!r}"
                    schedule = tuple(e[1][e[2]] for e in stack)
                    report.safety_violations.append(Counterexample(schedule, detail))
                    return report
        new_config = (
            tuple(new_registers),
            tuple(new_states),
            tuple(new_outputs),
            tuple(new_counts),
        )
        if counted and max(new_counts) > report.max_activations:
            report.max_activations = max(new_counts)
        if new_config in seen:
            report.memo_hits += 1
            continue
        seen.add(new_config)
        report.explored += 1
        if report.explored > config_ceiling:
            raise StateSpaceExceeded(f"explored more than {config_ceiling} configurations")
        if None in new_outputs:
            choices = subsets(new_outputs)
            stack.append([new_config, choices, len(choices)])
            report.max_depth = max(report.max_depth, len(stack) - 1)
    return report
