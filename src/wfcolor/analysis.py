"""Audits and metrics over recorded traces.

Most audits replay the trace's register bookkeeping: the published value of a
variable at time t is what its owner wrote at its latest working activation
up to t, and stays frozen once the owner returns or crashes. The two
heard-of sets per process (identifiers reachable along increasing paths, and
along decreasing ones) are recomputed here from that bookkeeping rather than
tracked inside the protocols, which keeps the transition functions minimal.
One loop replays them, checking at each working activation the slow6 lemmas
whose reports it is handed (between two of its moves, a node's published
identifier and heard-of sets do not change), so `run` and `audit` replay a
trace once. It holds each heard-of set as an int bitmask over the ranks of
the distinct published identifiers, so that a union is one `|` and a size, a
least or greatest element or an inclusion test is one int operation.

The published-identifier coloring of fast5 is checked by a streaming
observer, fed each step record as it happens, so that large runs are checked
without retaining their step records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, NamedTuple

from .engine import NotTerminated, StepRecord, Trace
from .model import Graph, IdAssignment, UNIQUE
from .protocols import Color, CollectorPaused, Continue, SLOW5, SLOW6, palette_ok


class ABSets(NamedTuple):
    """Identifiers a process has heard of along increasing (A) and
    decreasing (B) identifier paths."""

    A: frozenset[int]
    B: frozenset[int]


@dataclass
class AuditReport:
    name: str
    violations: list[tuple[int | None, int | None, str]] = field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, t: int | None, node: int | None, detail: str) -> None:
        self.violations.append((t, node, detail))

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.name}: {status}"


def check_proper_coloring(graph: Graph, outputs: Mapping[int, Color]) -> AuditReport:
    """Flag every edge whose two endpoints returned the same color."""
    report = AuditReport("proper_coloring")
    checked = 0
    for p, nbrs in enumerate(graph.adjacency):
        if p in outputs:
            color = outputs[p]
            for q in nbrs:
                if q > p and q in outputs:
                    checked += 1
                    if outputs[q] == color:
                        report.flag(None, p, f"nodes {p} and {q} both output {color!r}")
    report.checked = checked
    return report


def check_palette(outputs: Mapping[int, Color], protocol: str, delta: int = 2) -> AuditReport:
    """Flag every output outside the protocol's declared palette, in node
    order.

    Each distinct color is tested once when every color is an int or a tuple
    of ints: equal values of other types need not share a verdict (1, 1.0 and
    True, or (1, 1) and (1.0, 1)), so then each output is tested on its own.
    """
    report = AuditReport("palette")
    report.checked = len(outputs)
    colors = outputs.values()
    kinds = set(map(type, colors))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(colors)))
    if kinds <= {int}:
        bad = {color for color in set(colors) if not palette_ok(protocol, color, delta)}
        flagged = [p for p, color in outputs.items() if color in bad] if bad else []
    else:
        flagged = [p for p, color in outputs.items() if not palette_ok(protocol, color, delta)]
    for p in sorted(flagged):
        report.flag(None, p, f"output {outputs[p]!r} outside the {protocol} palette")
    return report


def round_complexity(trace: Trace) -> int:
    """Largest working-activation index reached by any process."""
    if not trace.terminated:
        raise NotTerminated("round complexity is defined for terminated traces only")
    return max(trace.activations.values(), default=0)


# --- published-value bookkeeping -------------------------------------------

def _replay(
    trace: Trace,
    steps: list[StepRecord],
    parity: AuditReport | None = None,
    exclusion: AuditReport | None = None,
    growth: AuditReport | None = None,
) -> tuple[list[int], list[int], list[int]]:
    """Replay the heard-of sets over steps, checking at each working
    activation the lemmas whose reports are given.

    The movers of a step publish their ids and sets; then each rebuilds its
    sets from the published ones of its larger (resp. smaller) neighbors.
    Returns the sorted distinct ids published in steps, values, and each
    node's sets as rebuilt at its latest move. A set is an int bitmask over
    the R ranks of values: A holds rank k as bit R-1-k and B as bit k, so
    that neither spends bits on the ranks on the other side of its owner's.
    Then |A| is A.bit_count(), A holds an id <= x_p iff A.bit_length() > R-1-r
    for x_p's rank r, B one >= x_p iff B.bit_length() > r, and A0 <= A is not
    A0 & ~A. A rank's bit is built where it is used, not kept per node: on
    10^4 nodes, that many ints of over 512 bytes fragment the heap.
    """
    adjacency = trace.header.graph.adjacency
    values = sorted({state.x for record in steps for state in record.writes.values()})
    rank = {x: k for k, x in enumerate(values)}
    top = len(values) - 1
    check_b = trace.header.ids.kind == UNIQUE
    n = len(adjacency)
    ranks: list[int | None] = [None] * n  # the rank of each node's published id
    local_a = [0] * n  # the sets each node rebuilt at its latest move
    local_b = [0] * n
    published_a = [0] * n  # the sets it wrote at that move
    published_b = [0] * n
    for record in steps:
        decisions = record.decisions
        writes = record.writes
        for p in decisions:
            ranks[p] = rank[writes[p].x]
            published_a[p] = local_a[p]
            published_b[p] = local_b[p]
        for p in decisions:
            rp = ranks[p]
            A = B = up = down = 0
            for q in adjacency[p]:
                rq = ranks[q]
                if rq is None:
                    continue
                if rq > rp:
                    up += 1
                    A |= published_a[q] | 1 << (top - rq)
                elif rq < rp:
                    down += 1
                    B |= published_b[q] | 1 << rq
            local_a[p] = A
            local_b[p] = B
            if parity is not None:
                decision = decisions[p]
                if isinstance(decision, Continue):
                    state = decision.state
                    if up <= 1:
                        parity.checked += 1
                        if state.a % 2 != A.bit_count() % 2:
                            parity.flag(record.t, p, f"a={state.a} but |A|={A.bit_count()}")
                    if down <= 1:
                        parity.checked += 1
                        if state.b % 2 != B.bit_count() % 2:
                            parity.flag(record.t, p, f"b={state.b} but |B|={B.bit_count()}")
            if exclusion is not None:
                exclusion.checked += 1
                if A.bit_length() > top - rp:
                    exclusion.flag(record.t, p, f"A contains a value <= published id {values[rp]}")
                if check_b and B.bit_length() > rp:
                    exclusion.flag(record.t, p, f"B contains a value >= published id {values[rp]}")
            if growth is not None:
                growth.checked += 1
                if published_a[p] & ~A:
                    growth.flag(record.t, p, "A lost elements")
                if published_b[p] & ~B:
                    growth.flag(record.t, p, "B lost elements")
    return values, local_a, local_b


def ab_sets(trace: Trace, node: int, t: int) -> ABSets:
    """The heard-of sets of a node at the end of step t (t = 0 gives empty sets)."""
    if not 0 <= t <= len(trace.steps):
        raise ValueError(f"time {t} outside the recorded 0..{len(trace.steps)} range")
    if not 0 <= node < trace.header.graph.node_count:
        raise ValueError(f"unknown node {node}")
    values, local_a, local_b = _replay(trace, trace.steps[:t])
    top = len(values) - 1
    A, B = local_a[node], local_b[node]
    return ABSets(
        frozenset(x for k, x in enumerate(values) if A >> (top - k) & 1),
        frozenset(x for k, x in enumerate(values) if B >> k & 1),
    )


def _require_protocol(trace: Trace, protocol: str, audit: str) -> None:
    if trace.header.protocol != protocol:
        raise ValueError(f"{audit} audits {protocol} traces, got {trace.header.protocol}")


def parity_audit(trace: Trace) -> AuditReport:
    """Activated processes that miss with at most one larger (resp. smaller)
    published neighbor must hold a color component matching the parity of
    their heard-of set on that side."""
    _require_protocol(trace, SLOW6, "parity")
    report = AuditReport("parity")
    _replay(trace, trace.steps, parity=report)
    return report


def ab_exclusion_audit(trace: Trace) -> AuditReport:
    """Everything heard of upward lies above the own published identifier,
    and (for unique-identifier inputs) everything heard of downward lies
    below it."""
    _require_protocol(trace, SLOW6, "ab_exclusion")
    report = AuditReport("ab_exclusion")
    _replay(trace, trace.steps, exclusion=report)
    return report


def ab_growth_audit(trace: Trace) -> AuditReport:
    """Heard-of sets only ever grow, inclusion-wise."""
    _require_protocol(trace, SLOW6, "ab_growth")
    report = AuditReport("ab_growth")
    _replay(trace, trace.steps, growth=report)
    return report


def heard_of_audits(trace: Trace) -> list[AuditReport]:
    """The parity, ab_exclusion and ab_growth audits from one replay."""
    _require_protocol(trace, SLOW6, "heard_of")
    reports = [AuditReport("parity"), AuditReport("ab_exclusion"), AuditReport("ab_growth")]
    _replay(trace, trace.steps, *reports)
    return reports


def stop_rule_audit(trace: Trace) -> AuditReport:
    """On every miss the refreshed b component avoids all four visible
    neighbor color components."""
    _require_protocol(trace, SLOW5, "stop_rule")
    report = AuditReport("stop_rule")
    for record in trace.steps:
        for p, decision in record.decisions.items():
            if not isinstance(decision, Continue):
                continue
            seen = {c for v in record.reads[p] if v is not None for c in (v.a, v.b)}
            report.checked += 1
            if decision.state.b in seen:
                report.flag(record.t, p, f"refreshed b={decision.state.b} collides with {sorted(seen)}")
    return report


class XhatColoringObserver:
    """Streaming check that published identifiers stay properly colored.

    Feed every step record of one run in order; violations accumulate in the
    report. A numpy kernel record carries the step's ids as arrays
    (`movers`, `written`, and `read` with -1 for an unwritten register) and is
    checked with one comparison of the ids read against the ids written,
    without building its fields. Any other record replays the published ids
    of its writes.
    """

    def __init__(self, graph: Graph):
        self._adjacency = graph.adjacency
        self._xhat: list[int | None] = [None] * graph.node_count
        self.report = AuditReport("xhat_coloring")

    def __call__(self, record: StepRecord) -> None:
        xhat = self._xhat
        adjacency = self._adjacency
        written = getattr(record, "written", None)
        if written is not None:
            seen = record.read
            self.report.checked += int(seen.size)
            collide = seen == written[:, None]
            if collide.any():
                for i, j in zip(*collide.nonzero()):
                    p, xp = int(record.movers[i]), int(written[i])
                    q = adjacency[p][j]
                    self.report.flag(record.t, p, f"published ids of neighbors {p},{q} both {xp}")
            return
        writes = record.writes
        for p, state in writes.items():
            xhat[p] = state.x
        checked = 0
        for p in writes:
            xp = xhat[p]
            neighbors = adjacency[p]
            checked += len(neighbors)
            for q in neighbors:
                if xhat[q] == xp:
                    self.report.flag(
                        record.t, p, f"published ids of neighbors {p},{q} both {xp}"
                    )
        self.report.checked += checked


# --- identifier geometry ----------------------------------------------------

def monotone_distances(ids: IdAssignment, graph: Graph) -> dict[int, tuple[int, int]]:
    """Per node, the distance to the nearest local maximum along a strictly
    increasing path and to the nearest local minimum along a strictly
    decreasing one. Local maxima have the first distance 0, minima the
    second. Runs with the collector paused, as new_states does: the
    collections that a tuple per node sets off would walk every record that
    the caller keeps."""
    if not graph.is_cycle:
        raise ValueError("monotone distances are defined on cycles")
    with CollectorPaused():
        ring = graph.depth_first_order()
        values = [ids.ids[p] for p in ring]
        negated = [-x for x in values]
        up_back, down_back = _rises(values), _rises(negated)
        up_on, down_on = _rises(values[::-1])[::-1], _rises(negated[::-1])[::-1]
        distances = [(0, 0)] * len(ring)
        for p, a, b, c, d in zip(ring, up_back, up_on, down_back, down_on):
            # the shorter of the walks that exist; a walk of 0 steps is none
            distances[p] = (b if not a or 0 < b < a else a, d if not c or 0 < d < c else c)
        return dict(enumerate(distances))


def _rises(values: list[int]) -> list[int]:
    """Per position of the cyclic sequence values, the steps of the strictly
    increasing walk from it toward the positions before it. The sweep starts
    past a maximum, where every such walk ends."""
    top = values.index(max(values))
    rises = [0] * len(values)
    run = 0
    for i in range(top + 1 - len(values), top):  # negative indices wrap round
        run = run + 1 if values[i - 1] > values[i] else 0
        rises[i] = run
    return rises


def slow6_bound(ell: int, ell_prime: int) -> int:
    return min(3 * ell, 3 * ell_prime, ell + ell_prime) + 4


def declared_bound(protocol: str, n: int) -> int | None:
    """The declared worst-case working activations of any node on the
    n-cycle: floor(3n/2) + 4 for slow6, 3n + 8 for slow5, and None for
    protocols without a closed-form bound."""
    if protocol == SLOW6:
        return 3 * n // 2 + 4
    if protocol == SLOW5:
        return 3 * n + 8
    return None


def activation_bound_audit(trace: Trace) -> AuditReport:
    """Per-node activation counts against the protocol's declared bounds.

    slow6: min(3l, 3l', l+l') + 4 per node plus floor(3n/2) + 4 globally;
    slow5: 3l + 4 for non-minima plus 3n + 8 for everyone.
    """
    protocol = trace.header.protocol
    if protocol not in (SLOW6, SLOW5):
        raise ValueError(f"no closed-form activation bound for {protocol}")
    graph = trace.header.graph
    ids = trace.header.ids
    n = graph.node_count
    distances = monotone_distances(ids, graph)
    report = AuditReport("activation_bound")
    global_bound = declared_bound(protocol, n)
    for p in range(n):
        count = trace.activations.get(p, 0)
        ell, ell_prime = distances[p]
        if protocol == SLOW6:
            bound = min(slow6_bound(ell, ell_prime), global_bound)
        else:
            bound = 3 * ell + 4 if ell_prime > 0 else global_bound
            bound = min(bound, global_bound)
        report.checked += 1
        if count > bound:
            report.flag(None, p, f"{count} working activations exceed bound {bound}")
    return report
