"""Audits and metrics over recorded traces.

Most audits replay the trace's register bookkeeping: the published value of a
variable at time t is what its owner wrote at its latest working activation
up to t, and stays frozen once the owner returns or crashes. The two
heard-of sets per process (identifiers reachable along increasing paths, and
along decreasing ones) are recomputed here from that bookkeeping rather than
tracked inside the protocols, which keeps the transition functions minimal.
One replay yields a row per working activation, and the slow6 lemma audits
check only those rows: between two of its moves, a node's published
identifier and heard-of sets do not change. The replay holds each heard-of
set as an int bitmask over the ranks of the distinct published identifiers,
so that a union is one `|` and a size, a least or greatest element or an
inclusion test is one int operation; `ab_sets` turns masks back into sets.

The published-identifier coloring of fast5 is checked by a streaming
observer, fed each step record as it happens, so that large runs are checked
without retaining their step records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Mapping, NamedTuple

from .engine import NotTerminated, StepRecord, Trace
from .model import Graph, IdAssignment, UNIQUE
from .protocols import Color, Continue, SLOW5, SLOW6, palette_ok


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
    of ints: equal values of other types need not share a verdict (1 and 1.0,
    or (1, 1) and (1.0, 1)), so then each output is tested on its own.
    """
    report = AuditReport("palette")
    report.checked = len(outputs)
    colors = outputs.values()
    kinds = set(map(type, colors))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(colors)))
    if kinds <= {int, bool}:
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

_Masks = tuple[int, int]  # the heard-of sets A and B as rank bitmasks
_Row = tuple[StepRecord, int, int, _Masks, _Masks, int, int]


def _moves(trace: Trace) -> tuple[list[int], Iterator[_Row]]:
    """Replay a trace's heard-of sets, one row per working activation.

    The movers of a step publish their ids and sets; then each rebuilds its
    sets from the published ones of its larger (resp. smaller) neighbors. A
    row is (record, p, the id x p published, p's sets before and after the
    step, how many neighbors had published ids above x and below x).

    Returns the sorted distinct published ids, values, with the rows. A set
    is an int bitmask over the R ranks of values: A holds rank k as bit
    R-1-k and B as bit k, so that neither spends bits on the ranks on the
    other side of its owner's. Then |A| is A.bit_count(), min(A) is
    values[R - A.bit_length()], max(B) is values[B.bit_length() - 1], and
    A0 <= A is not A0 & ~A.
    """
    values = sorted({state.x for record in trace.steps for state in record.writes.values()})
    return values, _replay(trace, values)


def _replay(trace: Trace, values: list[int]) -> Iterator[_Row]:
    """_moves' rows. A rank's bit is built where it is used, not kept per
    node: on 10^4 nodes, that many ints of over 512 bytes fragment the heap."""
    adjacency = trace.header.graph.adjacency
    rank = {x: k for k, x in enumerate(values)}
    top = len(values) - 1
    n = len(adjacency)
    ranks: list[int | None] = [None] * n  # the rank of each node's published id
    local_a = [0] * n  # the sets each node rebuilt at its latest move
    local_b = [0] * n
    published_a = [0] * n  # the sets it wrote at that move
    published_b = [0] * n
    for record in trace.steps:
        moved = record.decisions.keys()
        writes = record.writes
        for p in moved:
            ranks[p] = rank[writes[p].x]
            published_a[p] = local_a[p]
            published_b[p] = local_b[p]
        for p in moved:
            rp = ranks[p]
            above = below = up = down = 0
            for q in adjacency[p]:
                rq = ranks[q]
                if rq is None:
                    continue
                if rq > rp:
                    up += 1
                    above |= published_a[q] | 1 << (top - rq)
                elif rq < rp:
                    down += 1
                    below |= published_b[q] | 1 << rq
            local_a[p] = above
            local_b[p] = below
            yield (record, p, values[rp], (published_a[p], published_b[p]),
                   (above, below), up, down)


def ab_sets(trace: Trace, node: int, t: int) -> ABSets:
    """The heard-of sets of a node at the end of step t (t = 0 gives empty sets)."""
    if not 0 <= t <= len(trace.steps):
        raise ValueError(f"time {t} outside the recorded 0..{len(trace.steps)} range")
    if not 0 <= node < trace.header.graph.node_count:
        raise ValueError(f"unknown node {node}")
    values, rows = _moves(trace)
    masks = (0, 0)
    for record, p, _, _, after, _, _ in rows:
        if record.t > t:
            break
        if p == node:
            masks = after
    top = len(values) - 1
    A, B = masks
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
    for record, p, _, _, (A, B), n_up, n_down in _moves(trace)[1]:
        decision = record.decisions[p]
        if not isinstance(decision, Continue):
            continue
        state = decision.state
        if n_up <= 1:
            report.checked += 1
            if state.a % 2 != A.bit_count() % 2:
                report.flag(record.t, p, f"a={state.a} but |A|={A.bit_count()}")
        if n_down <= 1:
            report.checked += 1
            if state.b % 2 != B.bit_count() % 2:
                report.flag(record.t, p, f"b={state.b} but |B|={B.bit_count()}")
    return report


def ab_exclusion_audit(trace: Trace) -> AuditReport:
    """Everything heard of upward lies above the own published identifier,
    and (for unique-identifier inputs) everything heard of downward lies
    below it."""
    _require_protocol(trace, SLOW6, "ab_exclusion")
    check_b = trace.header.ids.kind == UNIQUE
    report = AuditReport("ab_exclusion")
    values, rows = _moves(trace)
    count = len(values)
    for record, p, xp, _, (A, B), _, _ in rows:
        report.checked += 1
        if A and values[count - A.bit_length()] <= xp:
            report.flag(record.t, p, f"A contains a value <= published id {xp}")
        if check_b and B and values[B.bit_length() - 1] >= xp:
            report.flag(record.t, p, f"B contains a value >= published id {xp}")
    return report


def ab_growth_audit(trace: Trace) -> AuditReport:
    """Heard-of sets only ever grow, inclusion-wise."""
    _require_protocol(trace, SLOW6, "ab_growth")
    report = AuditReport("ab_growth")
    for record, p, _, (A0, B0), (A, B), _, _ in _moves(trace)[1]:
        report.checked += 1
        if A0 & ~A:
            report.flag(record.t, p, "A lost elements")
        if B0 & ~B:
            report.flag(record.t, p, "B lost elements")
    return report


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
    second."""
    if not graph.is_cycle:
        raise ValueError("monotone distances are defined on cycles")
    values = ids.ids
    n = graph.node_count

    def chase(p: int, q: int, up: bool) -> int:
        # length of the monotone run starting with edge p -> q (pre: strict step)
        steps = 1
        prev, cur = p, q
        while True:
            a, b = graph.adjacency[cur]
            nxt = b if a == prev else a
            if (values[nxt] > values[cur]) == up and values[nxt] != values[cur]:
                prev, cur = cur, nxt
                steps += 1
                if steps > n:
                    raise RuntimeError("monotone walk failed to terminate")
            else:
                return steps

    out = {}
    for p in range(n):
        ups = [chase(p, q, True) for q in graph.adjacency[p] if values[q] > values[p]]
        downs = [chase(p, q, False) for q in graph.adjacency[p] if values[q] < values[p]]
        out[p] = (min(ups) if ups else 0, min(downs) if downs else 0)
    return out


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
