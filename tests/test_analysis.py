"""Audit tests.

The heard-of-set values for the triangle scenario were unfolded by hand from
the bookkeeping recursion: at the first synchronous step every process
publishes its input, so a node's upward set is its larger neighbor's
(empty) published set plus that neighbor's identifier, and symmetrically
downward.
"""

import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wfcolor.analysis import (
    XhatColoringObserver,
    ab_exclusion_audit,
    ab_growth_audit,
    ab_sets,
    activation_bound_audit,
    check_palette,
    check_proper_coloring,
    declared_bound,
    heard_of_audits,
    monotone_distances,
    parity_audit,
    round_complexity,
    stop_rule_audit,
)
from wfcolor.engine import NotTerminated, StepRecord, new_execution, read_trace, run, write_trace
from wfcolor.model import (
    cycle,
    explicit_ids,
    from_edges,
    monotone_chain_ids,
    proper_coloring_ids,
    random_connected_graph,
    random_unique_ids,
)
from wfcolor.protocols import Continue, INFINITE, PROTOCOLS, Return, palette_ok
from wfcolor.schedulers import make_scheduler


def triangle_trace(protocol="slow6", sched="sync", horizon=100):
    g = cycle(3)
    ex = new_execution(g, explicit_ids(g, [5, 1, 9]), protocol)
    return run(ex, make_scheduler(sched, 3), horizon)


def test_proper_coloring_single_output_passes():
    report = check_proper_coloring(cycle(3), {0: (1, 1)})
    assert report.passed


def test_proper_coloring_triangle_outputs():
    report = check_proper_coloring(cycle(3), {0: (1, 1), 1: (1, 0), 2: (0, 1)})
    assert report.passed


def test_proper_coloring_flags_equal_neighbors():
    report = check_proper_coloring(cycle(4), {0: 3, 1: 3})
    assert not report.passed
    assert len(report.violations) == 1


@pytest.mark.parametrize("seed", range(20))
def test_proper_coloring_flags_edges_in_edges_order(seed):
    g = random_connected_graph(12, 4, seed)
    rng = random.Random(seed)
    outputs = {p: rng.randrange(3) for p in range(12) if rng.random() < 0.8}
    report = check_proper_coloring(g, outputs)
    edges = [(p, q) for p, q in g.edges() if p in outputs and q in outputs]
    assert report.checked == len(edges)
    assert report.violations == [
        (None, p, f"nodes {p} and {q} both output {outputs[p]!r}")
        for p, q in edges if outputs[p] == outputs[q]
    ]


def test_palette_checks():
    assert not check_palette({0: 5}, "slow5").passed
    assert check_palette({0: (2, 0)}, "slow6").passed
    assert not check_palette({0: (2, 2)}, "deltasq", delta=3).passed


def test_palette_flags_a_tampered_output(tmp_path):
    trace = triangle_trace()
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    step, final = json.loads(lines[2]), json.loads(lines[-1])  # node 1 returns at step 2
    step["dec"]["1"] = ["ret", [-1, 3]]
    final["out"]["1"] = [-1, 3]
    lines[2], lines[-1] = json.dumps(step), json.dumps(final)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:  # the replay returns (1, 0)
        read_trace(str(path))
    assert str(excinfo.value) == (
        f'trace file {path} line 3: node 1 has dec ["ret", [-1, 3]], '
        'the replay of step 2 ["ret", [1, 0]]'
    )
    report = check_palette({**trace.outputs, 1: (-1, 3)}, "slow6")
    assert report.violations == [(None, 1, "output (-1, 3) outside the slow6 palette")]


_colors = st.one_of(
    st.integers(-2, 6),
    st.booleans(),
    st.sampled_from([1.0, 2.5, None, "1"]),
    st.tuples(st.integers(-2, 4), st.integers(-2, 4)),
    st.tuples(st.sampled_from([0, 1, 1.0, True]), st.sampled_from([0, 1, 1.0, False])),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.lists(st.integers(0, 2), min_size=2, max_size=2),
)


@given(
    st.dictionaries(st.integers(0, 30), _colors, max_size=12),
    st.sampled_from(PROTOCOLS),
    st.integers(0, 4),
)
@example({0: 1, 1: True}, "slow5", 2)
@example({0: (0, 0), 1: (False, 0)}, "slow6", 2)
def test_palette_flags_what_palette_ok_rejects_in_node_order(outputs, protocol, delta):
    # equal colors of different types (1, 1.0 and True, (1, 1) and (1.0, 1))
    # are tested on their own
    report = check_palette(outputs, protocol, delta)
    assert report.checked == len(outputs)
    assert report.violations == [
        (None, p, f"output {outputs[p]!r} outside the {protocol} palette")
        for p in sorted(outputs)
        if not palette_ok(protocol, outputs[p], delta)
    ]


def test_round_complexity_triangle():
    trace = triangle_trace()
    assert round_complexity(trace) == 2


def test_round_complexity_requires_termination():
    g = cycle(10)
    trace = run(new_execution(g, monotone_chain_ids(10), "slow6"), make_scheduler("sync", 10), 1)
    with pytest.raises(NotTerminated):
        round_complexity(trace)


def test_round_complexity_ignores_crashed_node():
    g = cycle(3)
    ex = new_execution(g, explicit_ids(g, [5, 1, 9]), "slow6")
    trace = run(ex, make_scheduler("crash:0@0;sync", 3), 100)
    assert round_complexity(trace) == 2
    assert trace.activations[0] == 0


def test_round_complexity_single_isolated_return():
    # a node whose neighbors never wake returns on its first activation
    g = cycle(3)
    ex = new_execution(g, explicit_ids(g, [5, 1, 9]), "slow6")
    trace = run(ex, make_scheduler("crash:0@0,1@0;sync", 3), 100)
    assert round_complexity(trace) == 1
    assert trace.outputs == {2: (0, 0)}


def test_ab_sets_start_empty():
    trace = triangle_trace()
    assert ab_sets(trace, 0, 0) == (frozenset(), frozenset())


def test_ab_sets_first_step_hand_values():
    trace = triangle_trace()
    assert ab_sets(trace, 0, 1) == (frozenset({9}), frozenset({1}))  # node with id 5
    assert ab_sets(trace, 2, 1) == (frozenset(), frozenset({1, 5}))  # node with id 9
    assert ab_sets(trace, 1, 1) == (frozenset({5, 9}), frozenset())  # node with id 1


def test_ab_sets_rejects_out_of_range():
    trace = triangle_trace()
    with pytest.raises(ValueError):
        ab_sets(trace, 0, 99)
    with pytest.raises(ValueError):
        ab_sets(trace, 7, 1)


def test_parity_audit_passes_synchronous_triangle():
    report = parity_audit(triangle_trace())
    assert report.passed
    assert report.checked > 0


def test_parity_audit_rejects_wrong_protocol():
    with pytest.raises(ValueError):
        parity_audit(triangle_trace(protocol="slow5"))


def _tamper_first_continue(trace, mutate):
    for i, record in enumerate(trace.steps):
        for p, decision in record.decisions.items():
            if isinstance(decision, Continue):
                decisions = dict(record.decisions)
                decisions[p] = Continue(mutate(decision.state))
                trace.steps[i] = StepRecord(
                    record.t, record.activated, record.writes, record.reads, decisions
                )
                return p
    raise AssertionError("no continue decision found")


def test_parity_audit_flags_corrupted_component():
    trace = triangle_trace()
    _tamper_first_continue(trace, lambda st: st._replace(a=st.a + 1))
    assert not parity_audit(trace).passed


def test_ab_exclusion_and_growth_pass_on_random_traces():
    g = cycle(9)
    for seed in range(5):
        ex = new_execution(g, random_unique_ids(g, seed=seed), "slow6")
        trace = run(ex, make_scheduler(f"rand:0.5:{seed}", 9), 400)
        assert trace.terminated
        assert ab_exclusion_audit(trace).passed
        assert ab_growth_audit(trace).passed
        assert parity_audit(trace).passed


def _republish(trace, t, node, x):
    """Rewrite the identifier a node published at step t."""
    record = trace.steps[t - 1]
    writes = dict(record.writes)
    writes[node] = writes[node]._replace(x=x)
    trace.steps[t - 1] = record._replace(writes=writes)


def test_ab_exclusion_flags_a_larger_neighbor_that_republishes_lower():
    # node 1 (id 1) re-publishes as 6 at step 2, carrying A = {5, 9} from step 1:
    # node 0 (id 5) now hears of 5 upward
    trace = triangle_trace()
    _republish(trace, 2, 1, 6)
    report = ab_exclusion_audit(trace)
    assert [(t, node) for t, node, _ in report.violations] == [(2, 0)]


def test_ab_growth_flags_sets_that_shrink():
    # node 2 (id 9) re-publishes as 3 at step 2: node 0 (id 5) loses 9 from A,
    # and node 2 itself loses 5 from B
    trace = triangle_trace()
    _republish(trace, 2, 2, 3)
    report = ab_growth_audit(trace)
    assert report.violations == [(2, 0, "A lost elements"), (2, 2, "B lost elements")]


def test_ab_exclusion_b_side_skipped_for_proper_inputs():
    from wfcolor.model import proper_coloring_ids

    g = cycle(8)
    ex = new_execution(g, proper_coloring_ids(g, 3, seed=1), "slow6")
    trace = run(ex, make_scheduler("sync", 8), 300)
    report = ab_exclusion_audit(trace)  # b side off by default for proper inputs
    assert report.passed


# The frozenset replay that the rank-bitmask one in analysis replaced, kept as
# the reference it is checked against.

def _reference_moves(trace):
    adjacency = trace.header.graph.adjacency
    empty = frozenset()
    xhat = [None] * len(adjacency)
    local = [(empty, empty)] * len(adjacency)
    published = [(empty, empty)] * len(adjacency)
    for record in trace.steps:
        moved = record.decisions.keys()
        for p in moved:
            xhat[p] = record.writes[p].x
            published[p] = local[p]
        for p in moved:
            xp = xhat[p]
            above = below = empty
            up = down = 0
            for q in adjacency[p]:
                xq = xhat[q]
                if xq is None:
                    continue
                if xq > xp:
                    up += 1
                    above = above | published[q][0] | {xq}
                elif xq < xp:
                    down += 1
                    below = below | published[q][1] | {xq}
            local[p] = (above, below)
            yield record, p, xp, published[p], local[p], up, down


def _reference_audits(trace):
    """(checked, violations) of the parity, exclusion and growth audits."""
    parity, exclusion, growth = [0, []], [0, []], [0, []]
    check_b = trace.header.ids.kind == "unique"
    for record, p, xp, (A0, B0), (A, B), n_up, n_down in _reference_moves(trace):
        t = record.t
        decision = record.decisions[p]
        if isinstance(decision, Continue):
            state = decision.state
            if n_up <= 1:
                parity[0] += 1
                if state.a % 2 != len(A) % 2:
                    parity[1].append((t, p, f"a={state.a} but |A|={len(A)}"))
            if n_down <= 1:
                parity[0] += 1
                if state.b % 2 != len(B) % 2:
                    parity[1].append((t, p, f"b={state.b} but |B|={len(B)}"))
        exclusion[0] += 1
        if A and min(A) <= xp:
            exclusion[1].append((t, p, f"A contains a value <= published id {xp}"))
        if check_b and B and max(B) >= xp:
            exclusion[1].append((t, p, f"B contains a value >= published id {xp}"))
        growth[0] += 1
        if not A0 <= A:
            growth[1].append((t, p, "A lost elements"))
        if not B0 <= B:
            growth[1].append((t, p, "B lost elements"))
    return [tuple(parity), tuple(exclusion), tuple(growth)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 9),
    id_mode=st.sampled_from(["random", "chain", "proper:3", "proper:4"]),
    seed=st.integers(0, 10**6),
    p_act=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    tampering=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-3, 3 * 9**3)),
        max_size=4,
    ),
)
def test_mask_replay_matches_the_frozenset_replay(n, id_mode, seed, p_act, tampering):
    g = cycle(n)
    if id_mode == "random":
        ids = random_unique_ids(g, seed=seed)
    elif id_mode == "chain":
        ids = monotone_chain_ids(n)
    else:
        ids = proper_coloring_ids(g, int(id_mode[7:]), seed=seed)
    trace = run(new_execution(g, ids, "slow6"), make_scheduler(f"rand:{p_act}:{seed}", n), 400)
    busy = [record.t for record in trace.steps if record.writes]
    for step_pick, node_pick, value in tampering:
        # republish an id outside the inputs (value >= 0 and not in them, or
        # negative) or one of them, which may duplicate a neighbor's
        t = busy[step_pick % len(busy)]
        movers = list(trace.steps[t - 1].writes)
        x = value if value % 3 else ids.ids[value % n]
        _republish(trace, t, movers[node_pick % len(movers)], x)

    reports = [parity_audit(trace), ab_exclusion_audit(trace), ab_growth_audit(trace)]
    assert [(r.checked, r.violations) for r in reports] == _reference_audits(trace)
    assert [(r.name, r.checked, r.violations) for r in heard_of_audits(trace)] == [
        (r.name, r.checked, r.violations) for r in reports
    ]
    rows = list(_reference_moves(trace))
    sets = {}
    for t in range(len(trace.steps) + 1):
        sets.update((p, after) for record, p, _, _, after, _, _ in rows if record.t == t)
        for node in range(n):
            assert ab_sets(trace, node, t) == sets.get(node, (frozenset(), frozenset()))


def test_stop_rule_audit_passes_and_detects_tampering():
    trace = triangle_trace(protocol="slow5", sched="rand:0.6:3", horizon=200)
    assert trace.terminated
    report = stop_rule_audit(trace)
    assert report.passed and report.checked > 0
    victim = _tamper_first_continue(trace, lambda st: st._replace(b=0))
    tampered = stop_rule_audit(trace)
    assert not tampered.passed
    assert tampered.violations[0][1] == victim


def test_stop_rule_rejects_wrong_protocol():
    with pytest.raises(ValueError):
        stop_rule_audit(triangle_trace())


def test_xhat_audit_passes_on_fast5():
    g = cycle(12)
    for seed in range(4):
        ex = new_execution(g, random_unique_ids(g, seed=seed), "fast5")
        observer = XhatColoringObserver(g)
        trace = run(ex, make_scheduler(f"rand:0.5:{seed}", 12), 400, [observer])
        assert trace.terminated
        assert observer.report.passed and observer.report.checked > 0


def test_xhat_audit_flags_corrupted_write():
    trace = triangle_trace(protocol="fast5")
    record = trace.steps[0]
    writes = dict(record.writes)
    writes[0] = writes[0]._replace(x=writes[1].x)
    observer = XhatColoringObserver(trace.header.graph)
    observer(StepRecord(record.t, record.activated, writes, record.reads, record.decisions))
    assert not observer.report.passed


def blocked(trace, node, t):
    """The fast5 blocked predicate: a finite counter equal to its published
    value on a process that has not returned by time t."""
    r_local = 0
    r_hat = None
    returned = False
    for record in trace.steps[:t]:
        if node in record.decisions:
            r_hat = record.writes[node].r
            decision = record.decisions[node]
            if isinstance(decision, Return):
                returned = True
            else:
                r_local = decision.state.r
    return (not returned) and r_local < INFINITE and r_local == r_hat


def test_fast5_reaches_a_blocked_state():
    g = cycle(4)
    ids = explicit_ids(g, [7, 12, 3, 20])
    for seed in range(6):
        ex = new_execution(g, ids, "fast5")
        trace = run(ex, make_scheduler(f"crash:0@2;rand:0.7:{seed}", 4), 300)
        if any(blocked(trace, p, t) for t in range(len(trace.steps) + 1) for p in range(4)):
            return
    pytest.fail("no blocked situation arose across the seeds")


def test_monotone_distances_chain():
    g = cycle(5)
    ids = monotone_chain_ids(5)
    distances = monotone_distances(ids, g)
    assert distances[2] == (2, 2)
    assert distances[4] == (0, 1)  # the unique local maximum
    assert distances[0] == (1, 0)  # the unique local minimum
    assert distances[1] == (3, 1)


def test_monotone_distances_alternating_ring():
    g = cycle(6)
    ids = explicit_ids(g, [10, 1, 11, 2, 12, 3])
    for ell, ell_prime in monotone_distances(ids, g).values():
        assert ell + ell_prime == 1


def test_monotone_distances_rejects_general_graphs():
    from wfcolor.model import random_connected_graph

    g = random_connected_graph(8, 3, seed=1)
    with pytest.raises(ValueError):
        monotone_distances(random_unique_ids(g, seed=0), g)


# The per-node walk that the ring sweeps in analysis replaced, kept as the
# reference they are checked against.

def _reference_distances(ids, graph):
    values = ids.ids

    def chase(p, q, up):  # steps of the monotone walk starting with edge p -> q
        steps, prev, cur = 1, p, q
        while True:
            a, b = graph.adjacency[cur]
            nxt = b if a == prev else a
            if (values[nxt] > values[cur]) == up and values[nxt] != values[cur]:
                prev, cur, steps = cur, nxt, steps + 1
            else:
                return steps

    out = {}
    for p in range(graph.node_count):
        ups = [chase(p, q, True) for q in graph.adjacency[p] if values[q] > values[p]]
        downs = [chase(p, q, False) for q in graph.adjacency[p] if values[q] < values[p]]
        out[p] = (min(ups, default=0), min(downs, default=0))
    return out


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 60),
    id_mode=st.sampled_from(["random", "chain", "proper:2", "proper:3", "proper:4", "narrow"]),
    seed=st.integers(0, 10**6),
    relabel=st.booleans(),
)
def test_monotone_distances_match_the_walk(n, id_mode, seed, relabel):
    rng = random.Random(seed)
    if relabel:
        order = rng.sample(range(n), n)
        g = from_edges(n, [(order[i - 1], order[i]) for i in range(n)])
    else:
        g = cycle(n)
    if id_mode == "random":
        ids = random_unique_ids(g, seed=seed)
    elif id_mode == "chain":
        ids = monotone_chain_ids(n)
    elif id_mode == "narrow":  # unique ids in [0, n)
        ids = explicit_ids(g, rng.sample(range(n), n))
    else:
        k = int(id_mode[7:])
        assume(k > 2 or n % 2 == 0)  # an odd cycle has no 2-coloring
        ids = proper_coloring_ids(g, k, seed=seed)
    assert monotone_distances(ids, g) == _reference_distances(ids, g)


def test_activation_bound_audit_slow6():
    g = cycle(11)
    for seed in range(5):
        ex = new_execution(g, random_unique_ids(g, seed=seed), "slow6")
        trace = run(ex, make_scheduler(f"rand:0.4:{seed}", 11), 440)
        assert trace.terminated
        assert activation_bound_audit(trace).passed


def test_activation_bound_audit_slow5():
    g = cycle(9)
    for sched in ("sync", "rr", "rand:0.5:8"):
        ex = new_execution(g, random_unique_ids(g, seed=3), "slow5")
        trace = run(ex, make_scheduler(sched, 9), 380)
        assert trace.terminated
        assert activation_bound_audit(trace).passed


@pytest.mark.parametrize("protocol", ["slow6", "slow5"])
def test_activation_bound_audit_flags_a_count_over_its_bound(protocol):
    g = cycle(9)
    trace = run(new_execution(g, random_unique_ids(g, seed=3), protocol),
                make_scheduler("rand:0.5:8", 9), 400)
    assert activation_bound_audit(trace).passed
    count = trace.activations[4] = declared_bound(protocol, 9) + 1  # over every node's bound
    report = activation_bound_audit(trace)
    assert not report.passed
    [(t, node, detail)] = report.violations
    assert (t, node) == (None, 4)
    assert detail.startswith(f"{count} working activations exceed bound ")
    assert int(detail.rsplit(" ", 1)[1]) < count


def test_activation_bound_audit_rejects_fast5():
    with pytest.raises(ValueError):
        activation_bound_audit(triangle_trace(protocol="fast5"))
