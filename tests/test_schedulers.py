import random

import pytest

from wfcolor import protocols, schedulers
from wfcolor.engine import KERNEL_MIN_NODES, new_execution, run
from wfcolor.model import (
    cycle,
    explicit_ids,
    monotone_chain_ids,
    random_connected_graph,
    random_unique_ids,
)
from wfcolor.schedulers import (
    ReplaySched,
    Scheduler,
    StateSpaceExceeded,
    exhaustive_check,
    format_descriptor,
    load_schedule,
    make_scheduler,
    parse_descriptor,
    random_stream,
    save_schedule,
    worst_case_search,
)


def test_synchronous_yields_everyone():
    s = make_scheduler("sync", 3)
    assert s.at(1) == s.at(2) == frozenset({0, 1, 2})


def test_round_robin_order():
    s = make_scheduler("rr", 3)
    assert s.at(1) == frozenset({1})
    assert s.at(2) == frozenset({2})
    assert s.at(3) == frozenset({0})


def test_crash_removes_node_from_time_onward():
    s = make_scheduler("crash:0@2;sync", 3)
    assert s.at(1) == frozenset({0, 1, 2})
    assert s.at(2) == frozenset({1, 2})
    assert s.at(5) == frozenset({1, 2})


def test_crash_is_subset_of_base():
    base = make_scheduler("rand:0.6:3", 5)
    crashed = make_scheduler("crash:1@4,3@0;rand:0.6:3", 5)
    for t in range(1, 60):
        assert crashed.at(t) <= base.at(t)


def test_random_scheduler_is_pure():
    a = make_scheduler("rand:0.5:42", 6)
    b = make_scheduler("rand:0.5:42", 6)
    assert [a.at(t) for t in range(1, 50)] == [b.at(t) for t in range(1, 50)]
    c = make_scheduler("rand:0.5:43", 6)
    assert any(a.at(t) != c.at(t) for t in range(1, 50))


def test_random_scheduler_full_probability():
    s = make_scheduler("rand:1.0:0", 4)
    assert s.at(7) == frozenset(range(4))


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty rand: set memo for one test."""
    monkeypatch.setattr(schedulers, "_SETS", {})
    monkeypatch.setattr(schedulers, "_INTERNED", {})
    monkeypatch.setattr(schedulers, "_units", 0)


def _defined_rand_set(p, seed, t, n, dead=()):
    """sigma(t) of rand:<p>:<seed> on n nodes, from the stream's definition."""
    draw = random_stream(seed, t).random
    return frozenset(i for i in range(n) if draw() < p) - set(dead)


def _held():
    """What the memo counts against its cap: its keys and stored steps, and
    1 + len(s) for each interned set s."""
    stored = sum(len(sets or ()) for sets in schedulers._SETS.values())
    return len(schedulers._SETS) + stored + sum(1 + len(s) for s in schedulers._INTERNED)


@pytest.mark.usefixtures("fresh_memo")
def test_rand_sets_follow_the_stream_as_node_counts_grow_and_shrink():
    # each (seed, p, n) runs three times at each n: the first run only marks
    # the key, the second stores its sets and the third reads them; a size
    # met again reads from its first use on; KERNEL_MIN_NODES nodes bypass
    # the memo
    sizes = [1, 3, 5, 16, 200, KERNEL_MIN_NODES, 16, 5, 3, 1]
    for n in sizes:
        for p in (0.1, 0.5, 0.9, 1.0):
            for seed in (0, 7, 2**40):
                for _ in range(3):
                    s = make_scheduler(f"rand:{p}:{seed}", n)
                    for t in (1, 2, 13, 400):
                        assert s.at(t) == _defined_rand_set(p, seed, t, n)
            for _ in range(3):
                crashed = make_scheduler(f"crash:0@3;rand:{p}:4", n)
                for t in (1, 3, 9):
                    dead = (0,) if t >= 3 else ()
                    assert crashed.at(t) == _defined_rand_set(p, 4, t, n, dead)
    memo = schedulers._SETS
    assert memo[(0, 0.5, 200)] == {t: _defined_rand_set(0.5, 0, t, 200) for t in (1, 2, 13, 400)}
    assert memo[(4, 0.5, 16)] == {t: _defined_rand_set(0.5, 4, t, 16) for t in (1, 3, 9)}
    assert all(n < KERNEL_MIN_NODES for _, _, n in memo)
    # equal sets are one object: under p = 1.0 every step of every seed
    assert len({id(s) for sets in memo.values() for s in sets.values() if len(s) == 200}) == 1
    assert all(schedulers._INTERNED[s] is s for sets in memo.values() for s in sets.values())
    assert schedulers._units == _held()


@pytest.mark.usefixtures("fresh_memo")
def test_a_rand_descriptor_seeds_each_step_in_two_runs_at_most(monkeypatch):
    # the first run marks the descriptor's key, the second keeps its sets,
    # and every later run reads them
    calls = []

    def counted(seed, t):
        calls.append((seed, t))
        return random_stream(seed, t)

    monkeypatch.setattr(schedulers, "random_stream", counted)
    g = cycle(6)
    ids = random_unique_ids(g, seed=2)
    traces, seeded = [], []
    for _ in range(3):
        ex = new_execution(g, ids, "slow6")
        traces.append(run(ex, make_scheduler("rand:0.4:9", 6), 400, keep_steps=False))
        seeded.append(sorted(calls))
        calls.clear()
    assert seeded[0] == seeded[1] == [(9, t) for t in range(1, len(seeded[0]) + 1)]
    assert seeded[0] and not seeded[2]
    assert traces[0].outputs == traces[1].outputs == traces[2].outputs
    assert traces[0].activations == traces[1].activations == traces[2].activations


@pytest.mark.usefixtures("fresh_memo")
def test_the_draws_memo_stays_under_its_cap(monkeypatch):
    cap = 400
    monkeypatch.setattr(schedulers, "_SETS_CAP", cap)
    n = 16
    clears = 0
    for seed in range(100):
        for _ in range(3):
            s = make_scheduler(f"rand:0.5:{seed}", n)
            for t in (1, 2):
                before = schedulers._units
                assert s.at(t) == _defined_rand_set(0.5, seed, t, n)
                clears += schedulers._units < before
                assert schedulers._units == _held() <= cap
    assert clears >= 3
    # a scheduler bound before a clear reads what it holds and stores no more
    for _ in range(2):
        kept = make_scheduler("rand:0.5:500", n)
        first = kept.at(1)
    while (500, 0.5, n) in schedulers._SETS:  # marks only, until the memo is cleared
        make_scheduler(f"rand:0.5:{1000 + schedulers._units}", n).at(1)
        assert schedulers._units == _held() <= cap
    assert kept.at(1) is first
    assert kept.at(2) == _defined_rand_set(0.5, 500, 2, n)
    assert kept._sets == {1: first}
    assert schedulers._units == _held()


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        make_scheduler("rand:0.0:1", 3)
    with pytest.raises(ValueError):
        make_scheduler("rand:1.5:1", 3)


def test_descriptor_round_trips():
    for text in (
        "sync",
        "rr",
        "rand:0.3:17",
        "crash:0@2,2@5;sync",
        "crash:1@3;rand:0.5:9",
        "crash:0@1;crash:1@2;rr",
        "replay:@0,1|2||0",
    ):
        assert format_descriptor(parse_descriptor(text)) == text


def test_replay_inline_sets():
    d = parse_descriptor("replay:@0,1|2||0")
    assert d.sets == (frozenset({0, 1}), frozenset({2}), frozenset(), frozenset({0}))
    s = Scheduler(d, 3)
    assert s.at(1) == frozenset({0, 1})
    assert s.at(3) == frozenset()
    assert s.at(9) == frozenset()


@pytest.mark.parametrize("text", ["sync", "rr", "rand:0.5:3", "crash:0@4,2@7;sync",
                                  "crash:1@6;crash:0@4;rand:0.5:3"])
def test_support_is_none_while_every_node_may_still_be_activated(text):
    s = make_scheduler(text, 3)
    assert [s.support_after(t) for t in range(4)] == [None] * 4


def test_crash_support_is_one_set_between_crash_times():
    for text in ("crash:0@4,2@7;sync", "crash:0@4,2@7;rand:0.5:3", "crash:2@7;crash:0@4;rr"):
        s = make_scheduler(text, 3)
        first = s.support_after(4)
        assert first == frozenset({1, 2})
        assert all(s.support_after(t) is first for t in range(5, 7))
        second = s.support_after(7)
        assert second == frozenset({1})
        assert all(s.support_after(t) is second for t in range(8, 40))
    s = make_scheduler("crash:2@2;replay:@0,1,2|0,2|1", 3)
    assert s.support_after(1) == frozenset({0, 1, 2})
    assert s.support_after(2) is s.support_after(2) == frozenset({0, 1})
    assert s.support_after(3) == frozenset({1})


def test_replay_support_shrinks():
    s = Scheduler(ReplaySched((frozenset({0, 1}), frozenset({2}), frozenset({0}))), 3)
    assert s.support_after(1) == frozenset({0, 1, 2})
    assert s.support_after(2) == frozenset({0, 2})
    assert s.support_after(4) == frozenset()


def test_schedule_file_round_trip(tmp_path):
    sets = (frozenset({0, 2}), frozenset(), frozenset({1}))
    path = tmp_path / "sched.txt"
    save_schedule(sets, str(path))
    assert load_schedule(str(path)) == sets
    d = parse_descriptor(f"replay:{path}")
    assert d.sets == sets
    assert format_descriptor(d) == "replay:@0,2||1"


def test_replay_equivalence_for_every_descriptor_family():
    g = cycle(5)
    ids = random_unique_ids(g, seed=8)
    for text in ("sync", "rr", "rand:0.4:11", "crash:2@6;rand:0.7:2"):
        sched = make_scheduler(text, 5)
        trace = run(new_execution(g, ids, "slow5"), sched, 240)
        replayed = Scheduler(ReplaySched(tuple(frozenset(r.activated) for r in trace.steps)), 5)
        other = run(new_execution(g, ids, "slow5"), replayed, 240)
        assert other.outputs == trace.outputs
        assert other.steps == trace.steps
        assert other.tstar == trace.tstar


def test_worst_case_search_deterministic():
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    first = worst_case_search(g, ids, "slow6", budget=30, seed=5)
    second = worst_case_search(g, ids, "slow6", budget=30, seed=5)
    assert first == second


def test_worst_case_search_respects_declared_bound():
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    _, worst = worst_case_search(g, ids, "slow6", budget=150, seed=1)
    assert 1 <= worst <= 3 * 3 // 2 + 4


def test_worst_case_search_budget_one_is_single_sample():
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    descriptor, worst = worst_case_search(g, ids, "slow6", budget=1, seed=9)
    ex = new_execution(g, ids, "slow6")
    for s in descriptor.sets:
        ex.apply_step(s)
        if ex.all_returned():
            break
    assert max(ex.activations) == worst


def test_exhaustive_bound_zero_fails_immediately():
    g = cycle(3)
    report = exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", 0)
    assert report.verdict == "fail"
    assert report.bound_violations
    node, count = report.bound_violations[0]
    assert count == 1


def test_exhaustive_slow6_triangle_passes_declared_bound():
    g = cycle(3)
    report = exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", 8)
    assert report.verdict == "pass"
    assert report.explored > 100
    assert report.memo_hits > 0
    assert report.max_activations <= 8


def test_exhaustive_detects_too_tight_bound():
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    passing = exhaustive_check(g, ids, "slow6", 8)
    tight = exhaustive_check(g, ids, "slow6", passing.max_activations - 1)
    assert tight.verdict == "fail"
    assert tight.bound_violations
    assert tight.bound_schedule is not None


def test_exhaustive_counterexample_schedule_replays():
    # the reported schedule must reproduce the bound violation on the engine
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    passing = exhaustive_check(g, ids, "slow6", 8)
    tight_bound = passing.max_activations - 1
    report = exhaustive_check(g, ids, "slow6", tight_bound)
    node, count = report.bound_violations[0]
    ex = new_execution(g, ids, "slow6")
    for step in report.bound_schedule:
        ex.apply_step(set(step))
    assert ex.activations[node] == count > tight_bound


def test_exhaustive_rejects_large_instances():
    g = cycle(6)
    with pytest.raises(ValueError):
        exhaustive_check(g, random_unique_ids(g, seed=0), "slow6", 10)


def test_exhaustive_rejects_negative_bound():
    g = cycle(3)
    with pytest.raises(ValueError, match="at least 0"):
        exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", -1)


def test_exhaustive_ceiling_raises():
    g = cycle(3)
    with pytest.raises(StateSpaceExceeded):
        exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", 8, config_ceiling=10)


def _continue_once_then_return_0_0(state, views):
    # a fake transition: the first activation moves a to 1, every later one returns (0, 0)
    if state.a == 0:
        return protocols.Continue(state._replace(a=1))
    return protocols.Return((0, 0))


@pytest.mark.parametrize("bound", [None, 8])
def test_exhaustive_reports_adjacent_equal_returns_with_their_schedule(monkeypatch, bound):
    monkeypatch.setitem(protocols.ACTIVATE, "slow6", _continue_once_then_return_0_0)
    g = cycle(3)
    report = exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", bound)
    assert report.verdict == "fail"
    assert report.explored == 2
    assert not report.bound_violations
    [counterexample] = report.safety_violations
    assert counterexample.schedule == ((0, 1, 2), (0, 1, 2))
    assert counterexample.detail == "adjacent nodes 1,0 both returned (0, 0)"


def test_exhaustive_reports_a_return_outside_the_palette(monkeypatch):
    monkeypatch.setitem(protocols.ACTIVATE, "slow6", lambda state, views: protocols.Return((3, 0)))
    g = cycle(3)
    report = exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", None)
    assert report.verdict == "fail"
    assert report.explored == 1
    [counterexample] = report.safety_violations
    assert counterexample.schedule == ((0, 1, 2),)
    assert counterexample.detail == "node 0 returned (3, 0) outside the palette"


def test_exhaustive_safety_witness_replays_on_the_engine(monkeypatch):
    # a fake transition returning (0, 0) at a node's third activation: the witness is read
    # off a stack whose lower entries have already tried other subsets
    def third_returns(state, views):
        return protocols.Return((0, 0)) if state.a == 2 else protocols.Continue(
            state._replace(a=state.a + 1))

    monkeypatch.setitem(protocols.ACTIVATE, "slow6", third_returns)
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    [counterexample] = exhaustive_check(g, ids, "slow6", None).safety_violations
    assert len(counterexample.schedule) >= 3
    ex = new_execution(g, ids, "slow6")
    for movers in counterexample.schedule:
        ex.apply_step(movers)
    q, p = map(int, counterexample.detail.split()[2].split(","))
    assert ex.returned[q] == ex.returned[p] == (0, 0)
    assert counterexample.detail == f"adjacent nodes {q},{p} both returned (0, 0)"


# (protocol, graph, ids, bound) -> (verdict, explored, memo_hits, max_activations):
# these pin the DFS order and the merging of configurations, not only verdicts
C4, C5, TRIANGLE = cycle(4), cycle(5), cycle(3)
K4 = random_connected_graph(4, 3, 0)
PINNED_CHECKS = [
    ("slow6", C4, monotone_chain_ids(4), 10, ("pass", 2483, 4965, 4)),
    ("slow6", C5, explicit_ids(C5, (26, 34, 29, 43, 12)), 11, ("pass", 2406, 10991, 4)),
    ("slow6", C5, explicit_ids(C5, (26, 34, 29, 43, 12)), None, ("pass", 1895, 10072, 0)),
    ("deltasq", K4, explicit_ids(K4, (26, 34, 29, 43)), None, ("pass", 1762, 4752, 0)),
    ("slow5", TRIANGLE, explicit_ids(TRIANGLE, (1, 2, 5)), 25, ("fail", 213, 0, 25)),
    ("fast5", TRIANGLE, explicit_ids(TRIANGLE, (1, 2, 5)), 25, ("fail", 213, 0, 25)),
]


def _counts(report):
    return report.verdict, report.explored, report.memo_hits, report.max_activations


@pytest.mark.parametrize(
    "protocol,graph,ids,bound,expected", PINNED_CHECKS,
    ids=["slow6-C4-chain-10", "slow6-C5-11", "slow6-C5-safety", "deltasq-K4-safety",
         "slow5-C3-25", "fast5-C3-25"],
)
def test_exhaustive_counts_are_pinned(protocol, graph, ids, bound, expected):
    report = exhaustive_check(graph, ids, protocol, bound)
    assert _counts(report) == expected


def test_exhaustive_calls_the_transition_once_per_state_and_views(monkeypatch):
    real = protocols.ACTIVATE["slow6"]
    inputs = []

    def recorder(state, views):
        inputs.append((state, views))
        return real(state, views)

    monkeypatch.setitem(protocols.ACTIVATE, "slow6", recorder)
    protocol, graph, ids, bound, expected = PINNED_CHECKS[0]
    report = exhaustive_check(graph, ids, protocol, bound)
    assert _counts(report) == expected
    assert inputs and len(inputs) == len(set(inputs))


def test_exhaustive_counts_the_violating_step_as_a_transition():
    g = cycle(3)
    report = exhaustive_check(g, explicit_ids(g, [1, 2, 5]), "slow6", 2)
    assert (report.explored, report.memo_hits, report.transitions, report.max_depth) == (
        14, 13, 27, 3)


def reference_worst_case_search(graph, ids, protocol, budget, seed):
    """worst_case_search as it reads without its skip: every candidate runs,
    from the same rng draws."""
    n = graph.node_count
    rng = random.Random(f"worstcase:{seed}")
    steps = 6 * n + 24

    def random_schedule():
        return [frozenset(p for p in range(n) if rng.random() < 0.5) for _ in range(steps)]

    def mutate(sets):
        out = list(sets)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(steps)
            if rng.random() < 0.5:
                out[i] = frozenset(p for p in range(n) if rng.random() < 0.5)
            else:
                p = rng.randrange(n)
                out[i] = out[i] - {p} if p in out[i] else out[i] | {p}
        return out

    def value(sets):
        ex = new_execution(graph, ids, protocol)
        for s in sets:
            ex.apply_step(s, record=False)
            if ex.all_returned():
                break
        return max(ex.activations)

    current = random_schedule()
    current_value = value(current)
    best, best_value = current, current_value
    stall = 0
    for _ in range(budget - 1):
        restart = stall >= 40
        candidate = random_schedule() if restart else mutate(current)
        candidate_value = value(candidate)
        if restart or candidate_value >= current_value:
            current, current_value = candidate, candidate_value
        if candidate_value > best_value:
            best, best_value = candidate, candidate_value
            stall = 0
        else:
            stall = 0 if restart else stall + 1
    return ReplaySched(tuple(best)), best_value


SEARCHES = [
    (protocol, n, None, seed, budget)
    for protocol, sizes in (("slow6", (3, 5, 8)), ("slow5", (4, 6, 7)), ("deltasq", (3, 8)))
    for n in sizes
    for seed, budget in ((0, 1), (n, 60), (3 * n + 1, 300))
] + [("slow5", 3, (1, 2, 5), seed, budget) for seed, budget in ((0, 100), (4, 300))] + [
    # a mutant of the incumbent's last step changes the value here
    ("slow6", 3, None, 1, 300),
    ("deltasq", 3, None, 6, 300),
]


@pytest.mark.parametrize("protocol, n, explicit, seed, budget", SEARCHES)
def test_worst_case_search_finds_what_running_every_candidate_finds(
    protocol, n, explicit, seed, budget
):
    g = cycle(n)
    ids = random_unique_ids(g, seed=seed) if explicit is None else explicit_ids(g, explicit)
    expected = reference_worst_case_search(g, ids, protocol, budget, seed)
    assert worst_case_search(g, ids, protocol, budget, seed) == expected


def _return_after_20_activations(state, views):
    if state.a == 20:
        return protocols.Return(state.x)
    return protocols.Continue(state._replace(a=state.a + 1))


def test_worst_case_search_is_exact_where_schedules_do_not_end(monkeypatch):
    # a node returns at its 21st activation, about what half of a schedule
    # gives it, so some runs apply every step and are never skipped
    monkeypatch.setitem(protocols.ACTIVATE, "slow5", _return_after_20_activations)
    counts = []
    measure = schedulers._max_working_activations

    def measured(*args):
        value, count = measure(*args)
        counts.append(count)
        return value, count

    monkeypatch.setattr(schedulers, "_max_working_activations", measured)
    g = cycle(3)
    ids = explicit_ids(g, [1, 2, 5])
    expected = reference_worst_case_search(g, ids, "slow5", 300, 2)
    assert worst_case_search(g, ids, "slow5", 300, 2) == expected
    steps = 6 * 3 + 24
    assert steps in counts and min(counts) < steps
    assert len(counts) < 300


def test_worst_case_search_runs_fewer_candidates_than_its_budget(monkeypatch):
    g = cycle(8)
    ids = random_unique_ids(g, seed=0)
    runs = []

    def counted(*args):
        runs.append(args)
        return new_execution(*args)

    monkeypatch.setattr(schedulers, "new_execution", counted)
    found = worst_case_search(g, ids, "slow6", budget=2000, seed=0)
    assert len(runs) < 2000
    monkeypatch.undo()
    assert found == reference_worst_case_search(g, ids, "slow6", 2000, 0)
