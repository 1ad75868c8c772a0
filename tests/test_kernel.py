"""Differential tests of the numpy kernel against the reference engine.

The kernel restates engine.step on arrays; every test here runs the
reference loop next to it and asks for the same returns and counts, the same
step records and the same trace bytes.
"""

import gc
import io
import random
import weakref
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from wfcolor import engine, kernel  # noqa: E402
from wfcolor.analysis import XhatColoringObserver  # noqa: E402
from wfcolor.engine import StepRecord, TraceFileWriter, TraceHeader, new_execution  # noqa: E402
from wfcolor.model import (  # noqa: E402
    cycle,
    explicit_ids,
    from_edges,
    monotone_chain_ids,
    proper_coloring_ids,
    random_unique_ids,
)
from wfcolor.protocols import ACTIVATE, CYCLE_ONLY, FAST5, INFINITE, ProtocolState  # noqa: E402
from wfcolor.schedulers import make_scheduler  # noqa: E402


def materialize(record: StepRecord) -> StepRecord:
    return StepRecord(record.t, tuple(record.activated), dict(record.writes),
                      dict(record.reads), dict(record.decisions))


def make_ids(graph, kind, seed):
    n = graph.node_count
    if kind == "chain":
        return monotone_chain_ids(n)
    if kind == "proper:3":  # not unique: neighbors of a neighbor may hold equal ids
        return proper_coloring_ids(graph, 3, seed=seed)
    if kind == "wide":  # up to the kernel's limit, where cv_reduce reads high bits
        return explicit_ids(graph, random.Random(seed).sample(range(engine.KERNEL_ID_LIMIT), n))
    return random_unique_ids(graph, seed=seed)


@st.composite
def schedules(draw, n, crash_depth=2):
    """A schedule text; a crash wraps any schedule, crashes up to crash_depth deep."""
    p = draw(st.sampled_from([0.3, 0.5, 1.0]))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["sync", "rr", "rand", "replay"] + ["crash"] * (crash_depth > 0)))
    if kind in ("sync", "rr"):
        return kind
    if kind == "rand":
        return f"rand:{p}:{seed}"
    if kind == "crash":
        crashes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 8)),
                                min_size=1, max_size=3))
        base = draw(schedules(n, crash_depth - 1))
        return "crash:" + ",".join(f"{q}@{t}" for q, t in crashes) + f";{base}"
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=40))
    return "replay:@" + "|".join(",".join(map(str, sorted(s))) for s in sets)


@st.composite
def runs(draw):
    n = draw(st.integers(3, 40))
    protocol = draw(st.sampled_from(CYCLE_ONLY))
    ids_kind = draw(st.sampled_from(["random", "chain", "proper:3", "wide"]))
    seed = draw(st.integers(0, 10**6))
    text = draw(schedules(n))
    horizon = draw(st.one_of(st.integers(1, 12), st.just(engine.default_horizon(protocol, n))))
    return n, protocol, ids_kind, seed, text, horizon


def run_both(graph, protocol, ids, text, horizon):
    """The reference run and the kernel run of one instance: each execution,
    its tstar, its materialized records and its trace writer's step lines."""
    n = graph.node_count
    header = TraceHeader(graph, ids, protocol, text, 0, horizon)
    results = []
    for use_kernel in (False, True):
        execution = new_execution(graph, ids, protocol)
        records = []
        buffer = io.StringIO()
        observers = [lambda r: records.append(materialize(r)), TraceFileWriter(buffer, header)]
        scheduler = make_scheduler(text, n)
        if use_kernel:
            tstar = kernel.run(execution, scheduler, horizon, observers)
        else:
            tstar = engine.run(execution, scheduler, horizon, observers, keep_steps=True).tstar
        results.append((execution, tstar, records, buffer.getvalue()))
    return results


STATE = ("returned", "activations", "last_move", "_t")  # what the trace reports


@settings(max_examples=200, deadline=None)
@given(runs())
def test_the_kernel_leaves_what_the_reference_leaves(case):
    n, protocol, ids_kind, seed, text, horizon = case
    graph = cycle(n)
    assert_same_runs(graph, protocol, make_ids(graph, ids_kind, seed), text, horizon)


def assert_same_runs(graph, protocol, ids, text, horizon):
    (ref, ref_tstar, ref_records, ref_lines), (ker, ker_tstar, ker_records, ker_lines) = run_both(
        graph, protocol, ids, text, horizon
    )
    assert ker_tstar == ref_tstar
    for name in STATE:
        assert getattr(ker, name) == getattr(ref, name), name
    assert list(ker.returned) == list(ref.returned)  # in the order of return
    assert ker_records == ref_records
    assert ker_lines == ref_lines


def test_the_adjacency_array_is_the_graph_run_and_goes_with_it():
    """The kernel keeps each graph's adjacency array. Two labelings of one
    ring, run back to back and then alternating, each run as the reference
    runs it; while both live, each graph's array is built once and comes
    back after the other graph runs, and it outlives neither graph."""
    n = engine.KERNEL_MIN_NODES
    order = random.Random(4).sample(range(n), n)
    graphs = [cycle(n), from_edges(n, ((order[i - 1], order[i]) for i in range(n)))]
    assert graphs[0].adjacency != graphs[1].adjacency
    ids = random_unique_ids(graphs[0], seed=6)
    arrays = []
    for graph in graphs[:1] * 2 + graphs[1:] * 2 + graphs * 2:
        assert_same_runs(graph, "fast5", ids, "rand:0.5:3", 400)
        arrays.append(kernel._adjacency(graph))
    assert len({id(array) for array in arrays}) == 2  # one array per graph, built once
    assert arrays[0] is arrays[4] and arrays[2] is arrays[5]  # back after the other ran
    for graph, array in zip(graphs, arrays[4:]):
        assert array.tolist() == [list(side) for side in zip(*graph.adjacency)]
    alive = [weakref.ref(graphs[0]), weakref.ref(arrays[0])]
    del graphs[0], arrays[:]
    gc.collect()
    assert [ref() for ref in alive] == [None, None]


@pytest.mark.parametrize("text", ["sync", "rand:0.5:3"])
def test_a_kernel_run_records_only_what_the_trace_reports(text):
    n = engine.KERNEL_MIN_NODES
    graph = cycle(n)
    ids = random_unique_ids(graph, seed=2)
    ker, ref = new_execution(graph, ids, "fast5"), new_execution(graph, ids, "fast5")
    scheduler = make_scheduler(text, n)
    trace = engine.run(ker, scheduler, 400, keep_steps=False)
    tstar = engine._run_steps(ref, make_scheduler(text, n), 400, (), None)
    assert trace.tstar == tstar is not None
    assert trace.outputs is ker.returned  # not a copy: the execution is spent
    assert ker.registers == [None] * n
    assert ker._states is None  # the states were never built
    assert scheduler._all is None  # nor the set of all nodes
    for name in STATE:
        assert getattr(ker, name) == getattr(ref, name), name
    assert list(ker.returned) == list(ref.returned)


@pytest.mark.parametrize("protocol", CYCLE_ONLY)
def test_run_routes_a_large_cycle_to_the_kernel_with_identical_trace_bytes(monkeypatch, protocol):
    n = engine.KERNEL_MIN_NODES
    graph = cycle(n)
    ids = random_unique_ids(graph, seed=5)
    horizon = engine.default_horizon(protocol, n)
    calls = []
    real_run = kernel.run
    monkeypatch.setattr(kernel, "run", lambda *args: calls.append(1) or real_run(*args))
    for text in ("rand:0.5:9", "crash:5@3,77@1;rand:0.5:9", "crash:5@3;sync"):
        written = []
        for keep_steps in (True, False):
            buffer = io.StringIO()
            execution = new_execution(graph, ids, protocol)
            scheduler = make_scheduler(text, n)
            writer = TraceFileWriter(buffer, TraceHeader(graph, ids, protocol, text, 4, horizon))
            trace = engine.run(execution, scheduler, horizon, [writer], keep_steps=keep_steps, seed=4)
            writer.finish(trace)
            written.append(buffer.getvalue())
        assert calls == [1], text  # only the run that keeps no steps
        assert trace.terminated, text
        assert written[0] == written[1], text
        calls.clear()


@pytest.mark.parametrize("top, routed", [(engine.KERNEL_ID_LIMIT, False),
                                         (engine.KERNEL_ID_LIMIT - 1, True)])
def test_run_routes_by_the_largest_id(monkeypatch, top, routed):
    # the kernel's cv_reduce reads bit lengths from float64, exact below KERNEL_ID_LIMIT
    def refuse(*args):
        raise AssertionError("kernel.run called")

    n = engine.KERNEL_MIN_NODES
    graph = cycle(n)
    values = random.Random(7).sample(range(2**52), n - 1) + [top]
    random.Random(8).shuffle(values)
    ids = explicit_ids(graph, values)
    calls = []
    real_run = kernel.run

    def count(*args):
        calls.append(1)
        return real_run(*args)

    monkeypatch.setattr(kernel, "run", count if routed else refuse)
    fast, ref = new_execution(graph, ids, "fast5"), new_execution(graph, ids, "fast5")
    trace = engine.run(fast, make_scheduler("rand:0.5:2", n), 400, keep_steps=False)
    reference = engine.run(ref, make_scheduler("rand:0.5:2", n), 400, keep_steps=True)
    assert calls == [1] * routed
    assert trace.terminated
    assert (trace.outputs, trace.activations, trace.tstar) == (
        reference.outputs, reference.activations, reference.tstar
    )
    assert list(fast.returned) == list(ref.returned)


@pytest.mark.parametrize("text", ["rr", "crash:3@1;rr", "crash:3@1;crash:9@2;rr"])
def test_run_keeps_rr_in_the_reference_loop(monkeypatch, text):
    # a kernel step costs O(n) and rr moves one node a step
    def refuse(*args):
        raise AssertionError("kernel.run called")

    n = engine.KERNEL_MIN_NODES
    graph = cycle(n)
    ids = random_unique_ids(graph, seed=3)
    monkeypatch.setattr(kernel, "run", refuse)
    fast, ref = new_execution(graph, ids, "slow6"), new_execution(graph, ids, "slow6")
    horizon = engine.default_horizon("slow6", n)
    trace = engine.run(fast, make_scheduler(text, n), horizon, keep_steps=False)
    reference = engine.run(ref, make_scheduler(text, n), horizon, keep_steps=True)
    assert trace.terminated
    assert (trace.outputs, trace.activations, trace.tstar) == (
        reference.outputs, reference.activations, reference.tstar
    )
    assert trace.outputs is fast.returned and reference.outputs is ref.returned  # not copies
    assert list(fast.returned) == list(ref.returned)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 7, 33, 101])
def test_rand_masks_equal_the_scheduler_draws(p, n):
    for seed in (0, 1, 17, 123456):
        scheduler = make_scheduler(f"rand:{p}:{seed}", n)
        masks = kernel._activation_masks(scheduler, n)
        for t in range(1, 51):
            assert np.flatnonzero(masks(t)).tolist() == sorted(scheduler.at(t))


def kernel_decisions(protocol, cases):
    """The kernel transition's decisions on cases (state, (view, view)), a
    None view standing for an unwritten register, as the reference's
    Decisions. Colors go in as uint8, as in a run."""
    def fields(states):
        x, a, b, r = zip(*((-1, 0, 0, 0) if s is None else (s.x, s.a, s.b, s.r or 0) for s in states))
        return np.array(x), np.array(a, np.uint8), np.array(b, np.uint8), np.array(r)

    pre = fields([state for state, _ in cases])
    view = tuple(map(np.stack, zip(*(fields([views[side] for _, views in cases]) for side in (0, 1)))))
    if protocol != FAST5:
        pre, view = pre[:3] + (None,), view[:3] + (None,)
    returns, colors, new = kernel._TRANSITIONS[protocol](pre, view, view[0] >= 0)
    movers = np.arange(len(cases))
    return list(kernel._Record(1, protocol, None, movers, pre, view, returns, colors, new)
                .decisions.values())


@pytest.mark.parametrize("protocol", CYCLE_ONLY)
def test_a_transition_equals_activate_on_every_small_case(protocol):
    """Every own (a, b) and neighbor (a, b) up to 4, each neighbor also
    unwritten, under every order of the three ids: the uint8 colors and
    their bitmasks neither overflow nor wrap. fast5's counters are 0 there,
    as the five-color half reads none. fast5 then also takes counters 0, 1
    and INFINITE in every combination, with every own (a, b) up to 4, each
    neighbor written or not, and every id order: a written neighbor shows
    (b, a), so the mover does not return and its identifier half runs
    whenever both are written."""
    r = 0 if protocol == FAST5 else None
    colors = list(product(range(5), repeat=2))
    orders = list(permutations((3, 10, 12)))
    cases = []
    for x, x0, x1 in orders:
        own = [ProtocolState(x, a, b, r) for a, b in colors]
        left, right = ([None] + [ProtocolState(v, a, b, r) for a, b in colors] for v in (x0, x1))
        cases += [(state, views) for state in own for views in product(left, right)]
    if protocol == FAST5:
        for (x, x0, x1), (r, r0, r1), (a, b) in product(
            orders, product((0, 1, INFINITE), repeat=3), colors
        ):
            left = (None, ProtocolState(x0, b, a, r0))
            right = (None, ProtocolState(x1, b, a, r1))
            cases += [(ProtocolState(x, a, b, r), views) for views in product(left, right)]
    expected = [ACTIVATE[protocol](state, views) for state, views in cases]
    got = kernel_decisions(protocol, cases)
    wrong = [(case, g, e) for case, g, e in zip(cases, got, expected) if g != e]
    assert not wrong[:5], f"{len(wrong)} of {len(cases)} cases differ"


def test_cv_reduce_equals_the_reference_on_every_small_pair_and_at_the_limit():
    from wfcolor.cointoss import cv_reduce

    values = list(range(130)) + [2**40, 2**40 + 1, 2**52, engine.KERNEL_ID_LIMIT - 1]
    x = np.array([a for a in values for _ in values])
    y = np.array([b for _ in values for b in values])
    expected = [cv_reduce(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert kernel.cv_reduce(x, y).tolist() == expected


def array_record(t, graph, registers, movers, published):
    """A kernel record of a fast5 step in which movers publish the given ids."""
    adjacency = np.array(graph.adjacency).T
    movers = np.array(movers)
    pre = kernel._fields("fast5", np.array(published, dtype=np.int64))
    for register, values in zip(registers, pre):
        register[movers] = values
    view = kernel._take(registers, adjacency[:, movers])
    returns, colors, new = kernel._fast5(pre, view, view[0] >= 0)
    active = np.zeros(graph.node_count, dtype=bool)
    active[movers] = True
    return kernel._Record(t, "fast5", active, movers, pre, view, returns, colors, new)


def test_xhat_observer_flags_colliding_arrays_as_its_loop_does():
    graph = cycle(5)
    registers = kernel._fields("fast5", np.full(5, -1, dtype=np.int64))  # unwritten
    records = [
        array_record(1, graph, registers, [0, 1, 3], [3, 3, 9]),
        array_record(2, graph, registers, [2, 4], [9, 3]),
    ]
    arrays, loop = XhatColoringObserver(graph), XhatColoringObserver(graph)
    for record in records:
        arrays(record)
        loop(materialize(record))
    assert arrays.report.violations == loop.report.violations == [
        (1, 0, "published ids of neighbors 0,1 both 3"),
        (1, 1, "published ids of neighbors 1,0 both 3"),
        (2, 2, "published ids of neighbors 2,3 both 9"),
        (2, 4, "published ids of neighbors 4,0 both 3"),
    ]
    assert arrays.report.checked == loop.report.checked == 10
    assert type(arrays.report.checked) is int


def test_the_xhat_observer_builds_no_field_of_a_kernel_record():
    fields = ("activated", "writes", "reads", "decisions")
    n = 50
    graph = cycle(n)
    execution = new_execution(graph, random_unique_ids(graph, seed=3), "fast5")
    audit, records = XhatColoringObserver(graph), []
    tstar = kernel.run(execution, make_scheduler("rand:0.5:1", n), 400, [audit, records.append])
    assert tstar is not None
    assert audit.report.checked > 0 and audit.report.passed
    assert all(not set(fields) & vars(record).keys() for record in records)
    for record in records:
        for name in fields:
            assert getattr(record, name) is getattr(record, name)
