import gc
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import wfcolor
from wfcolor.engine import (
    KERNEL_MIN_NODES,
    _RegisterTexts,
    StepEncoder,
    StepRecord,
    TraceFileWriter,
    TraceHeader,
    default_horizon,
    header_line,
    new_execution,
    parse_header,
    read_trace,
    run,
    step,
    step_line,
    write_trace,
)
from wfcolor.model import (
    cycle,
    explicit_ids,
    monotone_chain_ids,
    proper_coloring_ids,
    random_connected_graph,
    random_unique_ids,
)
from wfcolor.protocols import (
    INFINITE,
    PROTOCOLS,
    Continue,
    ProtocolState,
    Return,
    initial_state,
    slow6_activate,
)
from wfcolor.schedulers import CrashSched, ReplaySched, Scheduler, Synchronous, make_scheduler


def triangle_execution(protocol="slow6"):
    g = cycle(3)
    return new_execution(g, explicit_ids(g, [5, 1, 9]), protocol)


def test_new_execution_initial_state():
    ex = triangle_execution()
    assert ex.registers == [None, None, None]
    assert all(st.a == 0 and st.b == 0 for st in ex.states)
    assert ex.returned == {}
    assert ex.activations == [0, 0, 0]


@pytest.mark.parametrize("protocol", ["slow6", "slow5", "fast5", "deltasq"])
def test_new_execution_states_are_initial_states(protocol):
    g = cycle(7)
    ids = random_unique_ids(g, seed=3)
    ex = new_execution(g, ids, protocol)
    assert ex.states == [initial_state(protocol, x) for x in ids.ids]
    assert all(type(state) is ProtocolState for state in ex.states)
    assert {state.r for state in ex.states} == {0 if protocol == "fast5" else None}


def test_new_execution_rejects_an_unknown_protocol():
    g = cycle(4)
    with pytest.raises(ValueError, match="unknown protocol 'slow7'"):
        new_execution(g, monotone_chain_ids(4), "slow7")


def test_new_execution_validates_protocol_topology():
    g = random_connected_graph(6, 3, seed=0)
    ids = random_unique_ids(g, seed=0)
    with pytest.raises(ValueError):
        new_execution(g, ids, "fast5")
    new_execution(g, ids, "deltasq")
    new_execution(cycle(4), random_unique_ids(cycle(4), seed=0), "deltasq")


def test_new_execution_validates_ids_cover_graph():
    g = cycle(4)
    short = explicit_ids(cycle(3), [1, 2, 5])
    with pytest.raises(ValueError):
        new_execution(g, short, "slow6")


def test_empty_step_is_noop():
    ex = triangle_execution()
    record = ex.apply_step(set())
    assert record.writes == {} and record.decisions == {}
    assert ex.registers == [None, None, None]
    assert ex.activations == [0, 0, 0]


def test_unknown_node_rejected():
    ex = triangle_execution()
    for acts, named in (({3}, 3), ({-1}, -1), ({0, 5}, 5)):
        with pytest.raises(ValueError, match=f"unknown node index {named}$"):
            ex.apply_step(acts)
    assert ex.registers == [None, None, None]


@pytest.mark.parametrize("n", [5, KERNEL_MIN_NODES])
def test_run_refuses_an_execution_that_has_stepped(n):
    # a run numbers its steps from 1, so a stepped execution would give a
    # trace whose steps, activations and tstar disagree with the execution
    g = cycle(n)
    ex = new_execution(g, random_unique_ids(g, seed=1), "fast5")
    ex.apply_step({0, 1})
    ex.apply_step({2})
    for keep_steps in (True, False):  # the reference loop, and the kernel from KERNEL_MIN_NODES on
        with pytest.raises(ValueError, match="fresh execution; this one is at step 2$"):
            run(ex, make_scheduler("sync", n), 400, keep_steps=keep_steps)


def test_step_writes_then_reads_in_place():
    # the one write-then-read step, on the bare lists the model checker passes
    ex = triangle_execution()
    registers, states = list(ex.registers), list(ex.states)
    fresh = list(states)
    views, decisions = step(registers, states, [0, 1], cycle(3).adjacency, slow6_activate)
    assert registers == [fresh[0], fresh[1], None]
    assert views == [(fresh[1], None), (fresh[0], None)]
    assert all(isinstance(d, Continue) for d in decisions)
    assert states == [decisions[0].state, decisions[1].state, fresh[2]]


def test_simultaneous_neighbors_read_fresh_writes():
    # both neighbors of the step see each other's phase-1 value, not bottom
    ex = triangle_execution()
    record = ex.apply_step({0, 1})
    assert record.reads[0] == (ProtocolState(1, 0, 0), None)  # node 0 saw node 1
    assert record.reads[1] == (ProtocolState(5, 0, 0), None)  # node 1 saw node 0
    # neither returned: their colors collide
    assert all(isinstance(d, Continue) for d in record.decisions.values())


def test_first_synchronous_step_matches_hand_simulation():
    ex = triangle_execution()
    record = ex.apply_step({0, 1, 2})
    assert record.decisions[0].state == ProtocolState(5, 1, 1)
    assert record.decisions[1].state == ProtocolState(1, 1, 0)
    assert record.decisions[2].state == ProtocolState(9, 0, 1)
    record = ex.apply_step({0, 1, 2})
    assert ex.returned == {0: (1, 1), 1: (1, 0), 2: (0, 1)}
    assert ex.activations == [2, 2, 2]


def test_write_is_the_writers_state_before_the_activation():
    ex = triangle_execution("fast5")
    ex.apply_step({0, 1, 2})
    before = list(ex.states)
    record = ex.apply_step({0, 2})
    assert record.writes == {0: before[0], 2: before[2]}
    assert [ex.registers[p] for p in (0, 2)] == [before[0], before[2]]
    assert ex.states[0] != before[0]


def test_activating_returned_process_is_silent_noop():
    ex = triangle_execution()
    ex.apply_step({0, 1, 2})
    ex.apply_step({0, 1, 2})
    frozen = list(ex.registers)
    record = ex.apply_step({0, 1, 2})
    assert record.decisions == {}
    assert ex.registers == frozen
    assert ex.activations == [2, 2, 2]


def test_returned_register_stays_readable():
    # node 2 (id 9) returns alone on its first activation; its last write
    # stays readable by both neighbors afterwards
    ex = triangle_execution()
    record = ex.apply_step({2})
    assert record.decisions[2] == Return((0, 0))
    frozen = ex.registers[2]
    assert frozen == ProtocolState(9, 0, 0)
    record = ex.apply_step({0, 1})
    assert record.reads[0][1] == frozen
    assert record.reads[1][1] == frozen
    ex.apply_step({0, 1, 2})
    assert ex.registers[2] == frozen


def test_run_triangle_synchronous():
    trace = run(triangle_execution(), make_scheduler("sync", 3), 100)
    assert trace.tstar == 2
    assert trace.outputs == {0: (1, 1), 1: (1, 0), 2: (0, 1)}
    assert len(trace.steps) == 2


def test_run_rejects_zero_horizon():
    with pytest.raises(ValueError):
        run(triangle_execution(), make_scheduler("sync", 3), 0)


@pytest.mark.parametrize("text,count", [("rand:0.5:1", 3), ("sync", 7)])
def test_run_rejects_a_scheduler_built_for_another_node_count(text, count):
    # a 3-node rand scheduler on C5 would never activate nodes 3 and 4 yet
    # report termination; a 7-node one would fail only at its first step
    ex = new_execution(cycle(5), monotone_chain_ids(5), "slow6")
    with pytest.raises(ValueError, match=f"built for {count} nodes, the execution has 5"):
        run(ex, make_scheduler(text, count), 200)
    assert ex.activations == [0] * 5


def test_small_runs_and_model_checks_never_import_numpy():
    # numpy adds about 12 MB to a process; only the kernel for large cycles may load it
    src = os.path.dirname(os.path.dirname(wfcolor.__file__))
    code = """
import sys
import wfcolor, wfcolor.cli, wfcolor.engine
from wfcolor import cycle, exhaustive_check, explicit_ids, make_scheduler, monotone_chain_ids
from wfcolor import new_execution, run
g = cycle(16)
ex = new_execution(g, monotone_chain_ids(16), "slow6")
assert run(ex, make_scheduler("sync", 16), 400, keep_steps=False).terminated
c4 = cycle(4)
assert exhaustive_check(c4, explicit_ids(c4, (1, 2, 5, 9)), "slow6", 10).verdict == "pass"
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_run_reports_non_termination():
    g = cycle(10)
    ex = new_execution(g, monotone_chain_ids(10), "slow6")
    trace = run(ex, make_scheduler("sync", 10), 1)
    assert not trace.terminated
    assert trace.tstar is None


def test_wait_freedom_with_silent_node():
    # node 0 is never activated; the others still return
    g = cycle(3)
    ex = new_execution(g, explicit_ids(g, [5, 1, 9]), "slow6")
    sched = make_scheduler(CrashSched(Synchronous(), ((0, 0),)), 3)
    trace = run(ex, sched, 100)
    assert trace.terminated
    assert 0 not in trace.outputs
    assert set(trace.outputs) == {1, 2}
    assert trace.outputs[1] != trace.outputs[2]


def test_default_horizon_values():
    assert default_horizon("slow6", 10) == 400
    assert default_horizon("fast5", 10**5) == 400


def hat_series(trace):
    """Published values per Eq-style bookkeeping: what each process wrote at
    its latest working activation."""
    n = trace.header.graph.node_count
    series = []
    xhat = [None] * n
    for record in trace.steps:
        for p, rec in record.writes.items():
            xhat[p] = rec
        series.append(list(xhat))
    return series


def test_write_bookkeeping_matches_local_state():
    # every write equals the writer's local state at the end of the previous
    # step, reconstructed independently from the recorded decisions
    g = cycle(5)
    ex = new_execution(g, random_unique_ids(g, seed=11), "slow5")
    trace = run(ex, make_scheduler("rand:0.5:3", 5), 300)
    assert trace.terminated
    states = {p: ProtocolState(trace.header.ids.ids[p]) for p in range(5)}
    for record in trace.steps:
        for p, rec in record.writes.items():
            assert rec == states[p]
        for p, decision in record.decisions.items():
            if isinstance(decision, Continue):
                states[p] = decision.state
    assert len(trace.steps) == trace.tstar or not trace.steps


def test_reads_are_post_write_register_values():
    g = cycle(4)
    ex = new_execution(g, random_unique_ids(g, seed=2), "slow6")
    trace = run(ex, make_scheduler("rand:0.7:9", 4), 300)
    registers = [None] * 4
    adjacency = g.adjacency
    for record in trace.steps:
        for p, rec in record.writes.items():
            registers[p] = rec
        for p, views in record.reads.items():
            assert views == tuple(registers[q] for q in adjacency[p])


def test_determinism_byte_identical_traces(tmp_path):
    g = cycle(6)
    ids = random_unique_ids(g, seed=4)
    paths = []
    for i in range(2):
        ex = new_execution(g, ids, "fast5")
        trace = run(ex, make_scheduler("rand:0.5:13", 6), 200, seed=4)
        path = tmp_path / f"t{i}.jsonl"
        write_trace(trace, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_round_trip(tmp_path):
    g = cycle(4)
    ex = new_execution(g, explicit_ids(g, [3, 8, 1, 6]), "fast5")
    trace = run(ex, make_scheduler("rand:0.6:5", 4), 200, seed=1)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    loaded = read_trace(str(path))
    assert loaded.header == trace.header
    assert loaded.outputs == trace.outputs
    assert loaded.tstar == trace.tstar
    assert loaded.steps == trace.steps
    assert loaded.activations == trace.activations
    # an unwritten register reads as null, and reads back as None
    assert any(None in views for record in loaded.steps for views in record.reads.values())


def test_read_trace_shares_one_state_per_distinct_record(tmp_path):
    g = cycle(9)
    ex = new_execution(g, explicit_ids(g, [40, 3, 17, 25, 8, 31, 12, 50, 21]), "slow6")
    trace = run(ex, make_scheduler("rand:0.5:4", 9), 300)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    loaded = read_trace(str(path))
    assert loaded == trace
    latest = {}  # each node's latest write
    shared = 0
    for record in loaded.steps:
        latest.update(record.writes)
        for p, views in record.reads.items():
            for q, view in zip(g.adjacency[p], views):
                assert view is latest.get(q)  # a read is the write it saw
                shared += view is not None
    assert shared > 0
    assert_one_object_per_state(loaded)


def assert_one_object_per_state(trace):
    """Equal writes and cont states of a trace are one object."""
    states = [d.state for record in trace.steps for d in record.decisions.values()
              if isinstance(d, Continue)]
    states += [s for record in trace.steps for s in record.writes.values()]
    assert len(set(map(id, states))) == len(set(states))


def _edit_step(edit):
    """A mangler that applies edit to the JSON of the chosen step line."""
    def mangle(lines, i):
        raw = json.loads(lines[i])
        edit(raw)
        lines[i] = json.dumps(raw)
        return i + 1
    return mangle


def _three_field_write(raw):
    p, (x, r, a, b) = next(iter(raw["w"].items()))
    raw["w"][p] = [x, a, b]


def _unknown_decision_tag(raw):
    p, (_, payload) = next(iter(raw["dec"].items()))
    raw["dec"][p] = ["zzz", payload]


def _null_write(raw):
    p = next(iter(raw["w"]))
    raw["w"][p] = None


def _read_count(count):
    def edit(raw):
        p, views = next(iter(raw["rd"].items()))
        raw["rd"][p] = (views * 2)[:count]
    return edit


def _null_decision(tag):
    def edit(raw):
        p = next(iter(raw["dec"]))
        raw["dec"][p] = [tag, None]
    return edit


def _drop_mover(field):
    def edit(raw):
        p = next(iter(raw["w"]))
        if field == "act":
            raw["act"].remove(int(p))
        else:
            del raw[field][p]
    return edit


def _write_record(record):
    def edit(raw):
        p = next(iter(raw["w"]))
        raw["w"][p] = record
    return edit


def _false_in_a_written_read(raw):
    """Make false the last field, 0, of a read that its line also writes:
    an equal record beside it, where false would pass as 0."""
    written = list(raw["w"].values())
    views = next(v for v in raw["rd"].values() if v[0] in written and v[0][-1] == 0)
    views[0] = views[0][:-1] + [False]


def _true_for_one(raw):
    raw["act"][raw["act"].index(1)] = True


def _ret_color(color):
    def mangle(lines, i):
        j = next(j for j in range(1, len(lines) - 1) if '"ret"' in lines[j])
        raw = json.loads(lines[j])
        p = next(p for p, d in raw["dec"].items() if d[0] == "ret")
        raw["dec"][p] = ["ret", color]
        lines[j] = json.dumps(raw)
        return j + 1
    return mangle


def _not_json(lines, i):
    lines[i] = lines[i][:-1]
    return i + 1


def _header_field(name, value):
    def mangle(lines, i):
        raw = json.loads(lines[0])
        raw[name] = value
        lines[0] = json.dumps(raw)
        return 1
    return mangle


def _header_graph(name, value):
    """Set the header's graph field name, or its first edge for "edge"."""
    def mangle(lines, i):
        raw = json.loads(lines[0])
        if name == "edge":
            assert raw["graph"]["edges"][0] == [0, 1]
            raw["graph"]["edges"][0] = value
        else:
            raw["graph"][name] = value
        lines[0] = json.dumps(raw)
        return 1
    return mangle


def _replace(which, text):
    """Replace the header, the chosen step line or the final line with text."""
    def mangle(lines, i):
        j = {"header": 0, "step": i, "final": len(lines) - 1}[which]
        lines[j] = text
        return j + 1
    return mangle


def _final_without_out(lines, i):
    raw = json.loads(lines[-1])
    del raw["out"]
    lines[-1] = json.dumps(raw)
    return len(lines)


def _final_tstar(value):
    def mangle(lines, i):
        raw = json.loads(lines[-1])
        raw["tstar"] = value
        lines[-1] = json.dumps(raw)
        return len(lines)
    return mangle


def _final_out(edit):
    def mangle(lines, i):
        raw = json.loads(lines[-1])
        edit(raw["out"])
        lines[-1] = json.dumps(raw)
        return len(lines)
    return mangle


def _short_horizon(lines, i):
    _header_field("horizon", 1)(lines, i)
    return 3  # the line of step 2


def _return_early(lines, i):
    """Turn the chosen step's first decision into a return, which its node
    moves after: the forged return is the malformed line."""
    raw = json.loads(lines[i])
    p = next(iter(raw["dec"]))
    assert any(p in json.loads(lines[j])["dec"] for j in range(i + 1, len(lines) - 1))
    raw["dec"][p] = ["ret", 0]
    lines[i] = json.dumps(raw)
    return i + 1


@pytest.mark.parametrize(
    "mangle, problem",
    [
        (_edit_step(lambda raw: raw.pop("rd")), "no field 'rd'"),
        (_final_without_out, "no field 'out'"),
        (_edit_step(_three_field_write),
         "node 0 has w [3, 0, 0], the replay of step 1 [3, 0, 0, 0]"),
        (_not_json, "not a JSON line"),
        (_edit_step(_unknown_decision_tag),
         'node 0 has dec ["zzz", [3, 0, 1, 1]], the replay of step 1 ["cont", [3, 0, 1, 1]]'),
        (_edit_step(lambda raw: raw["dec"].update({"9": ["ret", 0]})), "unknown node index 9"),
        (_edit_step(_null_decision("cont")),
         'node 0 has dec ["cont", null], the replay of step 1 ["cont", [3, 0, 1, 1]]'),
        (_edit_step(_null_decision("ret")),
         'node 0 has dec ["ret", null], the replay of step 1 ["cont", [3, 0, 1, 1]]'),
        (_edit_step(lambda raw: raw["act"].append(9)),
         "act is [0, 1, 9], the replay of step 1 [0, 1]"),
        (_edit_step(lambda raw: raw["w"].update({"9": [1, 0, 0, 0]})), "unknown node index 9"),
        (_edit_step(lambda raw: raw["rd"].update({"9": [None, None]})), "unknown node index 9"),
        (_final_out(lambda out: out.update({"9": 0})), "unknown node index 9"),
        (_edit_step(_null_write), "node 0 has w null, the replay of step 1 [3, 0, 0, 0]"),
        (_edit_step(_read_count(1)),
         "node 0 has rd [[8, 0, 0, 0]], the replay of step 1 [[8, 0, 0, 0], null]"),
        (_edit_step(_read_count(3)),
         "node 0 has rd [[8, 0, 0, 0], null, [8, 0, 0, 0]], "
         "the replay of step 1 [[8, 0, 0, 0], null]"),
        (_edit_step(_drop_mover("w")), "node 0 has w none, the replay of step 1 [3, 0, 0, 0]"),
        (_edit_step(_drop_mover("rd")),
         "node 0 has rd none, the replay of step 1 [[8, 0, 0, 0], null]"),
        (_edit_step(_drop_mover("dec")),
         'node 0 has dec none, the replay of step 1 ["cont", [3, 0, 1, 1]]'),
        (_edit_step(_drop_mover("act")), "act is [1], the replay of step 1 [0, 1]"),
        (_edit_step(_write_record([[3], 0, 0, 0])),
         "node 0 has w [[3], 0, 0, 0], the replay of step 1 [3, 0, 0, 0]"),
        (_edit_step(_write_record(["3", 0, 0, 0])),
         'node 0 has w ["3", 0, 0, 0], the replay of step 1 [3, 0, 0, 0]'),
        (_edit_step(_write_record([3, None, 0, 0])),
         "node 0 has w [3, null, 0, 0], the replay of step 1 [3, 0, 0, 0]"),
        (_edit_step(_write_record([3.5, 0, 0, 0])),
         "node 0 has w [3.5, 0, 0, 0], the replay of step 1 [3, 0, 0, 0]"),
        (_edit_step(_write_record([True, 0, 0, 0])),
         "node 0 has w [true, 0, 0, 0], the replay of step 1 [3, 0, 0, 0]"),
        (_edit_step(_false_in_a_written_read),
         "node 0 has rd [[8, 0, 0, false], null], the replay of step 1 [[8, 0, 0, 0], null]"),
        (_edit_step(_true_for_one), "act is [0, true], the replay of step 1 [0, 1]"),
        (_ret_color("x"), 'node 1 has dec ["ret", "x"], the replay of step 3 ["ret", 0]'),
        (_ret_color([[0], 0]), 'node 1 has dec ["ret", [[0], 0]], the replay of step 3 ["ret", 0]'),
        (_ret_color(True), 'node 1 has dec ["ret", true], the replay of step 3 ["ret", 0]'),
        (_final_out(lambda out: out.update({"0": [1, False]})),
         "node 0 has out [1, false], the replay 1"),
        (_header_field("protocol", "slow7"), "unknown protocol 'slow7'"),
        (_header_field("horizon", "abc"), "field 'horizon' is not an integer: 'abc'"),
        (_header_field("horizon", -1), "field 'horizon' is negative: -1"),
        (_header_field("horizon", 0), "field 'horizon' is 0, but a run takes at least 1 step"),
        (_replace("header", "[1]"), "not a JSON object"),
        (_replace("step", "5"), "not a JSON object"),
        (_replace("step", "[1,2]"), "not a JSON object"),
        (_replace("final", "[1]"), "not a JSON object"),
        (_header_graph("edge", [False, True]), "field 'graph.edges' holds False, not an integer"),
        (_header_graph("n", 4.0), "field 'graph.n' is not an integer: 4.0"),
        (_edit_step(lambda raw: raw.update(t=99)), "t 99 is not this line's step number"),
        (_final_tstar("soon"), "tstar 'soon' is neither null nor a step from 0 to"),
        (_final_tstar(99), "tstar 99 is neither null nor a step from 0 to"),
        (_final_tstar(-3), "tstar -3 is neither null nor a step from 0 to"),
        (_short_horizon, "step 2 is past the header's horizon 1"),
        (_final_tstar(None), "tstar is null, but the steps stop at 6, before the horizon 200"),
        (_final_tstar(0), "tstar 0 is not 6, the last step with a decision"),
        (_return_early,
         'node 0 has dec ["ret", 0], the replay of step 1 ["cont", [3, 0, 1, 1]]'),
        (_final_out(lambda out: out.update({"0": 2})), "node 0 has out 2, the replay 1"),
        (_final_out(lambda out: out.pop("0")), "node 0 has out none, the replay 1"),
    ],
    ids=["step-without-rd", "final-without-out", "3-field-fast5-register", "non-json-step",
         "unknown-decision-tag", "decision-outside-graph", "null-continue", "null-return",
         "activation-outside-graph", "write-outside-graph", "read-outside-graph",
         "output-outside-graph", "null-write", "one-view-read", "three-view-read",
         "mover-without-write", "mover-without-read", "mover-without-decision",
         "mover-not-activated", "nested-list-register", "string-field", "null-counter",
         "float-field", "bool-field", "memoized-false-read", "true-activation",
         "string-color", "nested-color", "bool-color", "bool-output",
         "unknown-protocol", "string-horizon",
         "negative-horizon", "zero-horizon", "list-header", "int-step", "list-step",
         "list-final", "bool-edge", "float-node-count", "misnumbered-step",
         "string-tstar", "tstar-after-last-step", "negative-tstar", "steps-past-horizon",
         "null-tstar-before-horizon", "tstar-not-last-move", "move-after-return",
         "output-differs-from-return", "return-missing-from-out"],
)
def test_read_trace_names_the_file_and_line_of_a_malformed_line(tmp_path, mangle, problem):
    g = cycle(4)
    ex = new_execution(g, explicit_ids(g, [3, 8, 1, 6]), "fast5")
    path = tmp_path / "trace.jsonl"
    write_trace(run(ex, make_scheduler("rand:0.6:5", 4), 200, seed=1), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    busy = next(i for i in range(1, len(lines) - 1) if json.loads(lines[i])["w"])
    lineno = mangle(lines, busy)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_trace(str(path))
    message = str(excinfo.value)
    assert message.startswith(f"trace file {path} line {lineno}: "), message
    assert problem in message


def test_streaming_writer_equals_batch_writer(tmp_path):
    g = cycle(5)
    ids = random_unique_ids(g, seed=6)
    scheduler = make_scheduler("rand:0.4:2", 5)
    header = TraceHeader(g, ids, "slow6", scheduler.text, 6, 300)

    streamed = tmp_path / "stream.jsonl"
    with open(streamed, "w", encoding="utf-8") as fh:
        writer = TraceFileWriter(fh, header)
        ex = new_execution(g, ids, "slow6")
        trace = run(ex, scheduler, 300, observers=[writer], keep_steps=False, seed=6)
        writer.finish(trace)

    batch = tmp_path / "batch.jsonl"
    ex = new_execution(g, ids, "slow6")
    full = run(ex, scheduler, 300, seed=6)
    write_trace(full, str(batch))
    assert streamed.read_bytes() == batch.read_bytes()


def test_a_writers_memo_stays_within_its_bound(tmp_path):
    """Over a run of 10^3 steps the writer's register memo holds at most
    4n + 64 texts; held to 50, it empties itself and writes the same bytes.
    finish drops it."""
    n = 200
    g = cycle(n)
    ids = random_unique_ids(g, seed=2)
    scheduler = make_scheduler("rr", n)
    header = TraceHeader(g, ids, "slow5", scheduler.text, 0, default_horizon("slow5", n))
    trace = run(new_execution(g, ids, "slow5"), scheduler, header.horizon)
    assert len(trace.steps) >= 1000
    expected = tmp_path / "expected.jsonl"
    write_trace(trace, str(expected))
    for limit in (4 * n + 64, 50):
        path, sizes = tmp_path / f"memo-{limit}.jsonl", []
        with open(path, "w", encoding="utf-8") as fh:
            writer = TraceFileWriter(fh, header)
            assert writer._encode.texts.limit == 4 * n + 64
            texts = writer._encode.texts = CountedTexts(limit)
            run(new_execution(g, ids, "slow5"), scheduler, header.horizon,
                observers=[writer, lambda record: sizes.append(len(texts))], keep_steps=False)
            writer.finish(trace)
        assert writer._encode is None
        assert len(sizes) == len(trace.steps) and max(sizes) <= limit
        assert texts.clears > 0 if limit == 50 else texts.clears == 0
        assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("text, horizon", [
    ("crash:0@2;rand:0.5:3", None),
    ("crash:1@1;crash:3@4;rr", None),
    ("crash:0@0,1@0,2@0,3@0,4@0;sync", None),  # no node ever moves
    ("replay:@0,1||2,4|0,1,2,3,4|1,3", None),  # the sets run out before every node returns
    ("rand:0.5:3", 4),  # tstar null
    ("rr", 10),  # tstar null, and the last step a return
])
def test_crash_replay_and_unfinished_traces_read_back(tmp_path, text, horizon):
    trace = run(new_execution(cycle(5), monotone_chain_ids(5), "slow6"), make_scheduler(text, 5),
                horizon or default_horizon("slow6", 5))
    assert (trace.tstar is None) == (horizon is not None)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    assert read_trace(str(path)) == trace


def test_read_trace_refuses_steps_past_where_the_run_stops(tmp_path):
    """A step line the replay writes, after the step where run stops; and a
    tstar that disagrees with where the steps stop."""
    scheduler = make_scheduler("rand:0.5:3", 5)
    trace = run(new_execution(cycle(5), monotone_chain_ids(5), "slow6"), scheduler, 100)
    path = tmp_path / "trace.jsonl"
    t = len(trace.steps) + 1
    act = ",".join(map(str, sorted(scheduler.at(t))))
    extra = f'{{"act":[{act}],"dec":{{}},"rd":{{}},"t":{t},"w":{{}}}}\n'
    header = header_line(trace.header)
    for edit, lineno, problem in (
        (lambda lines: lines[:-1] + [extra] + lines[-1:], t + 1,
         f"step {t} is past the run's end at step {t - 1}, where every node the schedule "
         "may still activate has returned"),
        (lambda lines: lines[:1] + ['{"out":{},"tstar":0}\n'], 2,
         "tstar is 0, but the run goes on after step 0: a node the schedule may still "
         "activate is working"),
        (lambda lines: [header.replace('"horizon":100', f'"horizon":{t - 1}') + "\n"]
         + lines[1:-1] + [lines[-1].replace(f'"tstar":{t - 1}', '"tstar":null')], t + 1,
         f"tstar is null, but the run stops after step {t - 1}"),
    ):
        write_trace(trace, str(path))
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        with pytest.raises(ValueError) as excinfo:
            read_trace(str(path))
        assert str(excinfo.value) == f"trace file {path} line {lineno}: {problem}"


def _json_step_line(record):
    """The step line as json.dumps wrote it before step_line built text."""
    def register(rec):
        if rec is None:
            return None
        if rec.r is None:
            return [rec.x, rec.a, rec.b]
        return [rec.x, "inf" if rec.r == INFINITE else rec.r, rec.a, rec.b]

    def decision(d):
        if isinstance(d, Return):
            return ["ret", list(d.color) if isinstance(d.color, tuple) else d.color]
        return ["cont", register(d.state)]

    return json.dumps(
        {
            "t": record.t,
            "act": list(record.activated),
            "w": {str(p): register(rec) for p, rec in record.writes.items()},
            "rd": {str(p): [register(v) for v in views] for p, views in record.reads.items()},
            "dec": {str(p): decision(d) for p, d in record.decisions.items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _schedule(kind, n, seed):
    rng = random.Random(seed)
    if kind == "crash":
        return f"crash:{rng.randrange(n)}@{rng.randrange(4)};rand:0.6:{seed}"
    if kind == "replay":
        sets = [",".join(str(p) for p in range(n) if rng.random() < 0.5)
                for _ in range(rng.randrange(1, 30))]
        return f"replay:@{'|'.join(sets)}"
    return kind if kind in ("sync", "rr") else f"rand:0.5:{seed}"


@settings(max_examples=80, deadline=None)
@given(
    protocol=st.sampled_from(["slow6", "slow5", "fast5", "deltasq"]),
    n=st.integers(3, 40),
    kind=st.sampled_from(["sync", "rr", "rand", "crash", "replay"]),
    seed=st.integers(0, 10**6),
    degree3=st.booleans(),
    proper=st.booleans(),
)
def test_step_line_writes_what_json_dumps_wrote(protocol, n, kind, seed, degree3, proper):
    if protocol == "deltasq" and degree3:
        g = random_connected_graph(n, 3, seed=seed)
    else:
        g = cycle(n)
    # proper ids may repeat, so that two nodes start in equal states
    ids = proper_coloring_ids(g, 4, seed=seed) if proper else random_unique_ids(g, seed=seed)
    trace = run(new_execution(g, ids, protocol), make_scheduler(_schedule(kind, n, seed), n),
                default_horizon(protocol, n))
    dumped = [_json_step_line(record) for record in trace.steps]
    assert [step_line(record) for record in trace.steps] == dumped
    assert encode_trace(trace.steps, n)[:2] == (dumped, dumped)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl")
        write_trace(trace, path)
        loaded = read_trace(path)
    assert loaded == trace
    assert_one_object_per_state(loaded)


class CountedTexts(_RegisterTexts):
    """A register memo that counts the times it empties itself."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


def encode_trace(records, n):
    """The lines that one StepEncoder writes for records, the lines of one
    whose memo holds at most 5 texts, and the times that memo emptied."""
    encode, small = StepEncoder(n), StepEncoder(n)
    small.texts = CountedTexts(5)
    lines, small_lines = [], []
    for record in records:
        lines.append(encode(record))
        small_lines.append(small(record))
        assert len(small.texts) <= 5
    return lines, small_lines, small.texts.clears


def test_step_line_sorts_two_digit_keys_and_writes_frozen_counters():
    # the cases that the differential test above should meet, met for sure
    g = cycle(12)
    trace = run(new_execution(g, monotone_chain_ids(12), "fast5"), make_scheduler("sync", 12), 400)
    lines = [step_line(record) for record in trace.steps]
    assert lines == [_json_step_line(record) for record in trace.steps]
    encoded, small, clears = encode_trace(trace.steps, 12)
    assert encoded == small == lines and clears > 0
    assert lines[0].startswith('{"act":[0,1,2,3,4,5,6,7,8,9,10,11],"dec":{"0":')
    assert lines[0].index('"10":') < lines[0].index('"2":')
    assert any('"inf"' in line for line in lines)


def test_step_line_writes_kernel_records_as_json_dumps_did():
    pytest.importorskip("numpy")
    n = KERNEL_MIN_NODES
    g = cycle(n)
    for protocol in ("slow6", "slow5", "fast5"):
        records, lines = [], []

        def observer(record):
            assert not isinstance(record, StepRecord)  # the kernel ran
            records.append(record)
            lines.append(_json_step_line(record))

        ex = new_execution(g, random_unique_ids(g, seed=4), protocol)
        run(ex, make_scheduler("rand:0.5:4", n), default_horizon(protocol, n),
            observers=[observer], keep_steps=False)
        assert lines and [step_line(record) for record in records] == lines
        encoded, small, clears = encode_trace(records, n)
        assert encoded == small == lines and clears > 0


@pytest.mark.parametrize("protocol", ["slow6", "fast5"])
def test_a_kernel_written_trace_reads_back(tmp_path, protocol):
    pytest.importorskip("numpy")
    n = KERNEL_MIN_NODES
    g = cycle(n)
    ids = random_unique_ids(g, seed=5)
    scheduler = make_scheduler("rand:0.5:5", n)
    horizon = default_horizon(protocol, n)
    path = tmp_path / "trace.jsonl"

    def kernel_ran(record):
        assert not isinstance(record, StepRecord)

    with open(path, "w", encoding="utf-8") as fh:
        writer = TraceFileWriter(fh, TraceHeader(g, ids, protocol, scheduler.text, 5, horizon))
        trace = run(new_execution(g, ids, protocol), scheduler, horizon,
                    observers=[kernel_ran, writer], keep_steps=False, seed=5)
        writer.finish(trace)
    loaded = read_trace(str(path))
    assert trace.tstar is not None
    assert (loaded.outputs, loaded.activations, loaded.tstar) == (
        trace.outputs, trace.activations, trace.tstar
    )


# Two forgeries of a 5-node slow6 chain trace under rr that leave every line
# well formed: a read of [7, 0, 0], a record that nobody wrote, and node 1's
# return color with its out entry.
FORGERIES = [
    ([('"rd":{"2":[[1,0,0],null]}', '"rd":{"2":[[7,0,0],null]}')], 3,
     "node 2 has rd [[7, 0, 0], null], the replay of step 2 [[1, 0, 0], null]"),
    ([('"1":["ret",[0,0]]', '"1":["ret",[2,0]]'), ('"1":[0,0]', '"1":[2,0]')], 2,
     'node 1 has dec ["ret", [2, 0]], the replay of step 1 ["ret", [0, 0]]'),
]


def forge(path, edits):
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("edits, lineno, problem", FORGERIES,
                         ids=["unwritten-read", "forged-return"])
def test_read_trace_rejects_a_well_formed_forgery(tmp_path, edits, lineno, problem):
    ex = new_execution(cycle(5), monotone_chain_ids(5), "slow6")
    trace = run(ex, make_scheduler("rr", 5), default_horizon("slow6", 5))
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    forge(path, edits)
    with pytest.raises(ValueError) as excinfo:
        read_trace(str(path))
    assert str(excinfo.value) == f"trace file {path} line {lineno}: {problem}"


@pytest.mark.parametrize("protocol", ["slow6", "fast5"])
def test_a_read_trace_writes_back_the_same_bytes(tmp_path, protocol):
    g = cycle(11)  # node keys 10 and 2 sort as strings
    ex = new_execution(g, random_unique_ids(g, seed=11), protocol)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_trace(run(ex, make_scheduler("rand:0.5:3", 11), 400, seed=3), str(first))
    write_trace(read_trace(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_that_keeps_records_leaves_the_collector_as_it_found_it(enabled):
    def paused(record):
        seen.append(gc.isenabled())

    def failing(record):
        raise RuntimeError("observer failed")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        seen = []
        run(triangle_execution(), make_scheduler("sync", 3), 100, observers=[paused])
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="observer failed"):
            run(triangle_execution(), make_scheduler("sync", 3), 100, observers=[failing])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_kept_records_leave_the_young_generations(tmp_path):
    """run with keep_steps and read_trace end their pauses by moving what
    they built to the oldest generation, so no young collection walks it."""
    def young_records():
        return [o for gen in (0, 1) for o in gc.get_objects(gen) if type(o) is StepRecord]

    was = gc.isenabled()
    gc.enable()
    try:
        g = cycle(7)
        trace = run(new_execution(g, monotone_chain_ids(7), "slow6"),
                    make_scheduler("rand:0.5:3", 7), 400)
        assert trace.steps and gc.is_tracked(trace.steps[0])
        assert not young_records()
        write_trace(trace, str(tmp_path / "trace.jsonl"))
        loaded = read_trace(str(tmp_path / "trace.jsonl"))
        assert loaded == trace and gc.is_tracked(loaded.steps[0])
        assert not young_records()
    finally:
        (gc.enable if was else gc.disable)()


def test_header_line_round_trip():
    g = cycle(4)
    header = TraceHeader(g, explicit_ids(g, [3, 8, 1, 6]), "slow6", "sync", 7, 280)
    assert parse_header(header_line(header)) == header


def test_crash_is_equivalent_to_removal_after_return():
    # removing a returned process from later activation sets changes nothing
    g = cycle(4)
    ids = explicit_ids(g, [4, 9, 2, 7])
    base = make_scheduler("rand:0.8:21", 4)
    sets = [base.at(t) for t in range(1, 200)]
    ex = new_execution(g, ids, "slow6")
    trace = run(ex, base, 199)
    assert trace.terminated
    return_times = {}
    for record in trace.steps:
        for p, decision in record.decisions.items():
            if isinstance(decision, Return):
                return_times[p] = record.t
    pruned = [
        frozenset(p for p in s if t <= return_times.get(p, 10**9))
        for t, s in enumerate(sets, start=1)
    ]
    ex2 = new_execution(g, ids, "slow6")
    trace2 = run(ex2, Scheduler(ReplaySched(tuple(pruned)), 4), 199)
    assert trace2.outputs == trace.outputs
    assert {p: r for p, r in trace2.activations.items()} == trace.activations


@st.composite
def small_runs(draw):
    """A protocol, cycle size, ids seed, schedule text and horizon; the
    horizon is often too short, so runs that run out of it are drawn too."""
    n = draw(st.integers(3, 12))
    protocol = draw(st.sampled_from(PROTOCOLS))
    seed = draw(st.integers(0, 10**6))
    p = draw(st.sampled_from([0.3, 0.5, 1.0]))
    base = draw(st.sampled_from(["sync", "rr", f"rand:{p}:{seed}"]))
    crashes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 12)),
                            min_size=1, max_size=3))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=30))
    text = draw(st.sampled_from([
        base,
        "crash:" + ",".join(f"{q}@{t}" for q, t in crashes) + f";{base}",
        "replay:@" + "|".join(",".join(map(str, sorted(s))) for s in sets),
    ]))
    horizon = draw(st.one_of(st.integers(1, 12), st.just(default_horizon(protocol, n))))
    return protocol, n, seed, text, horizon


def runs_without_and_with_records(protocol, n, seed, text, horizon):
    """The execution and trace of a run that keeps no records, then of the
    same run keeping them."""
    g = cycle(n)
    ids = random_unique_ids(g, seed=seed)
    results = []
    for keep_steps in (False, True):
        ex = new_execution(g, ids, protocol)
        results.append((ex, run(ex, make_scheduler(text, n), horizon, keep_steps=keep_steps)))
    return results


def assert_same_outcome(fast, reference):
    (ex, trace), (ref, ref_trace) = fast, reference
    assert list(ex.returned.items()) == list(ref.returned.items())  # in return order
    assert (trace.outputs, trace.activations, trace.tstar) == (
        ref_trace.outputs, ref_trace.activations, ref_trace.tstar
    )
    for name in ("activations", "last_move", "_t"):
        assert getattr(ex, name) == getattr(ref, name), name
    assert (ex.registers, ex.states) == (ref.registers, ref.states)


@settings(max_examples=300, deadline=None)
@given(small_runs())
def test_the_no_record_loop_leaves_what_the_recording_loop_leaves(case):
    assert_same_outcome(*runs_without_and_with_records(*case))


@pytest.mark.parametrize("protocol, n, text, horizon, tstar, steps", [
    ("slow6", 10, "sync", 1, None, 1),  # the horizon runs out
    ("fast5", 5, "rr", 3, None, 3),
    ("slow5", 4, "replay:@0,1|2||3", 400, 4, 4),  # the replay ends: every node it names is done
    ("deltasq", 6, "crash:0@1,1@1,2@1,3@1,4@1,5@2;sync", 400, 1, 1),  # all crashed
])
def test_the_no_record_loop_stops_where_the_recording_loop_stops(
    protocol, n, text, horizon, tstar, steps
):
    fast, reference = runs_without_and_with_records(protocol, n, 3, text, horizon)
    assert_same_outcome(fast, reference)
    assert (fast[1].tstar, fast[0]._t) == (tstar, steps)


@pytest.mark.parametrize("protocol, n, text, horizon", [
    *[(protocol, 7, f"rand:0.05:{s}", None) for protocol in PROTOCOLS for s in (1, 2, 3)],
    ("slow6", 12, "rr", None),  # rr keeps landing on nodes that have returned
    ("slow5", 9, "rr", None),
    ("fast5", 5, "replay:@0,1||||2|||1,2,3||4|0,1,2,3,4||||||", None),  # trailing empty sets
    ("slow6", 4, "replay:@|||0|1||||2,3|||||", None),
    ("deltasq", 6, "crash:0@2,1@2,2@3,3@1,4@4;rr", None),  # one node stays up
    ("slow5", 6, "crash:1@1,2@2,3@2,4@1,5@3;rand:0.3:4", None),
    ("slow6", 5, "replay:@0||||||||||3", 6),  # the horizon runs out on empty steps
    ("fast5", 3, "rand:0.05:9", 5),
])
def test_an_empty_step_is_counted_without_a_step_call(monkeypatch, protocol, n, text, horizon):
    calls = []

    def counted_step(registers, states, movers, adjacency, activate):
        calls.append(len(movers))
        return step(registers, states, movers, adjacency, activate)

    monkeypatch.setattr(wfcolor.engine, "step", counted_step)
    if horizon is None:
        horizon = default_horizon(protocol, n)
    fast, reference = runs_without_and_with_records(protocol, n, 5, text, horizon)
    assert_same_outcome(fast, reference)
    movers = [len(record.decisions) for record in reference[1].steps]
    assert 0 in movers  # the case has empty steps to skip
    # each run, with records or without, calls step on the non-empty steps only
    assert calls == [k for k in movers if k] * 2
    if horizon < default_horizon(protocol, n):
        assert (fast[1].tstar, fast[0]._t) == (None, horizon)
