"""Trace bytes are a format: a fixed corpus keeps its sha256 values.

The corpus covers all four protocols and every schedule kind (sync, rr,
rand:, crash:, replay:@), and two fast5 runs whose traces hold "inf"
counters. Besides the bytes, each run pins its outputs, activation counts
and tstar, and reading the trace back gives the in-memory trace, with one
state object per distinct register record.
"""

import hashlib

import pytest

from wfcolor.engine import new_execution, read_trace, run, write_trace
from wfcolor.model import cycle, explicit_ids, from_edges, monotone_chain_ids
from wfcolor.schedulers import make_scheduler

GENERAL = from_edges(6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)])
FULL6 = "0,1,2,3,4,5"

# (label, graph, ids, protocol, schedule, sha256, outputs, activations, tstar)
CORPUS = [
    (
        "slow6/C5/sync", cycle(5), (47, 50, 67, 29, 109), "slow6", "sync",
        "0ddfad5f9115cc598ea0eefe0a14c989c09e990518b04e3b8219b81c81bdf2be",
        [(1, 0), (1, 1), (0, 1), (1, 0), (0, 1)], [2, 2, 2, 2, 2], 2,
    ),
    (
        "slow6/C6/chain/rr", cycle(6), None, "slow6", "rr",
        "7c5bf883fcee9b26b4668d541d21beed488df705d76356ffd48ccad669288b1b",
        [(1, 0), (0, 0), (0, 1), (1, 0), (1, 1), (0, 2)], [2, 1, 2, 3, 4, 3], 22,
    ),
    (
        "slow5/C7/rand", cycle(7), (212, 150, 80, 181, 53, 300, 313), "slow5", "rand:0.5:7",
        "679fa83649a59244c4be2e2eaf3a9d36ccd310b69a3d77068830db96c8310a18",
        [1, 2, 0, 2, 1, 0, 3], [3, 3, 3, 2, 2, 1, 3], 8,
    ),
    (
        "slow5/C5/crash", cycle(5), (111, 53, 66, 124, 46), "slow5", "crash:2@3;rand:0.6:1",
        "124cb1c015d074dbf89a58eae27693e2cb739885455e307595f2bdd4eeb3f717",
        [0, 2, None, 2, 3], [2, 2, 1, 3, 5], 9,
    ),
    (
        "fast5/C8/rand", cycle(8), (203, 155, 12, 33, 227, 214, 320, 73), "fast5", "rand:0.5:2",
        "252507b34fe1a1e99d2ccddc2e187186b768239150815e94551724f776a3a406",
        [0, 3, 0, 2, 1, 2, 1, 3], [3, 4, 3, 2, 2, 3, 2, 4], 8,
    ),
    (
        "fast5/C6/replay", cycle(6), (160, 152, 101, 205, 45, 166), "fast5",
        f"replay:@{FULL6}|1,3,5|0,2,4|{FULL6}|2|1,2,3|{FULL6}|{FULL6}",
        "b37822bc73b82e19feed7128ad52335101029edf7d0fdfc7d1b9265e44346d6a",
        [2, 1, 2, 1, 2, 1], [3, 2, 3, 2, 3, 2], 4,
    ),
    (
        "deltasq/G6/crash", GENERAL, (13, 145, 45, 164, 201, 136), "deltasq",
        "crash:0@2,4@5;sync",
        "534ec3fa9438b952146eaf0eb7e0f32bea3c36d9bfb4fd879a3a251cfb20067b",
        [None, (1, 1), (1, 0), (1, 2), (0, 1), (0, 1)], [1, 2, 2, 3, 2, 3], 3,
    ),
    (
        "deltasq/G6/replay", GENERAL, (73, 22, 117, 146, 124, 159), "deltasq",
        f"replay:@0,1|2,3,4,5|{FULL6}|3|{FULL6}|{FULL6}|{FULL6}",
        "71bc0f87a871b1f715f912e9ad25408bad840bfe03366afb00a728c30df85fff",
        [(0, 1), (1, 0), (2, 1), (1, 0), (0, 2), (0, 1)], [2, 2, 3, 3, 3, 2], 5,
    ),
]


@pytest.mark.parametrize("case", CORPUS, ids=[case[0] for case in CORPUS])
def test_trace_corpus_keeps_its_bytes(case, tmp_path):
    label, graph, values, protocol, sched, sha, outputs, activations, tstar = case
    n = graph.node_count
    ids = monotone_chain_ids(n) if values is None else explicit_ids(graph, values)
    trace = run(new_execution(graph, ids, protocol), make_scheduler(sched, n), 60, seed=3)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, str(path))
    data = path.read_bytes()

    assert hashlib.sha256(data).hexdigest() == sha
    assert [trace.outputs.get(p) for p in range(n)] == outputs
    assert [trace.activations[p] for p in range(n)] == activations
    assert trace.tstar == tstar
    loaded = read_trace(str(path))
    assert loaded == trace
    # one state object per distinct register record
    states = [s for record in loaded.steps for s in record.writes.values()]
    states += [v for record in loaded.steps for views in record.reads.values() for v in views]
    assert len(set(map(id, states))) == len(set(states))


def test_trace_corpus_holds_infinite_counters(tmp_path):
    for label, graph, values, protocol, sched, *_ in CORPUS:
        if protocol != "fast5":
            continue
        trace = run(
            new_execution(graph, explicit_ids(graph, values), protocol),
            make_scheduler(sched, graph.node_count), 60, seed=3,
        )
        path = tmp_path / "trace.jsonl"
        write_trace(trace, str(path))
        assert b'"inf"' in path.read_bytes(), label
