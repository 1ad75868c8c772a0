import contextlib
import io
import json
import os
import random
import string
import subprocess
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

import wfcolor
from wfcolor import analysis, cli, protocols, schedulers
from wfcolor.cli import ExperimentConfig, main
from wfcolor.engine import new_execution, run, write_trace
from wfcolor.model import cycle, explicit_ids
from wfcolor.schedulers import load_schedule, make_scheduler


def run_cli(*argv):
    return main(list(argv))


def test_run_triangle_exits_clean(capsys):
    code = run_cli("run", "--protocol", "slow6", "--n", "3", "--ids", "chain", "--sched", "sync")
    out = capsys.readouterr().out
    assert code == 0
    assert "terminated: yes (tstar=2)" in out
    assert "round_complexity: 2" in out
    assert "audit proper_coloring: pass" in out


def test_run_too_small_horizon_is_violation(capsys):
    code = run_cli("run", "--protocol", "slow6", "--n", "10", "--ids", "chain", "--horizon", "1")
    out = capsys.readouterr().out
    assert code == 1
    assert "terminated: no" in out


def test_run_protocol_topology_mismatch_is_usage_error(tmp_path, capsys):
    edges = tmp_path / "general.edges"
    edges.write_text("0 1\n1 2\n2 0\n0 3\n")
    code = run_cli("run", "--protocol", "fast5", "--graph", str(edges))
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("bogus") == 2


def test_missing_n_and_graph_is_usage_error(capsys):
    assert run_cli("run", "--protocol", "slow6") == 2


# fast5 on 800 nodes runs in the numpy kernel, which hands the trace writer
# lazy step records
@pytest.mark.parametrize("protocol, n", [("slow5", 5), ("fast5", 800)], ids=["slow5", "fast5"])
def test_run_writes_replayable_trace(tmp_path, capsys, protocol, n):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    code = run_cli(
        "run", "--protocol", protocol, "--n", str(n), "--seed", "9",
        "--sched", "rand:0.5:4", "--trace", str(first),
    )
    assert code == 0
    code = run_cli("run", "--from-trace", str(first), "--trace", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_a_file_replay_trace_holds_its_sets_and_outlives_the_file(tmp_path, capsys):
    sched = tmp_path / "s.sched"
    sched.write_text("0 1\n\n2 4\n0 1 2 3 4\n1 3\n")
    traces = {}
    for name, text in (("file", f"replay:{sched}"), ("inline", "replay:@0,1||2,4|0,1,2,3,4|1,3")):
        traces[name] = tmp_path / f"{name}.jsonl"
        code = run_cli("run", "--protocol", "slow5", "--n", "5", "--ids", "chain",
                       "--sched", text, "--trace", str(traces[name]))
        assert code == 0
    assert traces["file"].read_bytes() == traces["inline"].read_bytes()
    sched.unlink()
    replayed = tmp_path / "replayed.jsonl"
    assert run_cli("run", "--from-trace", str(traces["file"]), "--trace", str(replayed)) == 0
    assert replayed.read_bytes() == traces["file"].read_bytes()


def test_from_trace_with_malformed_header_is_usage_error(tmp_path, capsys):
    first = tmp_path / "a.jsonl"
    assert run_cli("run", "--protocol", "slow6", "--n", "4", "--trace", str(first)) == 0
    lines = first.read_text().splitlines()
    header = json.loads(lines[0])
    lines[0] = lines[0].replace('"horizon"', '"horizon_steps"')
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("run", "--from-trace", str(broken)) == 2
    assert "no field 'horizon'" in capsys.readouterr().err
    for field, value, problem in (
        ("horizon", "abc", "field 'horizon' is not an integer: 'abc'"),
        ("horizon", 2.5, "field 'horizon' is not an integer: 2.5"),
        ("seed", "0", "field 'seed' is not an integer: '0'"),
        ("sched", 5, "field 'sched' is not a string: 5"),
    ):
        lines[0] = json.dumps({**header, field: value})
        broken.write_text("\n".join(lines) + "\n")
        assert run_cli("run", "--from-trace", str(broken)) == 2
        assert problem in capsys.readouterr().err


def test_zero_horizon_is_usage_error(capsys):
    assert run_cli("run", "--protocol", "slow6", "--n", "4", "--horizon", "0") == 2
    assert run_cli("sweep", "--protocol", "slow6", "--n", "4", "--trials", "2",
                   "--horizon", "0") == 2
    assert capsys.readouterr().err.count("--horizon must be at least 1") == 2


def test_malformed_schedule_items_are_named(capsys):
    assert run_cli("run", "--protocol", "slow6", "--n", "4", "--sched", "crash:0;sync") == 2
    assert "crash item '0' in 'crash:0;sync' is not <node>@<t>" in capsys.readouterr().err
    assert run_cli("run", "--protocol", "slow6", "--n", "4", "--sched", "replay:@0,x") == 2
    assert "replay item 'x' in 'replay:@0,x' is not a node index" in capsys.readouterr().err


def test_sweep_triangle(capsys):
    code = run_cli(
        "sweep", "--protocol", "slow6", "--n", "6", "--trials", "5", "--sched", "rand:0.5:2",
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith(("trial", "#"))]
    assert len(lines) == 5
    assert out.splitlines()[0] == "trial\tseed\tterminated\ttstar\tmax_act\tviolations"
    assert "# aggregate" in out


def test_sweep_flags_each_trial_over_the_bound(capsys):
    code = run_cli("sweep", "--protocol", "slow6", "--n", "4", "--trials", "2", "--bound", "0")
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    for line in lines[1:3]:
        max_act, violations = line.split("\t")[4:]
        assert violations == f"bound({max_act}>0)"
    assert lines[3].endswith(" failures=2 bound=0")


def test_sweep_reseeds_the_base_of_a_crash_schedule(capsys):
    text = "crash:0@3;rand:0.5:2"
    descriptor = schedulers.parse_descriptor(text)
    assert cli._reseed(descriptor, 1) == schedulers.CrashSched(
        schedulers.RandomSched(0.5, cli._derive(2, 1)), ((0, 3),)
    )
    assert run_cli("sweep", "--protocol", "slow6", "--n", "6", "--trials", "3", "--sched",
                   text) == 0
    trials = capsys.readouterr().out.splitlines()[1:4]
    assert [line.split("\t")[0] for line in trials] == ["0", "1", "2"]


def test_sweep_rejects_zero_trials(capsys):
    assert run_cli("sweep", "--protocol", "slow6", "--n", "4", "--trials", "0") == 2


def test_sweep_varies_ids_across_trials(capsys):
    code = run_cli("sweep", "--protocol", "slow5", "--n", "8", "--trials", "4")
    out = capsys.readouterr().out
    assert code == 0
    seeds = [line.split("\t")[1] for line in out.splitlines()[1:5]]
    assert len(set(seeds)) == 4


def test_sweep_prints_the_same_with_the_kernel_as_with_the_reference_loop(monkeypatch, capsys):
    pytest.importorskip("numpy")
    from wfcolor import engine, kernel

    argv = ("sweep", "--protocol", "fast5", "--n", "800", "--trials", "3", "--sched", "rand:0.5:1")
    graphs = []
    real_run = kernel.run

    def count(execution, *args):
        graphs.append(execution.graph)
        return real_run(execution, *args)

    monkeypatch.setattr(kernel, "run", count)
    code = run_cli(*argv)
    out = capsys.readouterr().out
    assert len(graphs) == 3 and graphs[0] is graphs[1] is graphs[2]  # one adjacency array
    monkeypatch.setattr(engine, "KERNEL_MIN_NODES", 801)
    assert run_cli(*argv) == code == 0
    assert capsys.readouterr().out == out
    assert len(graphs) == 3


def test_mc_triangle_passes(capsys):
    code = run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "8")
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out
    assert "explored:" in out
    lines = out.splitlines()
    assert lines[4:6] == ["transitions: 246", "max_depth: 5"]
    assert lines[6].startswith("transitions_per_s: ")
    assert float(lines[6].split(": ")[1]) > 0


def test_mc_tight_bound_fails(capsys):
    code = run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "1")
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: fail" in out
    assert "bound violation" in out


def test_mc_oversize_rejected(capsys):
    assert run_cli("mc", "--protocol", "slow6", "--n", "9", "--bound", "8") == 2


def test_mc_requires_bound(capsys):
    assert run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5") == 2


def test_worstcase_slow6(tmp_path, capsys):
    sched_path = tmp_path / "worst.sched"
    code = run_cli(
        "worstcase", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5",
        "--budget", "40", "--trace", str(sched_path),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "worst_max_activations:" in out
    assert sched_path.exists()
    worst = int(out.split("worst_max_activations: ")[1].split()[0])
    assert 1 <= worst <= 8


def test_lemmas_smoke_runs_in_acceptance_only():
    # full lemma sweep lives in the acceptance suite; here only check the
    # suite wiring via a tiny negative control on the library function
    from wfcolor.cointoss import check_contraction

    checked, bad = check_contraction(limit=64)
    assert checked > 0 and bad == []


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(protocol="slow5", n=7, ids="proper:3", seed=11,
                           sched="rand:0.3:5", horizon=99, trials=3, bound=29)
    text = ("protocol=slow5\nn=7\nids=proper:3\nseed=11\nsched=rand:0.3:5\nhorizon=99\n"
            "trials=3\nbound=29\n")
    assert ExperimentConfig.from_text(text) == cfg


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("protocol=slow6\nn=3\nids=chain\nsched=sync\n# comment\n")
    code = run_cli("run", "--config", str(path))
    assert code == 0
    assert "tstar=2" in capsys.readouterr().out
    code = run_cli("run", "--config", str(path), "--horizon", "1", "--n", "10")
    assert code == 1


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("protcol=slow6\n")
    assert run_cli("run", "--config", str(path)) == 2


def test_wfc_seed_env_provides_default(capsys, monkeypatch):
    monkeypatch.setenv("WFC_SEED", "77")
    code = run_cli("run", "--protocol", "slow6", "--n", "5")
    out = capsys.readouterr().out
    assert code == 0

    monkeypatch.delenv("WFC_SEED")
    code = run_cli("run", "--protocol", "slow6", "--n", "5", "--seed", "77")
    out2 = capsys.readouterr().out
    assert code == 0
    assert out == out2


def test_run_ids_file_mode(tmp_path, capsys):
    ids_path = tmp_path / "ids.txt"
    ids_path.write_text("0 5\n1 1\n2 9\n")
    code = run_cli("run", "--protocol", "slow6", "--n", "3", "--ids", f"file:{ids_path}")
    assert code == 0


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--trials", "2"), ("run", "--bound", "8"), ("run", "--budget", "5"),
    ("sweep", "--trace", "out.txt"), ("sweep", "--budget", "5"),
    ("mc", "--sched", "rr"), ("mc", "--horizon", "50"), ("mc", "--trials", "2"),
    ("mc", "--budget", "5"),
    ("worstcase", "--sched", "rr"), ("worstcase", "--horizon", "50"),
    ("worstcase", "--trials", "2"),
])
def test_flag_a_command_does_not_read_is_usage_error(command, flag, value, capsys):
    argv = [command, "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "8"]
    if command == "run":
        argv = argv[:-2]
    assert run_cli(*argv, flag, value) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_edge_list_item_that_is_not_a_node_is_named(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text("0 1\n1 x\n")
    assert run_cli("run", "--protocol", "deltasq", "--graph", str(edges)) == 2
    assert f"edge-list file {edges}: line 2: expected 'u v', got '1 x'" in (
        capsys.readouterr().err
    )


def test_id_file_item_that_is_not_an_integer_is_named(tmp_path, capsys):
    ids_path = tmp_path / "bad.ids"
    ids_path.write_text("0 5\n1 y\n2 9\n")
    assert run_cli("run", "--protocol", "slow6", "--n", "3", "--ids", f"file:{ids_path}") == 2
    assert f"id file {ids_path}: line 2: expected 'node id', got '1 y'" in (
        capsys.readouterr().err
    )


def test_run_graph_file_deltasq(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("# small general graph\n0 1\n1 2\n2 0\n0 3\n3 4\n")
    code = run_cli("run", "--protocol", "deltasq", "--graph", str(edges), "--sched", "rr")
    out = capsys.readouterr().out
    assert code == 0
    assert "audit proper_coloring: pass" in out
    assert "audit palette: pass" in out


def test_config_value_that_is_not_an_integer_is_named(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("protocol=slow6\nn=abc\n")
    assert run_cli("run", "--config", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: config file {path} line 2: n must be an integer, got 'abc'\n"
    )


def test_config_unknown_key_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "c2.cfg"
    path.write_text("protocol=slow6\nn=4\ncolour=red\n")
    assert run_cli("run", "--config", str(path)) == 2
    assert capsys.readouterr().err == f"error: config file {path} line 3: unknown key 'colour'\n"


def test_wfc_seed_that_is_not_an_integer_is_named(capsys, monkeypatch):
    monkeypatch.setenv("WFC_SEED", "x")
    assert run_cli("run", "--protocol", "slow6", "--n", "4") == 2
    assert "WFC_SEED must be an integer, got 'x'" in capsys.readouterr().err


def test_proper_ids_without_an_integer_are_named(capsys):
    assert run_cli("run", "--protocol", "slow6", "--n", "4", "--ids", "proper:x") == 2
    assert "id mode 'proper:x' is not proper:<k> with an integer k" in capsys.readouterr().err


def test_schedule_file_item_that_is_not_a_node_is_named(tmp_path, capsys):
    path = tmp_path / "bad.sched"
    path.write_text("0 1\n# comment\n2 y\n")
    assert run_cli("run", "--protocol", "slow6", "--n", "4", "--sched", f"replay:{path}") == 2
    assert f"schedule file {path} line 3: expected node indices, got '2 y'" in (
        capsys.readouterr().err
    )


def test_from_trace_that_is_not_json_names_the_file(tmp_path, capsys):
    for name, text in (("empty.jsonl", ""), ("text.jsonl", "not a trace\n")):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("run", "--from-trace", str(path)) == 2
        assert f"trace file {path}: trace header is not a JSON line" in capsys.readouterr().err


def write_audit_traces(directory):
    """The slow6 triangle's trace (ids 5, 1, 9, sync) as good.jsonl, and
    tampered, truncated and non-JSON versions of it."""
    g = cycle(3)
    execution = new_execution(g, explicit_ids(g, [5, 1, 9]), "slow6")
    trace = run(execution, make_scheduler("sync", 3), 100)
    good = directory / "good.jsonl"
    write_trace(trace, str(good))
    lines = good.read_text().splitlines()
    step = json.loads(lines[2])  # node 1 (id 1) republishes as 6 at step 2
    step["w"]["1"][0] = 6
    tampered = lines[:2] + [json.dumps(step)] + lines[3:]
    (directory / "tampered.jsonl").write_text("\n".join(tampered) + "\n")
    (directory / "truncated.jsonl").write_text(good.read_text()[:-20])
    (directory / "text.jsonl").write_text("not a trace\n")


def test_audit_prints_what_run_printed(tmp_path, capsys):
    path = tmp_path / "out.jsonl"
    for protocol in ("slow6", "slow5", "fast5"):
        code = run_cli("run", "--protocol", protocol, "--n", "7", "--sched", "rand:0.5:2",
                       "--trace", str(path))
        printed = capsys.readouterr().out
        assert code == 0
        assert run_cli("audit", str(path)) == 0
        assert capsys.readouterr().out == printed


def test_run_and_audit_replay_a_slow6_trace_once(tmp_path, capsys, monkeypatch):
    replay = analysis._replay
    replays = []

    def counted(*args, **kwargs):
        replays.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(analysis, "_replay", counted)
    path = tmp_path / "out.jsonl"
    assert run_cli("run", "--protocol", "slow6", "--n", "7", "--trace", str(path)) == 0
    assert len(replays) == 1
    assert run_cli("audit", str(path)) == 0
    assert len(replays) == 2


def republish_as_6(trace):
    """The edit that tampered.jsonl makes, made to the slow6 triangle's trace
    in memory: node 1 (id 1) republishes as 6 at step 2."""
    writes = trace.steps[1].writes
    writes[1] = writes[1]._replace(x=6)


def test_audit_flags_a_tampered_trace(tmp_path, capsys):
    write_audit_traces(tmp_path)
    assert run_cli("audit", str(tmp_path / "good.jsonl")) == 0
    assert "audit ab_exclusion: pass" in capsys.readouterr().out
    path = tmp_path / "tampered.jsonl"
    assert run_cli("audit", str(path)) == 2
    assert (f"trace file {path} line 3: node 1 has w [6, 1, 0], the replay of step 2 [1, 1, 0]"
            in capsys.readouterr().err)
    g = cycle(3)
    trace = run(new_execution(g, explicit_ids(g, [5, 1, 9]), "slow6"),
                make_scheduler("sync", 3), 100)
    republish_as_6(trace)
    report = analysis.ab_exclusion_audit(trace)
    assert report.violations == [(2, 0, "A contains a value <= published id 5")]


def test_run_prints_the_violations_of_a_failing_audit(capsys, monkeypatch):
    def tampered_audits(trace):
        republish_as_6(trace)
        return analysis.heard_of_audits(trace)

    monkeypatch.setitem(cli._STEP_AUDITS, "slow6", tampered_audits)
    code = run_cli("run", "--protocol", "slow6", "--n", "3", "--ids", "5,1,9", "--sched", "sync")
    out = capsys.readouterr().out
    assert code == 1
    assert "audit ab_exclusion: FAIL (1 violations)" in out
    assert "  violation t=2 node=0: A contains a value <= published id 5" in out


def test_audit_rejects_a_well_formed_forgery(tmp_path, capsys):
    """A read of a record nobody wrote, and a forged return color with its out
    entry, in a 5-node slow6 chain trace under rr: every line stays well
    formed, and the replay rejects the line where the forgery starts."""
    path = tmp_path / "trace.jsonl"
    for edits, lineno, problem in (
        ([('"rd":{"2":[[1,0,0],null]}', '"rd":{"2":[[7,0,0],null]}')], 3,
         "node 2 has rd [[7, 0, 0], null], the replay of step 2 [[1, 0, 0], null]"),
        ([('"1":["ret",[0,0]]', '"1":["ret",[2,0]]'), ('"1":[0,0]', '"1":[2,0]')], 2,
         'node 1 has dec ["ret", [2, 0]], the replay of step 1 ["ret", [0, 0]]'),
    ):
        assert run_cli("run", "--protocol", "slow6", "--n", "5", "--ids", "chain", "--sched", "rr",
                       "--trace", str(path)) == 0
        text = path.read_text()
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text)
        capsys.readouterr()
        assert run_cli("audit", str(path)) == 2
        assert f"trace file {path} line {lineno}: {problem}" in capsys.readouterr().err


def test_audit_of_a_broken_file_is_usage_error(tmp_path, capsys):
    write_audit_traces(tmp_path)
    path = tmp_path / "truncated.jsonl"
    assert run_cli("audit", str(path)) == 2
    last = len(path.read_text().splitlines())
    assert f"trace file {path} line {last}: not a JSON line" in capsys.readouterr().err
    path = tmp_path / "missing.jsonl"
    assert run_cli("audit", str(path)) == 2
    assert str(path) in capsys.readouterr().err
    lines = (tmp_path / "good.jsonl").read_text().splitlines()
    header, step, final = json.loads(lines[0]), json.loads(lines[1]), json.loads(lines[-1])
    out, edges = final["out"], header["graph"]["edges"]
    assert edges[0] == [0, 1]
    step2 = json.loads(lines[2])
    rd2, dec2 = step2["rd"], step2["dec"]
    path = tmp_path / "edited.jsonl"
    for i, edited, at, problem in (  # edit line i + 1, the error names line at
        (0, {**header, "horizon": "abc"}, 1, "field 'horizon' is not an integer: 'abc'"),
        (0, {**header, "horizon": 2.5}, 1, "field 'horizon' is not an integer: 2.5"),
        (0, {**header, "sched": 5}, 1, "field 'sched' is not a string: 5"),
        (0, {**header, "graph": {**header["graph"], "edges": [[False, True], *edges[1:]]}}, 1,
         "field 'graph.edges' holds False, not an integer"),
        (0, {**header, "graph": {**header["graph"], "n": True}}, 1,
         "field 'graph.n' is not an integer: True"),
        (1, {**step, "t": 7}, 2, "t 7 is not this line's step number 1"),
        (1, {**step, "w": {**step["w"], "0": [True, 0, 0]}}, 2,
         "node 0 has w [true, 0, 0], the replay of step 1 [5, 0, 0]"),
        # [1, 1, 0] is written earlier on the line: true is not taken for 1
        (2, {**step2, "rd": {**rd2, "0": [[True, 1, 0], rd2["0"][1]]}}, 3,
         "node 0 has rd [[true, 1, 0], [9, 0, 1]], the replay of step 2 [[1, 1, 0], [9, 0, 1]]"),
        (1, {**step, "act": [0, True, 2]}, 2,
         "act is [0, true, 2], the replay of step 1 [0, 1, 2]"),
        (0, {**header, "ids": {**header["ids"], "values": [5, True, 9]}}, 1,
         "identifier True is not an int"),
        (2, {**step2, "dec": {**dec2, "1": ["ret", "x"]}}, 3,
         'node 1 has dec ["ret", "x"], the replay of step 2 ["ret", [1, 0]]'),
        (2, {**step2, "dec": {**dec2, "1": ["ret", [[1], 0]]}}, 3,
         'node 1 has dec ["ret", [[1], 0]], the replay of step 2 ["ret", [1, 0]]'),
        (3, {**final, "out": {**out, "1": [True, 0]}}, 4,
         "node 1 has out [true, 0], the replay [1, 0]"),
        (0, {**header, "horizon": 1}, 3, "step 2 is past the header's horizon 1"),
        (3, {**final, "tstar": None}, 4, "tstar is null, but the steps stop at 2"),
        (3, {**final, "tstar": 1}, 4, "tstar 1 is not 2, the last step with a decision"),
        # node 1 moves after this forged return: the return is the line named
        (1, {**step, "dec": {**step["dec"], "1": ["ret", [1, 0]]}}, 2,
         'node 1 has dec ["ret", [1, 0]], the replay of step 1 ["cont", [1, 1, 0]]'),
        (3, {**final, "out": {**out, "1": [0, 1]}}, 4, "node 1 has out [0, 1], the replay [1, 0]"),
        (3, {**final, "out": {p: c for p, c in out.items() if p != "1"}}, 4,
         "node 1 has out none, the replay [1, 0]"),
    ):
        path.write_text("\n".join(lines[:i] + [json.dumps(edited)] + lines[i + 1:]) + "\n")
        assert run_cli("audit", str(path)) == 2
        err = capsys.readouterr().err
        assert f"trace file {path} line {at}: " in err and problem in err, err


def chain_traces(directory):
    """The slow6 and fast5 traces that run --trace writes on the 5-node chain
    under rand:0.5:3, as slow6.jsonl and fast5.jsonl."""
    paths = [directory / f"{protocol}.jsonl" for protocol in ("slow6", "fast5")]
    for path in paths:
        assert run_cli("run", "--protocol", path.stem, "--n", "5", "--ids", "chain",
                       "--sched", "rand:0.5:3", "--trace", str(path)) == 0
    return paths


def test_audit_accepts_only_traces_that_run_from_trace_rewrites(tmp_path, capsys):
    """1,500 seeded edits of 1 to 3 printable bytes (replaced, inserted or
    deleted) in two traces: audit exits 0, 1 or 2 and raises nothing, and
    each file it reads is the file that run --from-trace writes for it."""
    originals = [path.read_bytes() for path in chain_traces(tmp_path)]
    edited, rewritten = tmp_path / "edited.jsonl", tmp_path / "rewritten.jsonl"
    rng = random.Random(0)
    refused = 0
    for _ in range(1500):
        data = next(mutants(rng, rng.choice(originals), 1))
        edited.write_bytes(data)
        code = run_cli("audit", str(edited))
        capsys.readouterr()
        assert code in (0, 1, 2), data
        if code == 2:
            refused += 1
            continue
        assert run_cli("run", "--from-trace", str(edited), "--trace", str(rewritten)) == code
        capsys.readouterr()
        assert rewritten.read_bytes() == data, data
    assert refused > 1400


# each edit leaves the header well formed, and each was once read as the act lines' schedule
SCHED_EDITS = [
    ("and:0.5:3", 1, "unknown scheduler descriptor 'and:0.5:3'"),
    ("rand:.5:3", 1, "sched is 'rand:.5:3', which is written 'rand:0.5:3'"),
    ("rand:0.5:r", 1, "expected rand:<p>:<seed> with a number p and an integer seed, "
                      "got 'rand:0.5:r'"),
    ("rand9:0.5:3", 1, "unknown scheduler descriptor 'rand9:0.5:3'"),
    ("rand:0.5:u3", 1, "expected rand:<p>:<seed> with a number p and an integer seed, "
                       "got 'rand:0.5:u3'"),
    ("rand:0.5:32", 2, "act is [], the replay of step 1 [2, 3, 4]"),
]


@pytest.mark.parametrize("sched, lineno, problem", SCHED_EDITS, ids=[e[0] for e in SCHED_EDITS])
def test_audit_refuses_a_trace_whose_sched_is_edited(tmp_path, capsys, sched, lineno, problem):
    for path in chain_traces(tmp_path):
        text = path.read_text()
        assert text.count('"sched":"rand:0.5:3"') == 1
        path.write_text(text.replace('"sched":"rand:0.5:3"', f'"sched":"{sched}"'))
        capsys.readouterr()
        assert run_cli("audit", str(path)) == 2
        assert f"trace file {path} line {lineno}: {problem}\n" in capsys.readouterr().err


def test_audit_refuses_a_header_naming_a_schedule_file_that_run_from_trace_inlines(
    tmp_path, capsys
):
    sched = tmp_path / "s.sched"
    sched.write_text("0 1\n\n2 4\n0 1 2 3 4\n1 3\n")
    inline = tmp_path / "inline.jsonl"
    sets = "replay:@0,1||2,4|0,1,2,3,4|1,3"
    assert run_cli("run", "--protocol", "slow5", "--n", "5", "--ids", "chain", "--sched", sets,
                   "--trace", str(inline)) == 0
    old = tmp_path / "old.jsonl"  # as versions that wrote the file's name in the header wrote it
    rewritten = tmp_path / "rewritten.jsonl"
    old.write_text(inline.read_text().replace(sets, f"replay:{sched}"))
    assert run_cli("run", "--from-trace", str(old), "--trace", str(rewritten)) == 0
    assert rewritten.read_bytes() == inline.read_bytes()
    for missing in (False, True):
        if missing:
            sched.unlink()
        for named in (f"replay:{sched}", f"crash:0@9;replay:{sched}"):
            old.write_text(inline.read_text().replace(sets, named))
            capsys.readouterr()
            assert run_cli("audit", str(old)) == 2
            assert (f"trace file {old} line 1: sched {named!r} names a schedule file, "
                    "which is not opened\n") in capsys.readouterr().err


def test_audit_refuses_a_header_or_line_ends_in_other_bytes(tmp_path, capsys):
    path = chain_traces(tmp_path)[0]
    text = path.read_text()
    last = text.count("\n")
    for edited, lineno, problem in (
        (text[:-1], last, "no newline ends the final line"),
        (text.replace("\n", "\r\n"), 2,
         "the replay of step 1 writes the same fields in other bytes"),
        (text.replace(',"seed"', ', "seed"', 1), 1,
         "the header has ' \"seed\":0}' at column 157, where it is written '\"seed\":0}'"),
        (text.replace('"n":5}', '"n":5 }', 1), 1,
         "the header has ' },\"horizon\"' at column 56, where it is written '},\"horizon\":'"),
        (text + "\n", last, "no field 'act'"),  # the final line is read as a step line
    ):
        path.write_text(edited, newline="")
        capsys.readouterr()
        assert run_cli("audit", str(path)) == 2
        assert f"trace file {path} line {lineno}: {problem}\n" in capsys.readouterr().err


def test_audit_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = chain_traces(tmp_path)[0]
    data = path.read_bytes()
    second = data.index(b"\n") + 1
    for at, lineno in ((data.index(b"slow6"), 1), (second + data[second:].index(b"act"), 2)):
        path.write_bytes(data[:at] + b"\xe9" + data[at + 1:])
        assert run_cli("audit", str(path)) == 2
        assert (f"error: trace file {path} line {lineno}: 'utf-8' codec can't decode byte 0xe9"
                in capsys.readouterr().err)
    at = data.index(b"slow6")
    path.write_bytes(data[:at] + b"\xe9" + data[at + 1:])
    assert run_cli("run", "--from-trace", str(path)) == 2
    assert (f"error: trace file {path}: 'utf-8' codec can't decode byte 0xe9"
            in capsys.readouterr().err)


def test_audit_refuses_a_step_after_the_run_stops(tmp_path, capsys):
    """A step line that the replay writes, with nobody moving, inserted
    before the final line of a trace whose run has stopped."""
    for path in chain_traces(tmp_path):
        lines = path.read_text().splitlines(keepends=True)
        t = len(lines) - 1
        act = ",".join(map(str, sorted(make_scheduler("rand:0.5:3", 5).at(t))))
        path.write_text("".join(lines[:-1]) + f'{{"act":[{act}],"dec":{{}},"rd":{{}},"t":{t},'
                        f'"w":{{}}}}\n' + lines[-1])
        assert run_cli("audit", str(path)) == 2
        assert (f"trace file {path} line {t + 1}: step {t} is past the run's end at step "
                f"{t - 1}, where every node the schedule may still activate has returned\n"
                in capsys.readouterr().err)


def test_thousands_of_nested_crash_prefixes_are_usage_errors(tmp_path, capsys):
    deep = "crash:0@1;" * 5000 + "sync"
    problem = "a descriptor nests at most 100 crash: prefixes\n"
    assert run_cli("run", "--protocol", "slow6", "--n", "5", "--sched", deep) == 2
    assert capsys.readouterr().err == f"error: {problem}"
    path = chain_traces(tmp_path)[0]
    path.write_text(path.read_text().replace('"sched":"rand:0.5:3"', f'"sched":"{deep}"'))
    assert run_cli("audit", str(path)) == 2
    assert capsys.readouterr().err == f"error: trace file {path} line 1: {problem}"
    assert run_cli("run", "--from-trace", str(path)) == 2
    assert capsys.readouterr().err == f"error: {problem}"


def mutants(rng, data, count):
    """count seeded edits of data: 1 to 3 printable bytes replaced, inserted
    or deleted at one place."""
    alphabet = string.printable.encode()
    for _ in range(count):
        i, k = rng.randrange(len(data)), rng.randint(1, 3)
        new = bytes(rng.choice(alphabet) for _ in range(k))
        kind = rng.choice(("replace", "insert", "delete"))
        cut = i if kind == "insert" else i + k
        yield data[:i] + (b"" if kind == "delete" else new) + data[cut:]


def test_edited_schedule_edge_and_id_files_exit_0_1_or_2(tmp_path, capsys):
    """300 seeded edits of each of a schedule file, an edge list and an id
    file, each read by run: every exit is 0, 1 or 2, and none raises."""
    edited = tmp_path / "edited"
    cases = [
        (b"# sets\n0 1\n\n2 4\n0 1 2 3 4\n1 3\n",
         ["--protocol", "slow6", "--n", "5", "--ids", "chain", "--sched", f"replay:{edited}"]),
        (b"# a 6-node graph\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n5 2\n",
         ["--protocol", "deltasq", "--graph", str(edited), "--ids", "random"]),
        (b"0 3\n1 9\n2 4  # node id\n3 12\n4 7\n",
         ["--protocol", "fast5", "--n", "5", "--ids", f"file:{edited}", "--sched", "rand:0.5:1"]),
    ]
    rng = random.Random(0)
    codes = []
    for data, argv in cases:
        edited.write_bytes(data)
        assert run_cli("run", *argv) == 0
        for mutant in mutants(rng, data, 300):
            edited.write_bytes(mutant)
            code = run_cli("run", *argv)
            capsys.readouterr()
            assert code in (0, 1, 2), (argv, mutant)
            codes.append(code)
    assert codes.count(0) > 100 and codes.count(2) > 100


def test_edited_config_files_exit_0_1_or_2(tmp_path, capsys, monkeypatch):
    """300 seeded edits of a config file, each read by run, sweep and
    mc --bound: every exit is 0, 1 or 2, and none raises. An edit whose n or
    trials is over 4 is skipped, to keep the test fast."""
    monkeypatch.chdir(tmp_path)  # a relative file name that an edit makes resolves here
    data = b"# a small experiment\nprotocol=slow6\nn=4\nids=chain\nseed=3\nsched=rand:0.5:1\n" \
        b"trials=2\nbound=9\n"
    path = tmp_path / "exp.cfg"
    commands = (["run"], ["sweep"], ["mc", "--bound", "9"])
    rng = random.Random(0)
    codes = []
    for mutant in mutants(rng, data, 300):
        try:
            cfg = ExperimentConfig.from_text(mutant.decode())
            if (cfg.n or 0) > 4 or (cfg.trials or 0) > 4:
                continue
        except ValueError:
            pass  # every command exits 2 on it
        path.write_bytes(mutant)
        for command in commands:
            code = run_cli(*command, "--config", str(path))
            capsys.readouterr()
            assert code in (0, 1, 2), (command, mutant)
            codes.append(code)
    assert codes.count(0) > 100 and codes.count(2) > 100


@pytest.mark.parametrize("data, argv, what, lineno, position", [
    (b"protocol=slow6\r\nn=4\r\nids=ch\xe9in\n", ["--config", "{path}"], "config file", 3, 6),
    (b"0 1\n1 2\n2 \xe90\n", ["--protocol", "deltasq", "--graph", "{path}"],
     "edge-list file", 3, 2),
    (b"0 1\r\r2 \xe9\n", ["--protocol", "slow6", "--n", "4", "--sched", "replay:{path}"],
     "schedule file", 3, 2),
    (b"\xe90 3\n1 9\n", ["--protocol", "slow6", "--n", "3", "--ids", "file:{path}"],
     "id file", 1, 0),
], ids=["config", "graph", "schedule", "ids"])
def test_a_byte_that_is_not_utf8_names_the_file_and_line(
    tmp_path, capsys, data, argv, what, lineno, position
):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert run_cli("run", *(arg.format(path=path) for arg in argv)) == 2
    assert capsys.readouterr().err == (
        f"error: {what} {path} line {lineno}: 'utf-8' codec can't decode byte 0xe9 "
        f"in position {position}: invalid continuation byte\n"
    )


def test_mc_negative_bound_is_usage_error(capsys):
    code = run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "-1")
    captured = capsys.readouterr()
    assert code == 2
    assert "--bound must be at least 0" in captured.err
    assert captured.out == ""


def test_bound_in_a_config_file_is_checked_only_where_read(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("protocol=slow6\nn=4\nids=chain\nbound=-1\n")
    assert run_cli("run", "--config", str(path)) == 0
    capsys.readouterr()
    assert run_cli("worstcase", "--config", str(path), "--budget", "1") == 2
    captured = capsys.readouterr()
    assert "--bound must be at least 0, got -1" in captured.err
    assert captured.out == ""


def test_unknown_flag_names_the_usage_of_its_command(capsys):
    code = run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "8",
                   "--sched", "rr")
    err = capsys.readouterr().err
    assert code == 2
    assert "usage: wfcolor mc" in err
    assert "unrecognized arguments: --sched rr" in err


def test_unknown_flag_before_the_command_names_the_top_level_usage(capsys):
    code = run_cli("--x", "run", "--protocol", "slow6", "--n", "3", "--y")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage: wfcolor [-h]")
    assert "wfcolor: error: unrecognized arguments: --x\n" in err
    assert "usage: wfcolor run" not in err


def test_run_two_colors_a_relabeled_even_cycle(tmp_path, capsys):
    edges = tmp_path / "c8.edges"
    edges.write_text("0 3\n3 1\n1 5\n5 2\n2 7\n7 4\n4 6\n6 0\n")
    code = run_cli("run", "--protocol", "slow6", "--graph", str(edges), "--ids", "proper:2",
                   "--seed", "0")
    assert code == 0
    assert "audit proper_coloring: pass" in capsys.readouterr().out


def test_sweep_validates_before_any_output(capsys):
    code = run_cli("sweep", "--protocol", "slow6", "--n", "4", "--trials", "2",
                   "--sched", "replay:@0,1|9")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "replay schedule node 9 out of range" in captured.err


def test_mc_writes_counterexample_schedule_that_replays(tmp_path, capsys):
    path = tmp_path / "counterexample.sched"
    code = run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "1",
                   "--trace", str(path))
    out = capsys.readouterr().out
    assert code == 1
    assert f"counterexample schedule written to {path}" in out
    graph = cycle(3)
    ex = new_execution(graph, explicit_ids(graph, [1, 2, 5]), "slow6")
    for step in load_schedule(str(path)):
        ex.apply_step(step)
    assert max(ex.activations) > 1


def test_mc_prints_a_safety_violation_and_writes_a_witness_that_replays(
    tmp_path, capsys, monkeypatch
):
    """A transition that always returns color 0 makes the first step that
    moves two neighbors a safety violation."""
    monkeypatch.setitem(protocols.ACTIVATE, "slow5", lambda state, views: protocols.Return(0))
    path = tmp_path / "witness.sched"
    argv = ["--protocol", "slow5", "--n", "3", "--ids", "1,2,5"]
    assert run_cli("mc", *argv, "--bound", "8", "--trace", str(path)) == 1
    out = capsys.readouterr().out
    assert "verdict: fail\nsafety violation: adjacent nodes 1,0 both returned 0\n" \
        "  schedule: [(0, 1, 2)]\n" in out
    assert f"counterexample schedule written to {path}\n" in out
    assert path.read_text() == "0 1 2\n"
    assert run_cli("run", *argv, "--sched", f"replay:{path}") == 1
    assert "audit proper_coloring: FAIL (3 violations)" in capsys.readouterr().out


def test_mc_pass_writes_no_schedule(tmp_path, capsys):
    path = tmp_path / "none.sched"
    code = run_cli("mc", "--protocol", "slow6", "--n", "3", "--ids", "1,2,5", "--bound", "8",
                   "--trace", str(path))
    assert code == 0
    assert not path.exists()


_FLAG_TOKENS = {
    "--protocol": ["slow6", "slow5", "fast5", "deltasq", "bogus"],
    "--n": ["-1", "0", "3", "4", "5", "6", "x"],
    "--ids": ["random", "chain", "proper:3", "proper:1", "proper:x", "1,2,5", "1,1,2",
              "file:{dir}/missing.ids", "bogus"],
    "--sched": ["sync", "rr", "rand:0.5:1", "rand:2:1", "rand:x", "crash:0@2;sync",
                "crash:9@1;rr", "crash:0;sync", "replay:@0,1|2", "replay:@0,x", "replay:@9",
                "replay:{dir}/bad.sched", "replay:{dir}/missing.sched", "bogus"],
    "--seed": ["0", "7", "x"],
    "--bound": ["-1", "0", "2", "x"],
    "--horizon": ["-1", "0", "1", "50", "x"],
    "--trials": ["-1", "0", "1", "2", "x"],
    "--budget": ["-1", "0", "1", "5", "x"],
    "--trace": ["{dir}/out.txt", "{dir}/no/such/dir/out.txt"],
}
_CONFIG_LINES = ["protocol=slow6", "protocol=nope", "n=4", "n=abc", "ids=chain", "seed=x",
                 "trials=2", "budget=3", "horizon=0", "bound=-1", "sched=replay:@0", "bogus",
                 "colour=red", "# comment"]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "bad.sched").write_text("0 1\nz\n")
    write_audit_traces(path)
    return path


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["run", "sweep", "mc", "worstcase", "audit"]),
    trace=st.sampled_from(["good", "tampered", "truncated", "missing", "text"]),
    protocol=st.sampled_from(_FLAG_TOKENS["--protocol"][:4]),
    n=st.sampled_from(["3", "4", "5"]),
    flags=st.lists(
        st.one_of([st.tuples(st.just(flag), st.sampled_from(values))
                   for flag, values in _FLAG_TOKENS.items()]),
        max_size=4,
    ),
    config=st.none() | st.lists(st.sampled_from(_CONFIG_LINES), max_size=3),
)
def test_every_argument_list_exits_0_1_or_2(cli_dir, command, trace, protocol, n, flags, config):
    # a valid protocol and cycle come first, so that later tokens can break or override them;
    # audit reads a stored trace, and no flag
    if command == "audit":
        argv = [command, str(cli_dir / f"{trace}.jsonl")]
    else:
        argv = [command, "--protocol", protocol, "--n", n]
    for flag, value in flags:
        argv += [flag, value.format(dir=cli_dir)]
    if config is not None:
        path = cli_dir / "exp.cfg"
        path.write_text("\n".join(config) + "\n")
        argv += ["--config", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_python_m_wfcolor_runs_the_cli(capsys):
    argv = ["run", "--protocol", "slow6", "--n", "7", "--seed", "3", "--sched", "rand:0.5:2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(wfcolor.__file__))
    done = subprocess.run([sys.executable, "-m", "wfcolor", *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected
