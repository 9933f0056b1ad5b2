"""The command-line surface, driven in process through main()."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from switchflow.cli import main
from switchflow.graphs import parse, serialize, validate
from switchflow.local_search import LocalOptInstance, SearchState, hex_encode, walk_localopt
from switchflow.reduction import augment

from helpers import T1, T2, T3, counter_chain, reference_run, reference_walk_trace

T1_TEXT = serialize(T1)
T2_TEXT = serialize(T2)
T3_TEXT = serialize(T3)


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(T1_TEXT)
    return str(path)


@pytest.fixture
def t3_file(tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(T3_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_emits_a_valid_graph(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "2", "--seed", "1", "--model", "uniform")
    assert code == 0
    assert validate(parse(out.strip())) == []


def test_gen_is_deterministic(capsys):
    first = run_cli(capsys, "gen", "--n", "6", "--seed", "9")
    second = run_cli(capsys, "gen", "--n", "6", "--seed", "9")
    assert first == second


def test_gen_rejects_one_vertex(capsys):
    code, _, err = run_cli(capsys, "gen", "--n", "1")
    assert code == 2
    assert "usage error" in err


def test_simulate_reports_the_outcome(capsys, t1_file):
    code, out, _ = run_cli(capsys, "simulate", "--input", t1_file)
    assert code == 0
    assert json.loads(out) == {
        "verdict": "terminated",
        "steps": 1,
        "final_vertex": 1,
        "profile": [1, 0, 0, 0],
    }


def test_simulate_trace_lines_precede_the_outcome(capsys, tmp_path):
    path = tmp_path / "t2.json"
    path.write_text(T2_TEXT)
    code, out, _ = run_cli(capsys, "simulate", "--input", str(path), "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step 0: 0 -even-> 0"
    assert lines[1] == "step 1: 0 -odd-> 1"
    assert json.loads(lines[2])["steps"] == 2


def test_simulate_trace_streams_from_a_replay(tmp_path):
    # 131,070 steps: each line is written as the replay makes it, so the
    # memory held stays far below the 4 MB of trace text
    g = counter_chain(16)
    path = tmp_path / "chain.json"
    path.write_text(serialize(g))
    out_path = tmp_path / "trace.txt"
    import switchflow.simulate  # noqa: F401  (loaded first: its import is not the trace's)

    tracemalloc.start()
    try:
        code = main(["simulate", "--input", str(path), "--trace", "--output", str(out_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    outcome, trace = reference_run(g)
    parity = ("even", "odd")
    expected = [f"step {s.step}: {s.tail} -{parity[s.parity]}-> {s.head}" for s in trace]
    expected.append(
        json.dumps(
            {
                "verdict": "terminated",
                "steps": outcome.steps,
                "final_vertex": outcome.final_vertex,
                "profile": list(outcome.profile),
            },
            separators=(",", ":"),
        )
    )
    assert out_path.read_text() == "\n".join(expected) + "\n"
    assert peak < 1 << 20, peak


def test_a_closed_pipe_ends_a_trace_quietly(tmp_path):
    # the reader takes one line of a 32,766-step trace and goes away
    path = tmp_path / "chain.json"
    path.write_text(serialize(counter_chain(15)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    command = "import sys; from switchflow.cli import main; sys.exit(main())"
    argv = [sys.executable, "-c", command, "simulate", "--input", str(path), "--trace"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"step 0: 0 -even-> 0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_simulate_reports_cycles(capsys, t3_file):
    code, out, _ = run_cli(capsys, "simulate", "--input", t3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "non-terminating"
    assert "cycle_witness" in doc


def test_decide_text_verdicts(capsys, t1_file, t3_file):
    assert run_cli(capsys, "decide", "--input", t1_file)[:2] == (0, "terminates\n")
    assert run_cli(capsys, "decide", "--input", t3_file)[:2] == (
        0,
        "does-not-terminate\n",
    )


def test_decide_answers_a_64_vertex_counter(capsys, tmp_path):
    # the run takes 2**64 - 2 steps
    path = tmp_path / "counter64.json"
    path.write_text(serialize(counter_chain(64)))
    assert run_cli(capsys, "decide", "--input", str(path)) == (0, "terminates\n", "")


def test_solve_certifies_a_64_vertex_counter_for_verify_flow(capsys, tmp_path):
    # the certificate carries 2**64 - 1 units; verify-flow checks it
    # against the augmented board that reduce prints
    graph_path, board_path, flow_path = (tmp_path / name for name in ("g", "board", "flow"))
    graph_path.write_text(serialize(counter_chain(64)))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "solve", "--input", str(graph_path))
    assert code == 0
    cert = json.loads(out)
    assert cert.pop("kind") == "termination" and sum(cert["counts"]) == (1 << 64) - 1
    flow_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "reduce", "--input", str(graph_path))
    board_path.write_text(out.splitlines()[0])
    code, out, _ = run_cli(
        capsys, "verify-flow", "--input", str(board_path), "--flow", str(flow_path)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["valid"] is True


def test_simulate_answers_a_64_vertex_counter(capsys, tmp_path):
    path = tmp_path / "counter64.json"
    path.write_text(serialize(counter_chain(64)))
    for budget in ((), ("--budget", "18446744073709551616")):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "simulate", "--input", str(path), *budget)
        assert time.perf_counter() - start < 1.0
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["steps"]) == (0, "terminated", (1 << 64) - 2)


def test_decide_json_verdict(capsys, t3_file):
    code, out, _ = run_cli(capsys, "decide", "--input", t3_file, "--json")
    assert code == 0
    assert json.loads(out) == {"terminates": False}


def test_reduce_emits_board_and_sidecar(capsys, t3_file):
    code, out, _ = run_cli(capsys, "reduce", "--input", t3_file)
    assert code == 0
    board, sidecar = out.splitlines()
    assert board == '{"n":5,"origin":3,"dest":2,"even":[4,4,2,0,4],"odd":[4,4,2,0,4]}'
    assert json.loads(sidecar) == {"o_bar": 3, "d_bar": 4, "x_d": [0, 1]}


def test_verify_flow_accepts_a_run_profile(capsys, tmp_path):
    graph_path = tmp_path / "t2.json"
    graph_path.write_text(T2_TEXT)
    flow_path = tmp_path / "flow.json"
    flow_path.write_text('{"origin":0,"dest":1,"counts":[1,1,0,0]}')
    code, out, _ = run_cli(
        capsys, "verify-flow", "--input", str(graph_path), "--flow", str(flow_path)
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_flow_rejects_the_zero_flow(capsys, t1_file, tmp_path):
    flow_path = tmp_path / "flow.json"
    flow_path.write_text('{"origin":0,"dest":1,"counts":[0,0,0,0]}')
    code, out, _ = run_cli(
        capsys, "verify-flow", "--input", t1_file, "--flow", str(flow_path)
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert {"vertex": 0, "found": 0, "required": 1} in doc["conservation_violations"]


def test_complete_extends_a_prefix(capsys, t1_file, tmp_path):
    flow_path = tmp_path / "flow.json"
    flow_path.write_text('{"origin":2,"dest":0,"counts":[0,0,0,0,1,0,0,0]}')
    code, out, _ = run_cli(
        capsys, "complete", "--input", t1_file, "--flow", str(flow_path)
    )
    assert code == 0
    assert out.strip() == '{"origin":2,"dest":1,"counts":[1,0,0,0,1,0,0,0]}'


def test_complete_requires_the_fresh_origin(capsys, t1_file, tmp_path):
    flow_path = tmp_path / "flow.json"
    flow_path.write_text('{"origin":0,"dest":1,"counts":[1,0,0,0,0,0,0,0]}')
    code, _, err = run_cli(
        capsys, "complete", "--input", t1_file, "--flow", str(flow_path)
    )
    assert code == 1
    assert "fresh origin" in err


def test_walk_reports_the_solution(capsys, t1_file):
    code, out, _ = run_cli(capsys, "walk", "--input", t1_file)
    assert code == 0
    assert json.loads(out) == {
        "vertex": 1,
        "counts": [1, 0, 0, 0, 1, 0, 0, 0],
        "potential": 2,
        "steps": 2,
    }


def test_walk_trace_lists_every_state(capsys, t1_file):
    code, out, _ = run_cli(capsys, "walk", "--input", t1_file, "--trace")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 4
    assert [l["potential"] for l in lines[:3]] == [0, 1, 2]
    assert lines[0]["vertex"] == 2
    assert lines[3]["steps"] == 2


def _reference_walk_output(g, start=None):
    inst = LocalOptInstance(augment(g))
    start = inst.reset if start is None else start
    result = walk_localopt(inst, start)
    docs = reference_walk_trace(inst, start, result.steps)
    lines = [json.dumps({"step": i, **doc}, separators=(",", ":")) for i, doc in enumerate(docs)]
    final = {**docs[-1], "steps": result.steps}
    return "\n".join(lines + [json.dumps(final, separators=(",", ":"))]) + "\n"


def test_walk_trace_is_the_neighbor_replay(capsys, tmp_path):
    path = tmp_path / "g.json"
    for n in range(2, 11):
        g = counter_chain(n)
        path.write_text(serialize(g))
        assert run_cli(capsys, "walk", "--input", str(path), "--trace") == (
            0, _reference_walk_output(g), ""
        ), n
    # an invalid start: one unit on the first slot of the fresh origin
    inst = LocalOptInstance(augment(T1))
    flow = [0] * (2 * inst.m)
    flow[2 * inst.aug.o_bar] = 1
    start = SearchState(inst.aug.o_bar, tuple(flow))
    path.write_text(T1_TEXT)
    out = run_cli(capsys, "walk", "--input", str(path), "--trace", "--start", hex_encode(inst, start))
    assert out == (0, _reference_walk_output(T1, start), "")
    assert json.loads(out[1].splitlines()[0])["potential"] == -1


def test_walk_accepts_a_hex_start(capsys, t1_file):
    code, out, _ = run_cli(
        capsys, "walk", "--input", t1_file, "--start", "20000000000"
    )
    assert code == 0
    assert json.loads(out)["steps"] == 2


def test_walk_from_an_explicit_reset_start_agrees(capsys, t1_file):
    plain = run_cli(capsys, "walk", "--input", t1_file)
    anchored = run_cli(capsys, "walk", "--input", t1_file, "--start", "20000000000")
    assert anchored == plain
    assert run_cli(capsys, "walk", "--input", t1_file, "--mode", "localopt")[0] == 2


@pytest.mark.parametrize("command", ["walk", "simulate"])
def test_negative_budgets_are_usage_errors(capsys, t1_file, command):
    code, out, err = run_cli(capsys, command, "--input", t1_file, "--budget", "-1")
    assert (code, out) == (2, "")
    assert "--budget" in err and "nonnegative" in err


def test_walk_budget_zero_is_valid(capsys, t1_file):
    code, out, _ = run_cli(
        capsys, "walk", "--input", t1_file, "--budget", "0", "--start", "10800008000"
    )
    assert code == 0
    assert json.loads(out)["steps"] == 0


def test_walk_reports_an_exhausted_budget(capsys, t1_file):
    code, out, err = run_cli(capsys, "walk", "--input", t1_file, "--budget", "1")
    assert (code, out) == (1, "")
    assert "no local optimum within 1 steps; the given budget ran out" in err
    assert "bug" not in err


def test_walk_rejects_bad_hex(capsys, t1_file):
    for start in ("xyz", "0x000000000"):
        code, out, err = run_cli(capsys, "walk", "--input", t1_file, "--start", start)
        assert (code, out) == (2, ""), start
        assert "usage error: --start" in err, start


def test_solve_emits_certificates(capsys, t1_file, t3_file):
    code, out, _ = run_cli(capsys, "solve", "--input", t1_file)
    assert code == 0
    assert json.loads(out) == {
        "origin": 2,
        "dest": 1,
        "counts": [1, 0, 0, 0, 1, 0, 0, 0],
        "kind": "termination",
    }
    code, out, _ = run_cli(capsys, "solve", "--input", t3_file)
    assert code == 0
    assert json.loads(out)["kind"] == "non-termination"


def test_graph_commands_validate_their_input_once(capsys, monkeypatch, tmp_path):
    from switchflow import graphs

    path = tmp_path / "counter.json"
    path.write_text(serialize(counter_chain(9)))
    calls = []
    real = graphs.validate
    monkeypatch.setattr(graphs, "validate", lambda g: calls.append(g) or real(g))
    for command in ("decide", "simulate", "reduce", "solve"):
        calls.clear()
        assert run_cli(capsys, command, "--input", str(path))[0] == 0, command
        assert len(calls) == 1, command


def test_one_parser_serves_every_call(capsys, t1_file):
    from switchflow.cli import build_parser
    from switchflow.generate import GeneratorSpec, generate

    assert build_parser() is build_parser()
    seeded = run_cli(capsys, "gen", "--n", "5", "--seed", "5", "--model", "layered")
    default = run_cli(capsys, "gen", "--n", "5")
    assert seeded == (0, serialize(generate(GeneratorSpec(5, 5, "layered"))) + "\n", "")
    assert default == (0, serialize(generate(GeneratorSpec(5, 0, "uniform"))) + "\n", "")
    assert run_cli(capsys, "decide", "--input", t1_file, "--json") == (
        0, '{"terminates":true}\n', ""
    )
    assert run_cli(capsys, "decide", "--input", t1_file) == (0, "terminates\n", "")
    args = build_parser().parse_args(["simulate", "--budget", "3", "--trace"])
    assert (args.budget, args.trace) == (3, True)
    args = build_parser().parse_args(["simulate"])
    assert (args.budget, args.trace, args.input, args.output) == (None, False, None, None)


def test_check_passes_on_the_default_suite(capsys):
    code, out, _ = run_cli(capsys, "check", "--n-max", "8", "--count", "200", "--seed", "7")
    assert code == 0
    assert "result: ok" in out


def test_check_json_report(capsys):
    code, out, _ = run_cli(capsys, "check", "--n-max", "5", "--count", "20", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["instances"] == 20


def test_json_flag_belongs_to_decide_and_check_only(capsys, t1_file, tmp_path):
    flow = tmp_path / "flow.json"
    flow.write_text('{"origin":0,"dest":1,"counts":[1,0,0,0]}')
    prefix = tmp_path / "prefix.json"
    prefix.write_text('{"origin":2,"dest":0,"counts":[0,0,0,0,1,0,0,0]}')
    commands = [
        ["gen", "--n", "3"],
        ["simulate", "--input", t1_file],
        ["reduce", "--input", t1_file],
        ["verify-flow", "--input", t1_file, "--flow", str(flow)],
        ["complete", "--input", t1_file, "--flow", str(prefix)],
        ["walk", "--input", t1_file],
        ["solve", "--input", t1_file],
    ]
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0, argv
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --json" in err, argv


def test_check_reports_a_falsification_as_text(capsys, monkeypatch):
    from switchflow import suite

    run_checks = suite.run_checks
    monkeypatch.setattr(
        suite, "run_checks", lambda *args: run_checks(*args, verify=suite._corrupted_verify)
    )
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    assert out.splitlines()[-4:] == [
        "result: FALSIFIED (prefix-flows)",
        "  reproduce: --n 2 --seed 17485029721327973432 --model uniform",
        '  graph: {"n":2,"origin":0,"dest":1,"even":[1,1],"odd":[0,1]}',
        "  detail: prefix t=1 at vertex 0 failed: FlowCheckReport(conservation_violations="
        "(ConservationViolation(vertex=2, found=0, required=1),), parity_violations=())",
    ]


def test_check_is_deterministic(capsys):
    first = run_cli(capsys, "check", "--n-max", "6", "--count", "40", "--seed", "3")
    second = run_cli(capsys, "check", "--n-max", "6", "--count", "40", "--seed", "3")
    assert first == second


def test_check_self_test_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "--self-test")
    assert code == 0
    assert out.strip() == "self-test: corruption surfaced"


def test_check_rejects_out_of_range_sizes(capsys):
    assert run_cli(capsys, "check", "--n-max", "1")[0] == 2
    assert run_cli(capsys, "check", "--count", "0")[0] == 2
    # sizes above 20 have no ceiling; 24 instances reach n = 25
    code, out, _ = run_cli(capsys, "check", "--n-max", "25", "--count", "24")
    assert code == 0
    assert "result: ok" in out


def test_output_flag_writes_a_file(capsys, t1_file, tmp_path):
    out_path = tmp_path / "verdict.txt"
    code, out, _ = run_cli(
        capsys, "decide", "--input", t1_file, "--output", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text() == "terminates\n"


def test_missing_input_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "decide", "--input", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read or write file" in err


def test_malformed_graph_is_a_content_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n":2,"origin":0,"dest":0,"even":[1,1],"odd":[1,1]}')
    code, _, err = run_cli(capsys, "decide", "--input", str(path))
    assert code == 1
    assert "error:" in err


def test_a_zero_vertex_count_is_a_content_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n":0,"origin":0,"dest":1,"even":[],"odd":[]}')
    code, out, err = run_cli(capsys, "decide", "--input", str(path))
    assert (code, out, err) == (1, "", "error: $.n: vertex count must be positive, found 0\n")


def test_duplicate_field_is_a_content_error(capsys, t1_file, tmp_path):
    flow = tmp_path / "flow.json"
    flow.write_text('{"origin":0,"dest":1,"dest":1,"counts":[1,0,0,0]}')
    code, out, err = run_cli(capsys, "verify-flow", "--input", t1_file, "--flow", str(flow))
    assert (code, out) == (1, "")
    assert "$.dest: duplicate field" in err


def test_deeply_nested_documents_are_content_errors(capsys, t1_file, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    for argv in (
        ("decide", "--input", str(deep)),
        ("verify-flow", "--input", t1_file, "--flow", str(deep)),
    ):
        assert run_cli(capsys, *argv) == (1, "", "error: $: nested too deeply\n"), argv


def test_integer_literals_past_the_digit_limit_are_content_errors(capsys, t1_file, tmp_path):
    long = tmp_path / "long.json"
    long.write_text('{"n": ' + "1" * 5000 + "}")
    error = f"error: $: integer over {sys.get_int_max_str_digits()} digits\n"
    for argv in (
        ("decide", "--input", str(long)),
        ("verify-flow", "--input", t1_file, "--flow", str(long)),
    ):
        assert run_cli(capsys, *argv) == (1, "", error), argv


def test_stdin_is_the_default_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(T1_TEXT))
    code, out, _ = run_cli(capsys, "decide")
    assert code == 0
    assert out == "terminates\n"


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
