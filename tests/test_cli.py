import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reokit import cli, dsl, semlog, sim
from util import BLOCKER_TEXT, MINIMAL_SYNC_TEXT

PKG_ROOT = Path(__file__).resolve().parent.parent
DATA = PKG_ROOT / "src" / "reokit" / "data"


def run_cli(*argv, stdin=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "reokit", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture()
def mini(tmp_path):
    p = tmp_path / "mini.circuit"
    p.write_text(MINIMAL_SYNC_TEXT)
    return p


@pytest.fixture()
def blocker(tmp_path):
    p = tmp_path / "blocker.circuit"
    p.write_text(BLOCKER_TEXT)
    return p


def test_parse_valid_circuit_exits_zero():
    result = run_cli("parse", str(DATA / "rescue.circuit"))
    assert result.returncode == 0
    assert "ok" in result.stdout


def test_parse_malformed_exits_two(tmp_path):
    bad = tmp_path / "bad.circuit"
    bad.write_text("circuit t { data{ok} ports{in a;} sync(a,) }")
    result = run_cli("parse", str(bad))
    assert result.returncode == 2
    assert "1:" in result.stderr


def test_parse_missing_file_exits_two():
    result = run_cli("parse", "/definitely/not/here.circuit")
    assert result.returncode == 2


def test_parse_dot_output(mini):
    result = run_cli("parse", str(mini), "--dot")
    assert result.returncode == 0
    assert "digraph" in result.stdout


def test_compile_stats_counts(mini):
    result = run_cli("compile", str(mini), "--stats")
    assert result.returncode == 0
    assert "states: 1" in result.stdout


def test_compile_rescue_matches_pinned_counts():
    result = run_cli("compile", str(DATA / "rescue.circuit"), "--stats")
    assert result.returncode == 0
    assert "states: 96" in result.stdout
    assert "transitions: 900" in result.stdout


def test_compile_json_and_dot(mini):
    as_json = run_cli("compile", str(mini), "--json")
    doc = json.loads(as_json.stdout)
    assert doc["names"] == ["a", "b"]
    as_dot = run_cli("compile", str(mini), "--dot")
    assert "digraph" in as_dot.stdout
    both = run_cli("compile", str(mini), "--json", "--dot")
    assert both.returncode == 2
    assert "not allowed with argument" in both.stderr
    assert both.stdout == ""


def test_compile_stats_beside_an_automaton_go_to_stderr(mini):
    for fmt in ("--json", "--dot"):
        plain = run_cli("compile", str(mini), fmt)
        with_stats = run_cli("compile", str(mini), fmt, "--stats")
        assert with_stats.returncode == 0, fmt
        assert with_stats.stdout == plain.stdout, fmt
        assert with_stats.stderr == "states: 1\ntransitions: 1\nnames: a, b\n", fmt


def test_unknown_flag_exits_two(mini):
    result = run_cli("compile", str(mini), "--frobnicate")
    assert result.returncode == 2


def test_a_flag_its_command_does_not_read_exits_two(mini, capsys):
    result = run_cli("compile", str(mini), "--seed", "3", "--max-depth", "9", "--quiet")
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr
    rules = ("--rules", "r", "--events", "e")
    for argv, flag in (
        (("parse", "c"), ("--seed", "3")),
        (("parse", "c"), ("--max-depth", "9")),
        (("parse", "c"), ("--quiet",)),
        (("compile", "c"), ("--seed", "3")),
        (("compile", "c"), ("--max-depth", "9")),
        (("compile", "c"), ("--quiet",)),
        (("simulate", "c", "--env", "e"), ("--max-depth", "9")),
        (("check", "c"), ("--seed", "3")),
        (("check", "c"), ("--max-depth", "9")),
        (("comply", *rules), ("--seed", "3")),
        (("repl", "c"), ("--max-depth", "9")),
        (("repl", "c"), ("--quiet",)),
    ):
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, *flag])
        assert exit_.value.code == 2, (argv, flag)
        assert "unrecognized arguments" in capsys.readouterr().err
    # the flags each command does read still parse
    parser = cli.build_parser()
    for argv in (
        ("simulate", "c", "--env", "e", "--seed", "3", "--quiet"),
        ("check", "c", "--quiet"),
        ("comply", *rules, "--max-depth", "9", "--quiet"),
        ("scenario", "--seed", "3", "--max-depth", "9", "--quiet"),
        ("repl", "c", "--seed", "3"),
    ):
        parser.parse_args(argv)


def test_simulate_deterministic_files(mini, tmp_path):
    env_file = tmp_path / "mini.env"
    env_file.write_text("round 1: offer a=ok\nround 2: offer a=ok\n")
    outs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        result = run_cli(
            "simulate", str(mini), "--env", str(env_file), "--seed", "1",
            "--trace", str(out), "--quiet",
        )
        assert result.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert [r["kind"] for r in doc["rounds"]] == ["firing", "firing"]


def test_simulate_rounds_zero_empty_trace(mini, tmp_path):
    env_file = tmp_path / "mini.env"
    env_file.write_text("round 1: offer a=ok\n")
    result = run_cli(
        "simulate", str(mini), "--env", str(env_file), "--rounds", "0", "--quiet"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rounds"] == []


def test_negative_rounds_exits_two(mini, tmp_path):
    env_file = tmp_path / "mini.env"
    env_file.write_text("round 1: offer a=ok\n")
    for argv in (
        ("simulate", str(mini), "--env", str(env_file), "--rounds", "-3"),
        ("scenario", "--rounds", "-1"),
    ):
        result = run_cli(*argv)
        assert result.returncode == 2, argv
        assert result.stderr.startswith("error: round cap must be >= 0"), argv
        assert result.stdout == "", argv


def test_negative_max_depth_exits_two(tmp_path):
    events = tmp_path / "heli.events"
    events.write_text("HelicopterMission\n")
    comply = ("comply", "--rules", str(DATA / "rescue.rules"), "--events", str(events))
    for argv in (("scenario",), comply):
        result = run_cli(*argv, "--max-depth", "-1")
        assert result.returncode == 2, argv
        assert result.stderr.startswith("error: max depth must be >= 0, got -1"), argv
        assert result.stdout == "", argv
        # depth 0 is a limit that drops every event, not a usage error
        result = run_cli(*argv, "--max-depth", "0", "--quiet")
        assert result.returncode == 1, argv
        verdict = json.loads(result.stdout)
        verdict = verdict.get("verdict", verdict)  # a scenario report holds its verdict
        diagnostics = verdict["diagnostics"]
        assert diagnostics and all(d.startswith("DEPTH_LIMIT: ") for d in diagnostics), argv


def test_oversized_round_number_exits_two(tmp_path):
    env_file = tmp_path / "big.env"
    env_file.write_text("round 99999999999999999999999: offer citizens=ok\n")
    for argv in (
        ("scenario", "--env", str(env_file)),
        ("simulate", str(DATA / "rescue.circuit"), "--env", str(env_file)),
    ):
        result = run_cli(*argv)
        assert result.returncode == 2, argv
        assert result.stderr.startswith("1:7: BAD_ROUND: "), argv
        assert "Traceback" not in result.stderr, argv


def test_simulate_env_mismatch_exits_two(mini, tmp_path):
    env_file = tmp_path / "mini.env"
    env_file.write_text("round 1: offer nope=ok\n")
    result = run_cli("simulate", str(mini), "--env", str(env_file))
    assert result.returncode == 2


def test_check_mini_clean(mini):
    result = run_cli("check", str(mini))
    assert result.returncode == 0
    assert "no deadlocks" in result.stdout


def test_check_blocker_reports_deadlock(blocker):
    result = run_cli("check", str(blocker))
    assert result.returncode == 1
    assert "deadlock states: s0" in result.stdout


def test_check_dead_port_exits_one(tmp_path):
    # random_circuit(random.Random(8)): i0 fires into the filter and the
    # asyncdrain at once, and the drain's ends never fire together, so x0,
    # and with it o0, can never fire; the filter still takes and loses ok,
    # so nothing deadlocks
    path = tmp_path / "dead.circuit"
    path.write_text(
        "circuit rnd { data { bad, ok } ports { in i0; out o0; }"
        " filter(i0, x0, accept={bad}); sync(x0, o0); asyncdrain(i0, x0); }"
    )
    result = run_cli("check", str(path))
    assert result.returncode == 1
    assert result.stdout == "reachable states: 1\nno deadlocks\ndead ports: o0\n"
    result = run_cli("check", str(path), "--json", "--quiet")
    assert result.returncode == 1
    assert json.loads(result.stdout)["dead_ports"] == ["o0"]


def test_comply_warning_chain(tmp_path):
    events = tmp_path / "heli.events"
    events.write_text("HelicopterMission\n" * 3)
    result = run_cli(
        "comply", "--rules", str(DATA / "rescue.rules"), "--events", str(events)
    )
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["warnings"] == [
        {"resolved": False, "term": "Warning(P((Very)BudgetConsuming))"}
    ]


def test_check_json_form(blocker):
    result = run_cli("check", str(blocker), "--json", "--quiet")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["deadlocks"] == ["s0"]
    assert doc["reachable"] == 1


def test_comply_explain_prints_derivations(tmp_path):
    events = tmp_path / "heli.events"
    events.write_text("HelicopterMission\n" * 3)
    result = run_cli(
        "comply", "--rules", str(DATA / "rescue.rules"),
        "--events", str(events), "--explain",
    )
    assert result.returncode == 1
    assert "Warning(P((Very)BudgetConsuming))  [r7]" in result.stderr
    assert "[event #1]" in result.stderr


def test_comply_explain_prints_a_deep_count_chain(tmp_path):
    # Failure(Alpha) rests on (1501)Alpha <- (1500)Alpha <- ... <- (1)Alpha,
    # more levels than Python's default recursion limit
    rules = tmp_path / "deep.rules"
    rules.write_text("rule x: (I)A AND I>1500 => Failure(A)\n")
    events = tmp_path / "alpha.events"
    events.write_text("Alpha\n" * 1600)
    result = run_cli(
        "comply", "--rules", str(rules), "--events", str(events), "--explain",
    )
    assert result.returncode == 1
    assert json.loads(result.stdout)["failures"] == ["Failure(Alpha)"]
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert lines[0] == "Failure(Alpha)  [x]"
    assert lines[1] == "  (1501)Alpha  [r10]"
    assert lines[-2:] == [" " * 2 * 1501 + "(1)Alpha  [r11]", " " * 2 * 1502 + "Alpha  [event #1]"]
    assert len(lines) == 1 + 2 * 1501


def test_comply_resolved_still_exits_one(tmp_path):
    events = tmp_path / "heli.events"
    events.write_text(
        "HelicopterMission\n" * 3 + "DoubleCheck(P((Very)BudgetConsuming))\n"
    )
    result = run_cli(
        "comply", "--rules", str(DATA / "rescue.rules"), "--events", str(events)
    )
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["warnings"][0]["resolved"] is True
    assert doc["resolved"] == ["Warning(P((Very)BudgetConsuming))"]


def test_comply_truncated_verdict_is_not_clean(tmp_path):
    events = tmp_path / "heli.events"
    events.write_text("HelicopterMission\n" * 4)
    rules = str(DATA / "rescue.rules")
    full = run_cli("comply", "--rules", rules, "--events", str(events))
    assert full.returncode == 1
    assert "diagnostics" not in json.loads(full.stdout)
    # at depth 2 the warning's premise P((Very)BudgetConsuming) is dropped,
    # so the verdict has no finding, but it must not read as clean either
    cut = run_cli("comply", "--rules", rules, "--events", str(events), "--max-depth", "2")
    assert cut.returncode == 1
    doc = json.loads(cut.stdout)
    assert doc["warnings"] == []
    assert "DEPTH_LIMIT: dropped P((Very)BudgetConsuming)" in doc["diagnostics"]


def test_comply_not_converged_exits_two(tmp_path, monkeypatch, capsys):
    rules = tmp_path / "grow.rules"
    rules.write_text("fact s: P(x)\nrule g: P(A) => P(P(A))\n")
    events = tmp_path / "e.events"
    events.write_text("x\n")
    monkeypatch.setattr(semlog, "_MAX_PASSES", 1)
    code = cli.main(["comply", "--rules", str(rules), "--events", str(events)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: saturation did not converge")


@pytest.mark.parametrize("nested", ["events", "rules", "trace"])
def test_deeply_nested_input_exits_two(nested, tmp_path, mini, capsys):
    # past Python's recursion limit a parser's descent fails; that is bad
    # input, reported on one line with exit 2, not a crash that exits 1
    files = {name: tmp_path / name for name in ("events", "rules", "trace", "map")}
    files["events"].write_text("x\n")
    files["rules"].write_text("rule r: x => y\n")
    files["map"].write_text("b -> X\n")
    deep = {
        "events": "(" * 3_000 + "A" + ")" * 3_000 + "\n",
        "rules": "rule r: x => " + "P(" * 3_000 + "x" + ")" * 3_000 + "\n",
        "trace": "[" * 100_000,
    }
    files[nested].write_text(deep[nested])
    source = (
        ["--trace", str(files["trace"]), "--map", str(files["map"]), "--circuit", str(mini)]
        if nested == "trace"
        else ["--events", str(files["events"])]
    )
    assert cli.main(["comply", "--rules", str(files["rules"]), *source]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    if nested == "trace":
        assert line == "error: trace JSON nests too deeply"
    else:
        assert re.fullmatch(r"1:[0-9]+: TOO_DEEP: the term nests too deeply", line), line


def test_comply_exits_two_on_a_count_variable_concluded_as_a_term(tmp_path, capsys):
    rules = tmp_path / "r.rules"
    rules.write_text("rule r: (I)A => I\n")
    events = tmp_path / "e.events"
    events.write_text("X\n")
    assert cli.main(["comply", "--rules", str(rules), "--events", str(events)]) == 2
    assert capsys.readouterr().err == "error: variable I bound to count 1\n"


def test_comply_empty_events_clean(tmp_path):
    events = tmp_path / "empty.events"
    events.write_text("")
    result = run_cli(
        "comply", "--rules", str(DATA / "rescue.rules"), "--events", str(events)
    )
    assert result.returncode == 0


def test_comply_requires_exactly_one_source(tmp_path):
    result = run_cli("comply", "--rules", str(DATA / "rescue.rules"))
    assert result.returncode == 2
    events = tmp_path / "e.events"
    events.write_text("")
    trace = tmp_path / "t.json"
    trace.write_text("{}")
    result = run_cli(
        "comply",
        "--rules", str(DATA / "rescue.rules"),
        "--events", str(events),
        "--trace", str(trace),
    )
    assert result.returncode == 2
    # a map is read only with a trace, so --events with --map is a usage error
    result = run_cli(
        "comply", "--rules", str(DATA / "rescue.rules"),
        "--events", str(events), "--map", str(DATA / "rescue.map"),
    )
    assert result.returncode == 2
    assert result.stderr == "error: --map and --circuit require --trace\n"


def test_comply_from_trace_and_map(mini, tmp_path):
    env_file = tmp_path / "mini.env"
    env_file.write_text("round 1: offer a=ok\n")
    trace_file = tmp_path / "t.json"
    run_cli(
        "simulate", str(mini), "--env", str(env_file),
        "--trace", str(trace_file), "--quiet",
    )
    map_file = tmp_path / "m.map"
    map_file.write_text("b -> PoliceRequest\n")
    rules = tmp_path / "r.rules"
    rules.write_text("protocol { AmbulanceRequest >> PoliceRequest }\n")
    result = run_cli(
        "comply", "--rules", str(rules),
        "--trace", str(trace_file), "--map", str(map_file), "--circuit", str(mini),
    )
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["order_violations"][0]["atom"] == "PoliceRequest"


def test_comply_checks_the_map_against_a_given_circuit(
    tmp_path, rescue_circuit, rescue_auto, capsys
):
    env = dsl.parse_env((DATA / "rescue.env").read_text(), rescue_circuit)
    trace = tmp_path / "t.json"
    trace.write_text(sim.simulate(rescue_auto, env, seed=0).to_json())
    shipped = (DATA / "rescue.map").read_text()
    bad_datum = shipped.replace("police_alarm ->", "police_alarm=zap ->")
    bad_port = shipped + "polise_alarm -> PoliceRequest\n"
    base = ["comply", "--rules", str(DATA / "rescue.rules"), "--trace", str(trace)]
    circuit = ["--circuit", str(DATA / "rescue.circuit")]
    for text, code in ((bad_datum, "UNKNOWN_TOKEN"), (bad_port, "UNKNOWN_PORT")):
        map_file = tmp_path / "m.map"
        map_file.write_text(text)
        # a map is never read without its circuit
        assert cli.main([*base, "--map", str(map_file)]) == 2
        assert capsys.readouterr().err == "error: --trace requires --map and --circuit\n"
        assert cli.main([*base, "--map", str(map_file), *circuit]) == 2
        assert code in capsys.readouterr().err
    # the shipped map passes the check
    assert cli.main([*base, "--map", str(DATA / "rescue.map"), *circuit]) == 0
    # --circuit only qualifies a trace's map
    events = tmp_path / "e.events"
    events.write_text("")
    argv = ["comply", "--rules", str(DATA / "rescue.rules"), "--events", str(events), *circuit]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --map and --circuit require --trace\n"


# a PoliceRequest comes before any FireRequest in this env's seed-0 trace
WITNESS_ENV = """policy closed
round 1: offer citizens=ok; ready case1
round 4: offer act1=bad, citizens=ok; ready case2, emergency_alarm
round 5: offer citizens=ok, ps_enable=bad; ready case3, police_alarm
"""


def test_comply_never_judges_a_trace_through_an_unchecked_map(
    tmp_path, rescue_circuit, rescue_auto, capsys
):
    trace = tmp_path / "t.json"
    env = dsl.parse_env(WITNESS_ENV, rescue_circuit)
    trace.write_text(sim.simulate(rescue_auto, env, seed=0).to_json())
    base = ["comply", "--rules", str(DATA / "rescue.rules"), "--trace", str(trace)]
    circuit = ["--circuit", str(DATA / "rescue.circuit")]
    assert cli.main([*base, "--map", str(DATA / "rescue.map"), *circuit]) == 1
    assert json.loads(capsys.readouterr().out)["order_violations"][0]["atom"] == "PoliceRequest"
    # misspelt, the port maps to nothing, so an unchecked map would read clean
    misspelt = tmp_path / "m.map"
    misspelt.write_text((DATA / "rescue.map").read_text().replace("police_alarm", "police_alrm"))
    assert cli.main([*base, "--map", str(misspelt)]) == 2
    assert capsys.readouterr().err == "error: --trace requires --map and --circuit\n"
    assert cli.main([*base, "--map", str(misspelt), *circuit]) == 2
    assert capsys.readouterr().err == "4:1: UNKNOWN_PORT: 'police_alrm' is not a boundary port\n"


def test_comply_checks_the_trace_against_the_circuit(
    mini, tmp_path, rescue_circuit, rescue_auto, capsys
):
    # a rescue trace judged with another circuit and a map of that circuit's
    # ports would map nothing and read clean
    trace = tmp_path / "t.json"
    env = dsl.parse_env((DATA / "rescue.env").read_text(), rescue_circuit)
    trace.write_text(sim.simulate(rescue_auto, env, seed=0).to_json())
    map_file = tmp_path / "m.map"
    map_file.write_text("a -> PoliceRequest\n")
    argv = [
        "comply", "--rules", str(DATA / "rescue.rules"),
        "--trace", str(trace), "--map", str(map_file), "--circuit", str(mini),
    ]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: round 1: 'case1' is not a boundary port of circuit 'mini'\n"


def test_comply_checks_the_trace_data_against_the_circuit(mini, tmp_path, capsys):
    # a datum outside the circuit's alphabet cannot fire, so such a trace is
    # not judged: judged, this one read as a PoliceRequest out of order
    firing = {"round": 1, "kind": "firing", "from": "s0", "to": "s0"}
    rounds = [
        {"kind": "stall", "round": 1},
        {**firing, "round": 2, "sync": ["a", "b"], "data": {"a": "ok", "b": "ok"}},
        {**firing, "round": 3, "sync": ["a", "b"], "data": {"a": "zzz", "b": "zzz"}},
        {**firing, "round": 4, "sync": ["a", "b"], "data": {"a": "ok", "b": "yyy"}},
    ]
    trace = tmp_path / "t.json"
    map_file = tmp_path / "m.map"
    map_file.write_text("a -> PoliceRequest\n")
    rules = tmp_path / "r.rules"
    rules.write_text("protocol { AmbulanceRequest >> PoliceRequest }\n")
    argv = [
        "comply", "--rules", str(rules),
        "--trace", str(trace), "--map", str(map_file), "--circuit", str(mini),
    ]
    for kept, err in (
        (2, ""),
        (3, "error: round 3: 'zzz' on 'a' is not in the data alphabet of circuit 'mini'\n"),
        (4, "error: round 3: 'zzz' on 'a' is not in the data alphabet of circuit 'mini'\n"),
    ):
        trace.write_text(json.dumps({"circuit": "mini", "seed": 0, "rounds": rounds[:kept]}))
        assert cli.main(argv) == (2 if err else 1)
        captured = capsys.readouterr()
        assert captured.err == err
        assert (captured.out == "") == bool(err)
    trace.write_text(json.dumps({"circuit": "mini", "seed": 0, "rounds": rounds[3:]}))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: round 4: 'yyy' on 'b' is not in the data alphabet of circuit 'mini'\n"
    )


def test_comply_malformed_trace_exits_two(tmp_path, rescue_circuit, rescue_auto):
    firing = {"round": 1, "kind": "firing", "sync": ["police_alarm"],
              "data": {"police_alarm": "ok"}, "from": "s0", "to": "s1"}
    no_sync = {k: v for k, v in firing.items() if k != "sync"}
    env = dsl.parse_env((DATA / "rescue.env").read_text(), rescue_circuit)
    rescue_trace = json.loads(sim.simulate(rescue_auto, env, seed=0).to_json())
    cases = {
        "rounds reversed": {**rescue_trace, "rounds": rescue_trace["rounds"][::-1]},
        "round repeated": {
            "circuit": "rescue", "seed": 0,
            "rounds": [{"kind": "stall", "round": 1}, {"kind": "stall", "round": 1}],
        },
        "top-level array": [firing],
        "firing without sync": {"circuit": "rescue", "seed": 0, "rounds": [no_sync]},
        "state not s<int>": {"circuit": "rescue", "seed": 0, "rounds": [{**firing, "to": 3}]},
        "sync not a list": {"circuit": "rescue", "seed": 0, "rounds": [{**firing, "sync": "case1"}]},
        "data lacks a sync port": {"circuit": "rescue", "seed": 0, "rounds": [{**firing, "data": {}}]},
        "round not an int": {"circuit": "rescue", "seed": 0, "rounds": [{**firing, "round": "x"}]},
        "data value not a string": {
            "circuit": "rescue", "seed": 0, "rounds": [{**firing, "data": {"police_alarm": ["ok"]}}],
        },
        "stall round a bool": {
            "circuit": "rescue", "seed": 0, "rounds": [{"kind": "stall", "round": True}],
        },
        # both once read as a firing, judged a PoliceRequest out of order
        "kind neither stall nor firing": {
            "circuit": "rescue", "seed": 0, "rounds": [{**firing, "kind": "fire"}],
        },
        "round 0": {"circuit": "rescue", "seed": 0, "rounds": [{**firing, "round": 0}]},
        # a firing fires at least one port, each once; an empty one was judged clean
        "sync empty": {"circuit": "rescue", "seed": 0, "rounds": [{**firing, "sync": [], "data": {}}]},
        "sync names a port twice": {
            "circuit": "rescue", "seed": 0, "rounds": [{**firing, "sync": ["police_alarm"] * 2}],
        },
        "circuit not a string": {"circuit": 7, "seed": 0, "rounds": [firing]},
        "seed not an int": {"circuit": "rescue", "seed": "0", "rounds": [firing]},
        # state_name never writes a leading zero; s01 once read as s1, and
        # this trace, a run of the circuit as s1, was judged clean
        "state with a leading zero": {
            **rescue_trace,
            "rounds": [{**r, "from": "s01"} if r.get("from") == "s1" else r
                       for r in rescue_trace["rounds"]],
        },
    }
    for what, doc in cases.items():
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps(doc))
        result = run_cli(
            "comply", "--rules", str(DATA / "rescue.rules"),
            "--trace", str(trace), "--map", str(DATA / "rescue.map"),
            "--circuit", str(DATA / "rescue.circuit"),
        )
        assert result.returncode == 2, what
        assert result.stderr.startswith("error: "), what
        assert "Traceback" not in result.stderr, what
    # the rescue trace in its own order is judged clean
    trace.write_text(json.dumps(rescue_trace))
    result = run_cli(
        "comply", "--rules", str(DATA / "rescue.rules"),
        "--trace", str(trace), "--map", str(DATA / "rescue.map"),
        "--circuit", str(DATA / "rescue.circuit"),
    )
    assert result.returncode == 0, result.stderr


def test_comply_judges_only_a_run_of_the_circuit(tmp_path, rescue_circuit, rescue_auto, capsys):
    # comply replays the trace on the compiled circuit before it maps a
    # single firing; a trace that is not a run exits 2, like a malformed one
    env = dsl.parse_env((DATA / "rescue.env").read_text(), rescue_circuit)
    rescue_trace = json.loads(sim.simulate(rescue_auto, env, seed=0).to_json())
    trace = tmp_path / "t.json"
    argv = [
        "comply", "--rules", str(DATA / "rescue.rules"), "--trace", str(trace),
        "--map", str(DATA / "rescue.map"), "--circuit", str(DATA / "rescue.circuit"),
    ]
    trace.write_text(json.dumps(rescue_trace))
    assert cli.main(argv) == 0
    capsys.readouterr()
    firings = [i for i, r in enumerate(rescue_trace["rounds"]) if r["kind"] == "firing"]
    # the first firing that changes state, and the firing after it
    i = next(i for i in firings if rescue_trace["rounds"][i]["from"] != rescue_trace["rounds"][i]["to"])
    j = firings[firings.index(i) + 1]

    def mutated(change):
        rounds = [dict(r) for r in rescue_trace["rounds"]]
        change(rounds)
        return {**rescue_trace, "rounds": rounds}

    def swap(rounds):
        for key in ("sync", "data", "from", "to"):
            rounds[i][key], rounds[j][key] = rounds[j][key], rounds[i][key]

    cases = {
        "a to changed": mutated(lambda rounds: rounds[i].update(to=rounds[i]["from"])),
        "a firing dropped": mutated(lambda rounds: rounds.pop(i)),
        "two firings swapped": mutated(swap),
        # judged, this once read as a PoliceRequest out of order, exit 1
        "a firing s0 has no move for": {
            "circuit": "rescue", "seed": 0,
            "rounds": [{"round": 1, "kind": "firing", "sync": ["police_alarm"],
                        "data": {"police_alarm": "ok"}, "from": "s0", "to": "s1"}],
        },
    }
    for what, doc in cases.items():
        trace.write_text(json.dumps(doc))
        assert cli.main(argv) == 2, what
        captured = capsys.readouterr()
        assert captured.out == "", what
        assert re.fullmatch(
            r"error: round \d+: firing \{.*\} from s\d+ to s\d+ is not a move"
            r" from the run's state s\d+\n", captured.err,
        ), (what, captured.err)
    assert captured.err == (
        "error: round 1: firing {police_alarm=ok} from s0 to s1 is not a move"
        " from the run's state s0\n"
    )


def test_scenario_runs_clean(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("scenario", "--seed", "7", "--json", str(out), "--quiet")
    assert result.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["facts_total"] > 0
    assert doc["analysis"]["deadlocks"] == []


def test_scenario_and_check_output_bytes_are_pinned():
    scenario = run_cli("scenario", "--quiet")
    assert scenario.returncode == 0, scenario.stderr
    digest = hashlib.sha256(scenario.stdout.encode()).hexdigest()
    assert digest == "382b71d5106c1e183b1e2ecf90e7c00cc6e109b4605d770a85a7e8515b6164c2"
    check = run_cli("check", str(DATA / "rescue.circuit"), "--json", "--quiet")
    assert check.returncode == 0, check.stderr
    assert check.stdout == '{\n  "deadlocks": [],\n  "notes": [],\n  "reachable": 96\n}\n'


def test_scenario_env_runs_the_whole_script(tmp_path):
    # with no --rounds, scenario judges every round its env lists: the canned
    # 12 and then 27 more, which repeat the canned bodies
    canned = (DATA / "rescue.env").read_text()
    bodies = [line.split(":", 1)[1] for line in canned.splitlines() if line.startswith("round")]
    assert len(bodies) == 12
    env = tmp_path / "long.env"
    env.write_text(canned + "".join(f"round {n}:{bodies[(n - 1) % 12]}\n" for n in range(13, 40)))
    for extra, rounds in (((), 39), (("--rounds", "20"), 20)):
        out = tmp_path / "report.json"
        result = run_cli("scenario", "--env", str(env), "--json", str(out), "--quiet", *extra)
        assert result.returncode in (0, 1), result.stderr
        steps = json.loads(out.read_text())["trace"]["rounds"]
        assert [s["round"] for s in steps] == list(range(1, rounds + 1)), extra
    # the canned scenario is unchanged: 12 rounds, the same report as its env given
    default = run_cli("scenario", "--quiet")
    given = run_cli("scenario", "--env", str(DATA / "rescue.env"), "--quiet")
    assert default.returncode == given.returncode == 0
    assert default.stdout == given.stdout
    assert len(json.loads(default.stdout)["trace"]["rounds"]) == 12


def test_unwritable_output_exits_two(mini, tmp_path):
    missing = tmp_path / "no" / "such" / "dir"
    env = tmp_path / "mini.env"
    env.write_text("round 1: offer a=ok")
    result = run_cli("simulate", str(mini), "--env", str(env), "--trace", str(missing / "t.json"))
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write")
    result = run_cli("scenario", "--json", str(missing / "x.json"), "--quiet")
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write")


def test_repl_session(mini):
    result = run_cli(
        "repl", str(mini),
        stdin="offer a=ok\nready b\nenabled\nfire\nfire\nstate\nwat\nquit\n",
    )
    assert result.returncode == 0
    out = result.stdout
    assert "{a,b} a=ok,b=ok" in out
    assert "fired {a,b}" in out
    assert "stall" in out
    assert "state s0 (round 3)" in out
    assert "unknown command 'wat'" in out


def test_repl_steps_a_circuit_line_by_line(mini):
    # an offer line readies nothing by itself; ready adds b, fire takes the
    # one move and ends the round; a bad line reports its column within the
    # line typed and the session goes on; nothing after quit is read
    result = run_cli(
        "repl", str(mini),
        stdin="offer a=ok\nenabled\nready b\nenabled\nfire\nstate\noffer zz=ok\nquit\nstate\n",
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines() == [
        "circuit mini: 1 states; commands: offer p=tok | ready p[,p]* | enabled | state | fire | quit",
        "nothing enabled",
        "{a,b} a=ok,b=ok",
        "fired {a,b} a=ok,b=ok",
        "state s0 (round 2)",
        "error: 7:7: UNKNOWN_PORT: 'zz' is not a boundary-in port",
    ]


def test_repl_reads_offer_and_ready_as_an_env_round(mini):
    # blanks separate tokens, as in an env script: "o k" is two words, not "ok",
    # and a tab ends the command word; an error's column is the one in the line typed
    result = run_cli(
        "repl", str(mini),
        stdin="offer a = o k\nready b\nenabled\n  offer zz=ok\noffer\ta=bad; ready b\nenabled\n",
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1:] == [
        "error: 1:11: UNKNOWN_TOKEN: 'o' is not in the data alphabet",
        "nothing enabled",
        "error: 4:9: UNKNOWN_PORT: 'zz' is not a boundary-in port",
        "{a,b} a=bad,b=bad",
    ]
