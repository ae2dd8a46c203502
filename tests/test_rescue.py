import itertools
import json
from unittest import mock

from reokit import dsl, rescue
from reokit.automata import sat_assignments
from reokit.circuit import PORT_IN, PORT_OUT, validate_circuit
from reokit.semlog import Atom, DoubleCheck, P, Very, Warning, pretty
from reokit.sim import Firing, Trace, enabled, simulate, trace_from_json

from util import MINIMAL_SYNC_TEXT, random_rescue_env

BUDGET = Atom("BudgetConsuming")

# regression values pinned from the first compile (see also the analysis
# fixture: all 96 states reachable, no deadlocks)
RESCUE_STATES = 96
RESCUE_TRANSITIONS = 900


def canned_env(lines):
    return dsl.parse_env("policy all-ready\n" + "\n".join(lines), rescue.builtin_circuit())


def run(seed=0, env=None, extra=None, auto=None, rounds=12):
    return rescue.run_rescue(
        seed=seed, rounds=rounds, env=env, extra_events=extra, automaton=auto
    )


def case_ports(firing):
    return [n for n in sorted(firing.sync) if n.startswith("case")]


def test_builtin_circuit_validates(rescue_circuit):
    report = validate_circuit(rescue_circuit)
    assert report.ok
    assert report.warnings == []


def test_builtin_circuit_shape(rescue_circuit):
    ins = sorted(p.name for p in rescue_circuit.ports if p.kind == PORT_IN)
    outs = sorted(p.name for p in rescue_circuit.ports if p.kind == PORT_OUT)
    assert ins == ["act1", "act2", "act3", "citizens", "fs_enable", "ps_enable", "sensors"]
    assert outs == ["case1", "case2", "case3", "emergency_alarm", "fire_alarm", "police_alarm"]
    assert len(rescue_circuit.ports) == 13
    # hand count of the reconstruction: 35 channels
    assert len(rescue_circuit.channels) == 35
    assert rescue_circuit.alphabet == frozenset({"ok", "bad", "tick"})


def test_compiled_regression_counts(rescue_auto):
    assert rescue_auto.n_states == RESCUE_STATES
    assert len(rescue_auto.transitions) == RESCUE_TRANSITIONS
    for t in rescue_auto.transitions:  # pruning soundness
        assert sat_assignments(t.guard, t.sync, rescue_auto.alphabet)


def test_builtin_rules_counts(rescue_rules):
    assert len(rescue_rules.rules) == 11
    assert [pretty(f.term) for f in rescue_rules.facts] == [
        "Forbidden((Very)BudgetConsuming)"
    ]
    assert rescue_rules.orders == (
        ("AmbulanceRequest", "FireRequest", "PoliceRequest"),
    )


def test_map_trace_empty():
    assert rescue.map_trace(Trace("rescue", 0, []), rescue.builtin_map()) == []


def test_map_trace_specific_beats_port_only():
    mapping = dsl.parse_map("a=ok -> Hit\na -> Miss", dsl.parse_circuit(MINIMAL_SYNC_TEXT))
    trace = Trace("t", 0, [])
    trace.steps.append(Firing(1, frozenset({"a"}), (("a", "ok"),), 0, 0))
    trace.steps.append(Firing(2, frozenset({"a"}), (("a", "bad"),), 0, 0))
    assert rescue.map_trace(trace, mapping) == [Atom("Hit"), Atom("Miss")]


def test_map_trace_reads_one_firing_in_sorted_port_order():
    pairs = [("police_alarm", "ok"), ("case2", "ok"), ("fire_alarm", "bad"), ("emergency_alarm", "ok")]
    sync = frozenset(port for port, _ in pairs)
    # every order of the firing's assignment, the sorted one among them
    for assignment in itertools.permutations(pairs):
        trace = Trace("rescue", 0, [Firing(1, sync, assignment, 0, 1)])
        assert rescue.map_trace(trace, rescue.builtin_map()) == [
            Atom("AmbulanceRequest"), Atom("FireRequest"), Atom("PoliceRequest")
        ]


def test_map_trace_looks_up_each_distinct_assignment_once(rescue_auto, monkeypatch):
    mapping = rescue.builtin_map()
    calls = [0]
    real_lookup = dsl.EventMap.lookup

    def counting_lookup(self, port, datum):
        calls[0] += 1
        return real_lookup(self, port, datum)

    for seed in range(3):
        env = random_rescue_env(rescue_auto, seed, rounds=600)
        trace = simulate(rescue_auto, env, seed=seed, circuit_name="rescue")
        firings = trace.firings()
        # the per-firing definition
        expected = [
            Atom(mapping.lookup(port, datum))
            for f in firings
            for port, datum in sorted(f.assignment)
            if mapping.lookup(port, datum) is not None
        ]
        distinct = {f.assignment for f in firings}
        assert len(distinct) * 4 < len(firings)
        # a trace read back from JSON shares no assignment tuple between firings
        for t in (trace, trace_from_json(trace.to_json(), rescue_auto)):
            calls[0] = 0
            with monkeypatch.context() as m:
                m.setattr(dsl.EventMap, "lookup", counting_lookup)
                assert rescue.map_trace(t, mapping) == expected, seed
            assert 0 < calls[0] <= sum(len(a) for a in distinct), seed


def test_canned_run_dispatches_in_order(rescue_auto):
    report = run(seed=0, auto=rescue_auto)
    dispatched = [case_ports(f) for f in report.trace.firings() if case_ports(f)]
    assert dispatched == [["case1"], ["case2"], ["case3"]]
    assert [pretty(e.term) for e in report.events] == [
        "AmbulanceRequest", "FireRequest", "PoliceRequest",
    ] * 3
    assert report.verdict.clean
    assert report.analysis.reachable_count == RESCUE_STATES
    assert report.analysis.deadlock_states == []


def test_enabled_bad_offer_is_filter_drop_only(rescue_circuit, rescue_auto):
    outs = rescue_circuit.outputs
    options = enabled(rescue_auto, rescue_auto.initial, {"citizens": "bad"}, outs)
    assert options
    for transition, assignment in options:
        assert "citizens" in transition.sync
        assert dict(assignment)["citizens"] == "bad"
        assert not [n for n in transition.sync if n.startswith("case")]


def test_bad_request_never_dispatches(rescue_auto):
    env = canned_env(["round 1: offer citizens=bad", "round 2: offer sensors=bad"])
    report = run(env=env, auto=rescue_auto, rounds=2)
    for firing in report.trace.firings():
        assert case_ports(firing) == []
        assert "citizens" in firing.sync or "sensors" in firing.sync
    assert len(report.trace.firings()) == 2  # drops are still firings


def test_withheld_ps_enable_blocks_police_only(rescue_auto):
    env = canned_env(
        [
            "round 1: offer citizens=ok",
            "round 2: offer act1=tick",
            "round 3: offer fs_enable=tick",
            "round 4: offer fs_enable=tick",
        ]
    )
    report = run(env=env, auto=rescue_auto, rounds=4)
    fired = [f.sync for f in report.trace.firings()]
    assert any("fire_alarm" in s for s in fired)
    assert not any("police_alarm" in s for s in fired)
    # the second consideration has no pending notification: stall
    assert report.trace.steps[3].__class__.__name__ == "Stall"


def test_alarm_order_witnesses(rescue_auto):
    fire_first = canned_env(
        [
            "round 1: offer citizens=ok",
            "round 2: offer act1=tick",
            "round 3: offer fs_enable=tick",
            "round 4: offer ps_enable=tick",
        ]
    )
    police_first = canned_env(
        [
            "round 1: offer citizens=ok",
            "round 2: offer act1=tick",
            "round 3: offer ps_enable=tick",
            "round 4: offer fs_enable=tick",
        ]
    )

    def first_alarm_order(env):
        report = run(env=env, auto=rescue_auto, rounds=4)
        out = []
        for f in report.trace.firings():
            for alarm in ("fire_alarm", "police_alarm"):
                if alarm in f.sync:
                    out.append(alarm)
        return out

    assert first_alarm_order(fire_first) == ["fire_alarm", "police_alarm"]
    assert first_alarm_order(police_first) == ["police_alarm", "fire_alarm"]


def test_police_before_fire_is_an_order_violation(rescue_auto):
    env = canned_env(
        [
            "round 1: offer citizens=ok",
            "round 2: offer act1=tick",
            "round 3: offer ps_enable=tick",
            "round 4: offer fs_enable=tick",
        ]
    )
    report = run(env=env, auto=rescue_auto, rounds=4)
    (violation,) = report.verdict.order_violations
    assert violation.atom == "PoliceRequest"
    assert violation.index == 2
    assert violation.expected == ("AmbulanceRequest", "FireRequest")


BUSY_ROUNDS = 30


def busy_env():
    lines = []
    for n in range(1, BUSY_ROUNDS + 1):
        token = "ok" if n % 4 else "bad"
        lines.append(
            f"round {n}: offer citizens={token}, sensors=ok, act1=tick, act2=tick,"
            " act3=tick, ps_enable=tick, fs_enable=tick"
        )
    return canned_env(lines)


def test_exclusive_dispatch_and_round_robin_over_seeds(rescue_auto):
    env = busy_env()
    for seed in range(50):
        trace = simulate(rescue_auto, env, seed=seed, circuit_name="rescue")
        dispatched = []
        ea_count = police_count = 0
        for f in trace.firings():
            data = dict(f.assignment)
            cases = case_ports(f)
            intake = [p for p in ("citizens", "sensors") if p in f.sync]
            approved = [p for p in intake if data[p] == "ok"]
            # every approved request is dispatched exactly once, atomically
            if approved:
                assert len(cases) == 1
            else:
                assert cases == []
            if cases:
                dispatched.append(cases[0])
            if "police_alarm" in f.sync:
                assert ea_count > police_count
                police_count += 1
            if "emergency_alarm" in f.sync:
                ea_count += 1
        expected = ["case1", "case2", "case3"] * (len(dispatched) // 3 + 1)
        assert dispatched == expected[: len(dispatched)]
        assert len(dispatched) >= 3


def test_end_to_end_compliance_demo(rescue_auto):
    extra = dsl.parse_events("HelicopterMission\n" * 3)
    report = run(extra=extra, auto=rescue_auto)
    warned = [pretty(t) for t in report.verdict.warnings]
    assert "Warning(P((Very)BudgetConsuming))" in warned
    assert report.verdict.failures == []
    extra2 = dsl.parse_events(
        "HelicopterMission\n" * 3 + "DoubleCheck(P((Very)BudgetConsuming))\n"
    )
    report2 = run(extra=extra2, auto=rescue_auto)
    resolved = [pretty(t) for t in report2.verdict.resolved]
    assert "Warning(P((Very)BudgetConsuming))" in resolved


def test_scenario_report_json_deterministic(rescue_auto):
    a = run(seed=5, auto=rescue_auto).to_json()
    b = run(seed=5, auto=rescue_auto).to_json()
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"trace", "events", "verdict", "analysis"}


def test_run_rescue_parses_the_shipped_circuit_at_most_once(rescue_auto):
    with mock.patch.object(dsl, "parse_circuit", wraps=dsl.parse_circuit) as parse:
        run(auto=rescue_auto)
        run(auto=rescue_auto)
    assert parse.call_count <= 1
