"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every expected value is either hand-derived, produced by an
independent oracle in this file or utils, or pinned from a first oracle
run (noted inline).
"""

import random

from reokit import analysis as AN
from reokit import automata as A
from reokit import circuit as C
from reokit import dsl, rescue
from reokit.semlog import (
    Atom,
    ComplianceEngine,
    Count,
    DoubleCheck,
    Forbidden,
    Implies,
    P,
    Very,
    Warning,
    pretty,
)
from reokit.sim import simulate

from util import (
    ALPHABET,
    SEQ3_TEXT,
    observable_traces,
    random_automaton,
    random_circuit,
    random_tame_circuit,
    traces_upto,
)

BUDGET = Atom("BudgetConsuming")
HELI = Atom("HelicopterMission")


def rescue_engine():
    return ComplianceEngine(rescue.builtin_rules())


def _ok(n, message):
    print(f"PASS criterion {n}: {message}")


# -- 1. channel semantics against hand-written automata ----------------------


def transition_set(auto):
    return {
        (src, tuple(sorted(t.sync)), tuple(sorted(t.guard)), t.dst)
        for src, row in enumerate(auto.rows)
        for t in row
    }


def test_criterion_1_channel_semantics_oracle():
    # states are numbered in build_automaton's listing order: a stateless
    # channel has the one state 0; fifo1 has 0 = empty, 1 = full(bad),
    # 2 = full(ok)
    a, b = "c.a", "c.b"
    eq_ab = ("eq", a, b)
    expected = {
        "sync": (1, 0, {(0, (a, b), (eq_ab,), 0)}),
        "lossysync": (
            1,
            0,
            {(0, (a, b), (eq_ab,), 0), (0, (a,), (), 0)},
        ),
        "syncdrain": (1, 0, {(0, (a, b), (), 0)}),
        "asyncdrain": (
            1,
            0,
            {(0, (a,), (), 0), (0, (b,), (), 0)},
        ),
        "filter": (
            1,
            0,
            {
                (0, (a, b), (("const", a, "ok"), eq_ab), 0),
                (0, (a,), (("const", a, "bad"),), 0),
            },
        ),
        "transform": (
            1,
            0,
            {
                (0, (a, b), (("const", a, "bad"), ("const", b, "ok")), 0),
                (0, (a, b), (("const", a, "ok"), ("const", b, "bad")), 0),
            },
        ),
        "fifo1": (
            3,
            0,
            {
                (0, (a,), (("const", a, "bad"),), 1),
                (0, (a,), (("const", a, "ok"),), 2),
                (1, (b,), (("const", b, "bad"),), 0),
                (2, (b,), (("const", b, "ok"),), 0),
            },
        ),
    }
    swap = (("bad", "ok"), ("ok", "bad"))
    channels = {
        "sync": C.Channel("c", C.SYNC, "x", "y"),
        "lossysync": C.Channel("c", C.LOSSY_SYNC, "x", "y"),
        "syncdrain": C.Channel("c", C.SYNC_DRAIN, "x", "y"),
        "asyncdrain": C.Channel("c", C.ASYNC_DRAIN, "x", "y"),
        "filter": C.Channel("c", C.FILTER, "x", "y", accept=frozenset({"ok"})),
        "transform": C.Channel("c", C.TRANSFORM, "x", "y", transform=swap),
        "fifo1": C.Channel("c", C.FIFO1, "x", "y"),
    }
    for kind, (n_states, initial, transitions) in expected.items():
        auto = A.ca_of_channel(channels[kind], ALPHABET)
        assert auto.n_states == n_states, kind
        assert auto.initial == initial, kind
        assert transition_set(auto) == transitions, kind
        assert auto.names == frozenset({"c.a", "c.b"}), kind
    _ok(1, "all 7 channel kinds match their hand-written automata")


# -- 2. product algebra --------------------------------------------------------


def test_criterion_2_product_algebra():
    rng = random.Random(20260202)
    ident = A.identity_automaton(ALPHABET)
    for _ in range(50):
        x, y, z = (random_automaton(rng) for _ in range(3))
        assert AN.bisimilar(A.join(x, y), A.join(y, x))
        assert AN.bisimilar(A.join(A.join(x, y), z), A.join(x, A.join(y, z)))
        assert AN.bisimilar(A.join(x, ident), x)
    _ok(2, "join commutative + associative up to bisimilarity on 50 triples; identity neutral")


# -- 3. hiding correctness ------------------------------------------------------


def test_criterion_3_hiding_correctness():
    rng = random.Random(30303)
    for _ in range(20):
        c, hidden = random_tame_circuit(rng)
        full = A.join_many(A.circuit_automata(c))
        ports = frozenset(p.name for p in c.ports)
        assert observable_traces(full, ports, 6) == traces_upto(hidden, 6)
    sync_ab = A.build_automaton(
        {"a", "b"}, ["q"], "q", [("q", {"a", "b"}, A.eq("a", "b"), "q")], ALPHABET
    )
    sync_bc = A.build_automaton(
        {"b", "c"}, ["q"], "q", [("q", {"b", "c"}, A.eq("b", "c"), "q")], ALPHABET
    )
    sync_ac = A.build_automaton(
        {"a", "c"}, ["q"], "q", [("q", {"a", "c"}, A.eq("a", "c"), "q")], ALPHABET
    )
    assert AN.bisimilar(A.hide(A.join(sync_ab, sync_bc), {"b"}), sync_ac)
    _ok(3, "depth-6 boundary traces unchanged by hiding on 20 circuits; sync-join-hide law")


# -- 4. sequencer law -----------------------------------------------------------


def test_criterion_4_sequencer_law():
    auto = A.compile_circuit(dsl.parse_circuit(SEQ3_TEXT))
    cycle = [("s1",), ("s2",), ("s3",)]
    for depth in range(1, 10):
        expected = [
            tuple(
                (cycle[i % 3], ((cycle[i % 3][0], "tick"),))
                for i in range(length)
            )
            for length in range(depth + 1)
        ]
        assert traces_upto(auto, depth) == sorted(expected)
    _ok(4, "sequencer-3 admits exactly the cyclic word s1.s2.s3 at depths 1-9")


# -- 5. rescue behavior ----------------------------------------------------------


def test_criterion_5_rescue_behavior(rescue_circuit, rescue_auto):
    env = rescue.builtin_env()

    def case_ports(f):
        return [n for n in sorted(f.sync) if n.startswith("case")]

    for seed in range(50):
        trace = simulate(rescue_auto, env, seed=seed, circuit_name="rescue")
        dispatched = [case_ports(f)[0] for f in trace.firings() if case_ports(f)]
        assert dispatched == ["case1", "case2", "case3"]
        ea = police = 0
        for f in trace.firings():
            offers = dict(env.round(f.round).offers)
            if "police_alarm" in f.sync:
                assert "ps_enable" in offers
                assert ea > police
                police += 1
            if "emergency_alarm" in f.sync:
                ea += 1

    bad_env = dsl.parse_env(
        "policy all-ready\nround 1: offer citizens=bad\nround 2: offer sensors=bad",
        rescue_circuit,
    )
    for seed in range(50):
        trace = simulate(rescue_auto, bad_env, seed=seed, circuit_name="rescue")
        assert all(not case_ports(f) for f in trace.firings())

    def alarm_order(lines):
        env = dsl.parse_env("policy all-ready\n" + "\n".join(lines), rescue_circuit)
        trace = simulate(rescue_auto, env, seed=0, circuit_name="rescue")
        return [
            alarm
            for f in trace.firings()
            for alarm in ("fire_alarm", "police_alarm")
            if alarm in f.sync
        ]

    base = ["round 1: offer citizens=ok", "round 2: offer act1=tick"]
    assert alarm_order(base + ["round 3: offer fs_enable=tick", "round 4: offer ps_enable=tick"]) == [
        "fire_alarm", "police_alarm",
    ]
    assert alarm_order(base + ["round 3: offer ps_enable=tick", "round 4: offer fs_enable=tick"]) == [
        "police_alarm", "fire_alarm",
    ]
    _ok(5, "50-seed dispatch/round-robin/filter/gating laws; both alarm orders witnessed")


# -- 6. compliance chain ----------------------------------------------------------


def test_criterion_6_compliance_chain():
    eng = rescue_engine()
    for _ in range(3):
        eng.ingest(HELI)
    eng.saturate()
    for fact in (Count(3, BUDGET), P(Very(BUDGET)), Warning(P(Very(BUDGET)))):
        assert fact in eng.facts, pretty(fact)

    two = rescue_engine()
    two.ingest(HELI)
    two.ingest(HELI)
    assert two.verdict().warnings == []

    eng.ingest(DoubleCheck(P(Very(BUDGET))))
    verdict = eng.verdict()
    assert [pretty(t) for t in verdict.resolved] == [
        "Warning(P((Very)BudgetConsuming))"
    ]

    eng.ingest(Very(BUDGET))
    verdict = eng.verdict()
    assert [pretty(t) for t in verdict.failures] == ["Failure((Very)BudgetConsuming)"]

    r13 = rescue_engine()
    r13.add_fact(Implies(HELI, BUDGET))
    r13.add_fact(P(HELI))
    r13.saturate()
    assert P(BUDGET) in r13.facts

    r14 = rescue_engine()
    r14.add_fact(Very(P(Atom("x"))))
    r14.saturate()
    assert P(Very(Atom("x"))) in r14.facts

    r15 = rescue_engine()
    r15.add_fact(P(P(Atom("x"))))
    r15.saturate()
    assert P(Atom("x")) in r15.facts
    _ok(6, "3-mission warning chain, 2-mission negative, resolution, failure, rules 13/14/15")


# -- 7. order checking -------------------------------------------------------------


def test_criterion_7_order_checking():
    clean = rescue_engine()
    for name in ("AmbulanceRequest", "FireRequest", "PoliceRequest"):
        clean.ingest(Atom(name))
    assert clean.verdict().order_violations == []

    bad = rescue_engine()
    for name in ("PoliceRequest", "AmbulanceRequest", "FireRequest"):
        bad.ingest(Atom(name))
    violations = bad.verdict().order_violations
    assert len(violations) == 1
    assert violations[0].index == 1
    assert violations[0].atom == "PoliceRequest"
    assert violations[0].expected == ("AmbulanceRequest",)
    _ok(7, "prefix discipline: in-order stream clean, police-first flagged at index 1")


# -- 8. determinism ------------------------------------------------------------------


def test_criterion_8_determinism(rescue_circuit, rescue_auto):
    lines = [
        f"round {n}: offer citizens=ok, sensors=ok, act1=tick, act2=tick,"
        " act3=tick, ps_enable=tick, fs_enable=tick"
        for n in range(1, 13)
    ]
    env = dsl.parse_env("policy all-ready\n" + "\n".join(lines), rescue_circuit)
    for seed in range(20):
        first = simulate(rescue_auto, env, seed=seed, circuit_name="rescue")
        second = simulate(rescue_auto, env, seed=seed, circuit_name="rescue")
        assert first.to_json() == second.to_json()

    stream = [HELI, Atom("FireRequest"), HELI, Very(BUDGET), HELI]
    batched = rescue_engine()
    for t in stream:
        batched.ingest(t)
    stepped = rescue_engine()
    for t in stream:
        stepped.ingest(t)
        stepped.saturate()
    batched.saturate()
    stepped.saturate()
    assert batched.sorted_facts() == stepped.sorted_facts()
    rerun = rescue_engine()
    for t in stream:
        rerun.ingest(t)
    rerun.saturate()
    assert rerun.sorted_facts() == batched.sorted_facts()

    rng = random.Random(88)
    for _ in range(200):
        c = random_circuit(rng)
        text = dsl.print_circuit(c)
        again = dsl.parse_circuit(text)
        assert dsl.print_circuit(again) == text
        assert again.alphabet == c.alphabet
        assert {(p.name, p.kind) for p in again.ports} == {
            (p.name, p.kind) for p in c.ports
        }
        def signature(ch):
            accept = None if ch.accept is None else tuple(sorted(ch.accept))
            return repr((ch.kind, ch.end_a, ch.end_b, ch.init, accept, ch.transform))

        assert sorted(map(signature, again.channels)) == sorted(
            map(signature, c.channels)
        )
    _ok(8, "byte-identical traces over 20 seeds; saturation batch-independent; 200 round-trips")


# -- 9. convergence -------------------------------------------------------------------


def test_criterion_9_convergence():
    atoms = [
        "AmbulanceRequest",
        "FireRequest",
        "PoliceRequest",
        "HelicopterMission",
        "BudgetConsuming",
    ]
    rng = random.Random(999)
    for _ in range(200):
        eng = ComplianceEngine(rescue.builtin_rules(), max_depth=8, max_iterations=10000)
        for _ in range(rng.randint(0, 20)):
            eng.ingest(Atom(rng.choice(atoms)))
        result = eng.saturate()
        assert result.converged
    _ok(9, "rescue rulebase saturates on 200 random event streams (length <= 20)")
