import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reokit import analysis as AN
from reokit import automata as A
from reokit import circuit as C
from reokit import sim
from reokit.dsl import parse_circuit

from util import (
    ALPHABET,
    BLOCKER_TEXT,
    SEQ3_TEXT,
    every_name,
    observable_traces,
    random_automaton,
    random_circuit,
    random_tame_circuit,
    traces_upto,
)


def sync_ab():
    return A.build_automaton(
        {"a", "b"}, ["q"], "q", [("q", {"a", "b"}, A.eq("a", "b"), "q")], ALPHABET
    )


def lossy_ab():
    return A.build_automaton(
        {"a", "b"},
        ["q"],
        "q",
        [("q", {"a", "b"}, A.eq("a", "b"), "q"), ("q", {"a"}, A.TRUE, "q")],
        ALPHABET,
    )


def test_reachable_counts():
    assert AN.reachable(sync_ab()) == {0}
    fifo = A.ca_of_channel(C.Channel("f", C.FIFO1, "x", "y"), ALPHABET)
    assert len(AN.reachable(fifo)) == 3
    unsat = A.ConstraintAutomaton(
        names=frozenset({"a"}),
        rows=((A.Transition(frozenset({"a"}), frozenset({("in", "a", ())}), 1),), ()),
        initial=0,
        alphabet=ALPHABET,
    )
    assert AN.reachable(unsat) == {0}


def test_deadlock_free_sync():
    assert AN.analyze(sync_ab()).deadlock_states == []


def test_blocker_has_one_deadlock():
    auto = A.compile_circuit(parse_circuit(BLOCKER_TEXT))
    assert len(AN.reachable(auto)) == 1
    assert AN.analyze(auto).deadlock_states == ["s0"]


def test_rescue_deadlock_free(rescue_auto):
    assert AN.analyze(rescue_auto)[1:] == ([], [])
    assert AN.reachable(rescue_auto) == set(range(rescue_auto.n_states))


def test_traces_upto_basics():
    assert traces_upto(sync_ab(), 0) == [()]
    one_letter = A.build_automaton(
        {"a", "b"}, ["q"], "q", [("q", {"a", "b"}, A.eq("a", "b"), "q")], frozenset({"ok"})
    )
    words = traces_upto(one_letter, 1)
    assert words == [
        (),
        ((("a", "b"), (("a", "ok"), ("b", "ok"))),),
    ]
    with pytest.raises(ValueError):
        traces_upto(sync_ab(), -1)


def test_traces_monotone_in_depth():
    rng = random.Random(11)
    for _ in range(15):
        auto = random_automaton(rng)
        for k in range(5):
            assert set(traces_upto(auto, k)) <= set(traces_upto(auto, k + 1))


def test_sequencer_traces_single_maximal_word():
    auto = A.compile_circuit(parse_circuit(SEQ3_TEXT))
    words = traces_upto(auto, 3)
    assert [w for w in words if len(w) == 3] == [
        (
            (("s1",), (("s1", "tick"),)),
            (("s2",), (("s2", "tick"),)),
            (("s3",), (("s3", "tick"),)),
        )
    ]


def test_bisimilar_basics():
    a = sync_ab()
    assert AN.bisimilar(a, a)
    assert not AN.bisimilar(a, lossy_ab())
    with pytest.raises(ValueError):
        AN.bisimilar(a, A.identity_automaton(ALPHABET))


def test_bisimilar_is_equivalence_on_pool():
    rng = random.Random(42)
    pool = [random_automaton(rng) for _ in range(20)]
    for auto in pool:
        assert AN.bisimilar(auto, auto)
    comparable = [
        (x, y)
        for x in pool
        for y in pool
        if x.names == y.names
    ]
    results = {}
    for x, y in comparable:
        results[(id(x), id(y))] = AN.bisimilar(x, y)
    for x, y in comparable:
        assert results[(id(x), id(y))] == results[(id(y), id(x))]
    for x in pool:
        for y in pool:
            for z in pool:
                if x.names == y.names == z.names:
                    if results[(id(x), id(y))] and results[(id(y), id(z))]:
                        assert results[(id(x), id(z))]


def test_bisimilar_implies_trace_equality():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        a, b = random_automaton(rng), random_automaton(rng)
        if a.names != b.names:
            continue
        checked += 1
        if AN.bisimilar(a, b):
            for k in range(6):
                assert traces_upto(a, k) == traces_upto(b, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_observable_traces_consistent_with_traces(seed):
    auto = random_automaton(random.Random(seed))
    assert observable_traces(auto, auto.names, 3) == traces_upto(auto, 3)


def test_hiding_preserves_observable_traces():
    # tame circuits keep the depth-6 word sets enumerable
    rng = random.Random(314)
    for _ in range(20):
        c, hidden = random_tame_circuit(rng)
        autos = A.circuit_automata(c)
        full = A.join_many(autos, every_name(autos))
        ports = frozenset(p.name for p in c.ports)
        assert observable_traces(full, ports, 6) == traces_upto(hidden, 6)


def test_analysis_report_render_and_json():
    report = AN.analyze(sync_ab())
    assert report.reachable_count == 1
    assert "no deadlocks" in report.render()
    assert '"deadlocks"' in report.to_json()
    assert report.dead_ports == []
    assert "dead_ports" not in report.to_dict() and "dead ports" not in report.render()


def _random_env(rng, auto, alphabet, rounds):
    outs = sorted(auto.names - auto.inputs)
    ins = sorted(auto.inputs)
    return sim.EnvScript(
        {
            n: sim.Round(
                tuple((p, rng.choice(alphabet)) for p in ins if rng.random() < 0.7),
                frozenset(p for p in outs if rng.random() < 0.7),
            )
            for n in range(1, rounds + 1)
        },
        frozenset(outs),
    )


def test_dead_ports_never_fire_in_simulation():
    rng = random.Random(29)
    env_rng = random.Random(30)
    draws_with_dead = 0
    fired_total = 0
    for _ in range(60):
        c = random_circuit(rng)
        auto = A.compile_circuit(c)
        dead = set(AN.analyze(auto).dead_ports)
        draws_with_dead += bool(dead)
        for seed in range(3):
            env = _random_env(env_rng, auto, sorted(c.alphabet), 20)
            for firing in sim.simulate(auto, env, seed).firings():
                assert not firing.sync & dead, (sorted(firing.sync & dead), c)
                fired_total += 1
    # the draws hold dead ports and live ones, so the check is not vacuous
    assert draws_with_dead > 5 and fired_total > 500
