import dataclasses
import itertools
import json
import random

import pytest

from reokit import automata as A
from reokit import dsl, rescue
from reokit import sim

from util import ALPHABET, LOSSY_TEXT, MERGER_TEXT, MINIMAL_SYNC_TEXT, random_circuit


def compiled(text):
    c = dsl.parse_circuit(text)
    return c, A.compile_circuit(c)


def env_lines(text, circuit=None):
    return dsl.parse_env(text, circuit)


def test_enabled_sync_requires_offer_and_ready():
    _, auto = compiled(MINIMAL_SYNC_TEXT)
    pairs = sim.enabled(auto, auto.initial, {"a": "ok"}, frozenset({"b"}))
    assert len(pairs) == 1
    _, assignment = pairs[0]
    assert assignment == {"a": "ok", "b": "ok"}
    assert sim.enabled(auto, auto.initial, {"a": "ok"}, frozenset()) == []
    assert sim.enabled(auto, auto.initial, {}, frozenset({"b"})) == []


def enabled_oracle(auto, state, offers, ready):
    """``enabled`` by definition: every alphabet product over each sync-set
    that satisfies the guard, is offered or ready, and agrees with the
    offers; transitions in ``sort_key`` order, assignments in value order."""
    out = []
    for t in sorted(auto.outgoing(state), key=A.Transition.sort_key):
        ports = sorted(t.sync)
        for values in itertools.product(sorted(auto.alphabet), repeat=len(ports)):
            assignment = dict(zip(ports, values))
            if t.guard.holds(assignment) and all(
                offers[n] == v if n in offers else n in ready
                for n, v in assignment.items()
            ):
                out.append((t, assignment))
    return out


def test_enabled_matches_brute_force_oracle():
    # compiled automata are sorted, join_many products are not; offers draw
    # values the guards forbid and one outside the alphabet
    rng = random.Random(2024)
    unsorted_states = forbidden_offers = 0
    for _ in range(12):
        c = random_circuit(rng, max_extra=3)
        for auto in (A.compile_circuit(c), A.join_many(A.circuit_automata(c))):
            values = sorted(auto.alphabet) + ["elsewhere"]
            names = sorted(auto.names)
            for state in range(auto.n_states):
                out = list(auto.outgoing(state))
                unsorted_states += out != sorted(out, key=A.Transition.sort_key)
                for _ in range(4):
                    offers = {n: rng.choice(values) for n in names if rng.random() < 0.5}
                    ready = frozenset(n for n in names if rng.random() < 0.6)
                    expected = enabled_oracle(auto, state, offers, ready)
                    assert sim.enabled(auto, state, offers, ready) == expected
                    unpinned = enabled_oracle(auto, state, {}, ready | offers.keys())
                    forbidden_offers += len(unpinned) > len(expected)
    assert unsorted_states and forbidden_offers


def test_simulate_expands_each_state_once(rescue_auto, monkeypatch):
    # the guards are enumerated once per transition, not once per round
    auto = dataclasses.replace(rescue_auto)  # no expansion cached yet
    calls = []
    real = A.sat_assignments

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(A, "sat_assignments", counting)
    monkeypatch.setattr(sim, "sat_assignments", counting, raising=False)
    rng = random.Random(6)
    values = sorted(auto.alphabet)
    env = sim.EnvScript(
        tuple(
            (n, sim.Round(tuple((p, rng.choice(values)) for p in sorted(auto.inputs)
                                if rng.random() < 0.6)))
            for n in range(1, 2001)
        )
    )
    trace = sim.simulate(auto, env, sim.SimConfig(seed=6), "rescue")
    assert len(trace.firings()) > 500
    assert 0 < len(calls) <= len(auto.transitions)


def test_step_stall_and_singleton():
    _, auto = compiled(MINIMAL_SYNC_TEXT)
    rng = random.Random(0)
    outcome = sim.step(auto, auto.initial, 1, {}, frozenset(), rng)
    assert isinstance(outcome, sim.Stall)
    for seed in range(10):
        outcome = sim.step(
            auto, auto.initial, 1, {"a": "ok"}, frozenset({"b"}), sim.round_rng(seed, 1)
        )
        assert isinstance(outcome, sim.Firing)
        assert outcome.sync == frozenset({"a", "b"})


def test_step_uniform_tie_break_on_lossy():
    _, auto = compiled(LOSSY_TEXT)
    passes = 0
    for seed in range(100):
        outcome = sim.step(
            auto, auto.initial, 1, {"a": "ok"}, frozenset({"b"}), sim.round_rng(seed, 1)
        )
        assert isinstance(outcome, sim.Firing)
        if "b" in outcome.sync:
            passes += 1
    assert 35 <= passes <= 65  # 0.5 +/- 0.15


def test_merger_sees_both_alternatives():
    _, auto = compiled(MERGER_TEXT)
    seen = set()
    for seed in range(40):
        outcome = sim.step(
            auto,
            auto.initial,
            1,
            {"a1": "ok", "a2": "ok"},
            frozenset({"b"}),
            sim.round_rng(seed, 1),
        )
        seen.add(tuple(sorted(outcome.sync)))
    assert seen == {("a1", "b"), ("a2", "b")}


def test_simulate_three_rounds_and_empty():
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines(
        "round 1: offer a=ok\nround 2: offer a=ok\nround 3: offer a=ok", c
    )
    trace = sim.simulate(auto, env, sim.SimConfig(seed=1), c.name)
    assert len(trace.steps) == 3
    assert all(isinstance(s, sim.Firing) for s in trace.steps)
    assert all(s.sync == frozenset({"a", "b"}) for s in trace.steps)
    empty = sim.simulate(auto, env, sim.SimConfig(seed=1, max_rounds=0), c.name)
    assert empty.steps == []
    with pytest.raises(ValueError, match="round cap"):
        sim.SimConfig(seed=1, max_rounds=-1)


def test_simulate_records_stalls_in_place():
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines("round 1: offer a=ok\nround 3: offer a=ok", c)
    trace = sim.simulate(auto, env, sim.SimConfig(seed=0), c.name)
    kinds = [type(s).__name__ for s in trace.steps]
    assert kinds == ["Firing", "Stall", "Firing"]
    assert trace.steps[1].round == 2
    outs = c.outputs
    # sparse script: unlisted rounds stall under either policy, and an
    # explicit ready clause overrides the policy only in its own round
    text = "round 1: offer a=ok\nround 5: offer a=ok; ready b\nround 10000: offer a=ok"
    for policy, fired in (("all-ready", [1, 5, 10000]), ("closed", [5])):
        env = env_lines(f"policy {policy}\n{text}", c)
        assert len(env) == 10000
        assert env.round(7, outs) == ({}, outs if policy == "all-ready" else frozenset())
        trace = sim.simulate(auto, env, sim.SimConfig(seed=0), c.name)
        assert len(trace.steps) == 10000
        assert [f.round for f in trace.firings()] == fired
    # a script built by hand may list a round twice: the first listing wins
    twice = sim.EnvScript(rounds=((2, sim.Round(offers=(("a", "ok"),))), (2, sim.Round())))
    assert twice.round(2, outs) == ({"a": "ok"}, outs)


def test_simulate_unknown_port_rejected_before_round_one():
    # direction comes from the automaton: a is its input, b its output
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    assert (auto.inputs, auto.names - auto.inputs) == ({"a"}, {"b"})
    bad_rounds = [
        sim.Round(offers=(("zz", "ok"),)),
        sim.Round(offers=(("b", "ok"),)),
        sim.Round(ready=frozenset({"zz"}), explicit_ready=True),
        sim.Round(ready=frozenset({"a"}), explicit_ready=True),
    ]
    for bad in bad_rounds:
        env = sim.EnvScript(rounds=((1, sim.Round()), (2, bad)))
        with pytest.raises(sim.EnvMismatchError):
            sim.simulate(auto, env, sim.SimConfig(), c.name)


def test_simulate_deterministic_across_runs():
    # 20 seeds x 5 circuits, byte-identical traces on repeat
    rng = random.Random(1234)
    subjects = [dsl.parse_circuit(LOSSY_TEXT)]
    subjects += [random_circuit(rng, max_extra=2) for _ in range(4)]
    for c in subjects:
        auto = A.compile_circuit(c)
        offers = ", ".join(f"{p}=ok" for p in sorted(c.inputs))
        env = env_lines("\n".join(f"round {n}: offer {offers}" for n in range(1, 9)), c)
        for seed in range(20):
            t1 = sim.simulate(auto, env, sim.SimConfig(seed=seed), c.name)
            t2 = sim.simulate(auto, env, sim.SimConfig(seed=seed), c.name)
            assert t1.to_json() == t2.to_json()


def test_firings_are_sound_and_chain():
    c, auto = compiled(LOSSY_TEXT)
    env = env_lines("\n".join(f"round {n}: offer a=ok" for n in range(1, 9)), c)
    trace = sim.simulate(auto, env, sim.SimConfig(seed=3), c.name)
    state = auto.initial
    for stp in trace.steps:
        if isinstance(stp, sim.Stall):
            continue
        assert stp.state_before == state
        offers, ready = env.round(stp.round, c.outputs)
        options = sim.enabled(auto, state, offers, ready)
        assert (stp.sync, dict(stp.assignment)) in [
            (t.sync, a) for t, a in options
        ]
        state = stp.state_after


def test_trace_json_roundtrip():
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines("round 1: offer a=ok\nround 3: offer a=ok", c)
    trace = sim.simulate(auto, env, sim.SimConfig(seed=0), c.name)
    text = trace.to_json()
    back = sim.trace_from_json(text)
    assert back.circuit == c.name
    assert [type(s).__name__ for s in back.steps] == [
        type(s).__name__ for s in trace.steps
    ]
    fir = back.firings()[0]
    assert fir.sync == frozenset({"a", "b"})
    assert dict(fir.assignment) == {"a": "ok", "b": "ok"}
    assert back == trace


def test_trace_roundtrip_is_exact(rescue_auto):
    # states, sync-sets, data, rounds and stalls all come back as written:
    # the rescue canned environment, then random circuits under random offers
    trace = sim.simulate(rescue_auto, rescue.builtin_env(), sim.SimConfig(seed=0), "rescue")
    assert {f.state_after for f in trace.firings()} - {0}
    text = trace.to_json()
    # states are written sN, as compile --json names them
    written = [(r["from"], r["to"]) for r in json.loads(text)["rounds"] if r["kind"] == "firing"]
    assert written == [(f"s{f.state_before}", f"s{f.state_after}") for f in trace.firings()]
    assert sim.trace_from_json(text) == trace
    rng = random.Random(4321)
    for seed in range(8):
        c = random_circuit(rng, max_extra=2)
        auto = A.compile_circuit(c)
        lines = []
        for n in range(1, 13):
            offered = [p for p in sorted(c.inputs) if rng.random() < 0.7]
            picks = ", ".join(f"{p}={rng.choice(sorted(ALPHABET))}" for p in offered)
            lines.append(f"round {n}: offer {picks}" if picks else f"round {n}:")
        env = env_lines("\n".join(lines), c)
        trace = sim.simulate(auto, env, sim.SimConfig(seed=seed), c.name)
        assert len(trace.steps) == 12
        assert sim.trace_from_json(trace.to_json()) == trace, seed
