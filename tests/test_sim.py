import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reokit import automata as A
from reokit import dsl, rescue
from reokit import sim

from util import (
    ALPHABET,
    LOSSY_TEXT,
    MERGER_TEXT,
    MINIMAL_SYNC_TEXT,
    SEQ3_TEXT,
    holds,
    random_circuit,
    random_rescue_env,
)


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
    assert assignment == (("a", "ok"), ("b", "ok"))
    assert sim.enabled(auto, auto.initial, {"a": "ok"}, frozenset()) == []
    assert sim.enabled(auto, auto.initial, {}, frozenset({"b"})) == []


def enabled_oracle(auto, state, offers, ready):
    """``enabled`` by definition: every alphabet product over each sync-set
    that satisfies the guard, is offered or ready, and agrees with the
    offers; transitions in ``sort_key`` order, assignments in value order,
    each as its sorted ``(name, value)`` tuple."""
    out = []
    for t in sorted(auto.rows[state], key=A.Transition.sort_key):
        ports = sorted(t.sync)
        for values in itertools.product(sorted(auto.alphabet), repeat=len(ports)):
            assignment = dict(zip(ports, values))
            if holds(t.guard, assignment) and all(
                offers[n] == v if n in offers else n in ready
                for n, v in assignment.items()
            ):
                out.append((t, tuple(sorted(assignment.items()))))
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
                out = list(auto.rows[state])
                unsorted_states += out != sorted(out, key=A.Transition.sort_key)
                for _ in range(4):
                    offers = {n: rng.choice(values) for n in names if rng.random() < 0.5}
                    ready = frozenset(n for n in names if rng.random() < 0.6)
                    expected = enabled_oracle(auto, state, offers, ready)
                    assert sim.enabled(auto, state, offers, ready) == expected
                    # the second call reads the offer memo the first one filled
                    assert sim.enabled(auto, state, offers, ready) == expected
                    unpinned = enabled_oracle(auto, state, {}, ready | offers.keys())
                    forbidden_offers += len(unpinned) > len(expected)
    assert unsorted_states and forbidden_offers


def test_simulate_expands_each_state_once(rescue_auto, monkeypatch):
    # the guards are enumerated once per sync-set and guard, not once per
    # transition or per round
    auto = rescue_auto._replace()  # no expansion cached yet
    calls = []
    real = A.sat_assignments

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(A, "sat_assignments", counting)
    monkeypatch.setattr(sim, "sat_assignments", counting, raising=False)
    rng = random.Random(6)
    values = sorted(auto.alphabet)
    outs = auto.names - auto.inputs
    env = sim.EnvScript(
        {
            n: sim.Round(tuple((p, rng.choice(values)) for p in sorted(auto.inputs)
                               if rng.random() < 0.6), outs)
            for n in range(1, 2001)
        },
        outs,
    )
    trace = sim.simulate(auto, env, seed=6, circuit_name="rescue")
    assert len(trace.firings()) > 500
    assert 0 < len(calls) <= len({(t.sync, t.guard) for t in auto.transitions})


def test_step_stall_and_singleton():
    _, auto = compiled(MINIMAL_SYNC_TEXT)
    outcome = sim.step(auto, auto.initial, 1, {}, frozenset(), 0)
    assert isinstance(outcome, sim.Stall)
    for seed in range(10):
        outcome = sim.step(auto, auto.initial, 1, {"a": "ok"}, frozenset({"b"}), seed)
        assert isinstance(outcome, sim.Firing)
        assert outcome.sync == frozenset({"a", "b"})


def simulate_oracle(auto, env, seed=0, rounds=None, circuit_name=""):
    """``simulate`` by definition: ``step`` folded over every round."""
    trace = sim.Trace(circuit_name, seed, [])
    state = auto.initial
    last = len(env) if rounds is None else min(len(env), rounds)
    for n in range(1, last + 1):
        offers, ready = env.round(n)
        outcome = sim.step(auto, state, n, dict(offers), ready, seed)
        trace.steps.append(outcome)
        if isinstance(outcome, sim.Firing):
            state = outcome.state_after
    return trace


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_simulate_skips_a_run_of_unlisted_stalls(monkeypatch):
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    for policy, fired in (("all-ready", [50000]), ("closed", [])):
        env = env_lines(f"policy {policy}\nround 50000: offer a=ok", c)
        expected = simulate_oracle(auto, env, 2, None, c.name)
        with monkeypatch.context() as patch:
            calls = counting(patch, sim, "enabled")
            trace = sim.simulate(auto, env, 2, None, c.name)
        assert len(calls) <= 3
        assert trace == expected
        assert len(trace.steps) == 50000
        assert [f.round for f in trace.firings()] == fired
        capped = sim.simulate(auto, env, 2, 700, c.name)
        assert capped == simulate_oracle(auto, env, 2, 700, c.name)


def test_simulate_agrees_with_stepping_every_round():
    # sparse scripts over random circuits, both policies, a round cap, and
    # scripts built by hand out of order; seq3 needs no offers, so under
    # all-ready its unlisted rounds fire
    rng = random.Random(77)
    subjects = [dsl.parse_circuit(SEQ3_TEXT)] + [random_circuit(rng, max_extra=3) for _ in range(30)]
    unlisted_firings = 0
    for c in subjects:
        auto = A.compile_circuit(c)
        values = sorted(c.alphabet)
        for idle in (c.outputs, frozenset()):  # all-ready, closed
            listed = rng.sample(range(1, 61), rng.randint(1, 8))
            rounds = {}
            for n in listed:
                offers = tuple(
                    (p, rng.choice(values)) for p in sorted(c.inputs) if rng.random() < 0.7
                )
                ready = frozenset(p for p in sorted(c.outputs) if rng.random() < 0.5)
                rounds[n] = sim.Round(offers, ready if rng.random() < 0.5 else idle)
            env = sim.EnvScript(rounds, idle)
            for seed, cap in ((rng.randrange(100), None), (0, rng.randint(0, 60))):
                trace = sim.simulate(auto, env, seed, cap, c.name)
                assert trace == simulate_oracle(auto, env, seed, cap, c.name), (c, env, seed, cap)
                unlisted_firings += sum(f.round not in listed for f in trace.firings())
    assert unlisted_firings


def test_round_generator_only_for_a_choice(rescue_auto, monkeypatch):
    env = random_rescue_env(rescue_auto, 3, rounds=300)
    calls = counting(monkeypatch, sim, "round_pick")
    trace = sim.simulate(rescue_auto, env, seed=3, circuit_name="rescue")
    state, choices = rescue_auto.initial, 0
    for outcome in trace.steps:
        offers, ready = env.round(outcome.round)
        choices += len(enabled_oracle(rescue_auto, state, dict(offers), ready)) > 1
        if isinstance(outcome, sim.Firing):
            state = outcome.state_after
    assert [n for _, n, _ in calls] == sorted(n for _, n, _ in calls)
    assert len(calls) == choices > 50
    # sync(a, b) never has two options: a stall or a single firing
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines("\n".join(f"round {n}: offer a=ok" for n in range(1, 40, 2)), c)
    calls.clear()
    trace = sim.simulate(auto, env, seed=3, circuit_name=c.name)
    assert len(trace.firings()) == 20 and len(trace.steps) == 39
    assert calls == []


def test_step_uniform_tie_break_on_lossy():
    _, auto = compiled(LOSSY_TEXT)
    passes = 0
    for seed in range(100):
        outcome = sim.step(auto, auto.initial, 1, {"a": "ok"}, frozenset({"b"}), seed)
        assert isinstance(outcome, sim.Firing)
        if "b" in outcome.sync:
            passes += 1
    assert 35 <= passes <= 65  # 0.5 +/- 0.15


# round_pick(seed, round, k) for a few arguments, the last seed past 32 bits
ROUND_PICKS = {
    (0, 1, 2): 1,
    (0, 2, 2): 1,
    (5, 17, 3): 0,
    (5, 4106, 7): 5,
    (7, 12000, 10): 4,
    (123456, 1, 1000): 956,
    (2**40, 99, 5): 4,
}

_PICK_SCRIPT = """
from reokit.sim import round_pick
for args in %r:
    print(*args, round_pick(*args))
""" % (list(ROUND_PICKS),)


def test_round_pick_is_pinned_across_processes():
    for args, pick in ROUND_PICKS.items():
        assert sim.round_pick(*args) == pick, args
    expected = "".join(f"{s} {n} {k} {pick}\n" for (s, n, k), pick in ROUND_PICKS.items())
    src = Path(__file__).resolve().parent.parent / "src"
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", _PICK_SCRIPT],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert result.stdout == expected, hash_seed


def test_round_pick_spreads_evenly():
    # 30,000 rounds over 3 options: each residue 10,000 +/- 300, which is
    # more than 3.5 standard deviations (81.6) of a uniform draw
    for seed in (0, 5):
        tally = [0, 0, 0]
        for n in range(1, 30001):
            tally[sim.round_pick(seed, n, 3)] += 1
        assert all(abs(t - 10000) <= 300 for t in tally), (seed, tally)


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
            seed,
        )
        seen.add(tuple(sorted(outcome.sync)))
    assert seen == {("a1", "b"), ("a2", "b")}


def test_simulate_three_rounds_and_empty():
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines(
        "round 1: offer a=ok\nround 2: offer a=ok\nround 3: offer a=ok", c
    )
    trace = sim.simulate(auto, env, seed=1, circuit_name=c.name)
    assert len(trace.steps) == 3
    assert all(isinstance(s, sim.Firing) for s in trace.steps)
    assert all(s.sync == frozenset({"a", "b"}) for s in trace.steps)
    empty = sim.simulate(auto, env, seed=1, rounds=0, circuit_name=c.name)
    assert empty.steps == []
    with pytest.raises(ValueError, match="round cap must be >= 0, got -1"):
        sim.simulate(auto, env, seed=1, rounds=-1, circuit_name=c.name)


def test_simulate_records_stalls_in_place():
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines("round 1: offer a=ok\nround 3: offer a=ok", c)
    trace = sim.simulate(auto, env, seed=0, circuit_name=c.name)
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
        assert env.round(7) == ((), outs if policy == "all-ready" else frozenset())
        trace = sim.simulate(auto, env, seed=0, circuit_name=c.name)
        assert len(trace.steps) == 10000
        assert [f.round for f in trace.firings()] == fired


def test_a_round_given_ready_ports_makes_them_ready():
    # a listed Round's ready ports are the round's readiness, and an empty
    # set readies nothing, whatever the unlisted rounds ready
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    offer = (("a", "ok"),)
    for idle in (frozenset(), c.outputs):
        for ready, fired in ((frozenset({"b"}), [1]), (frozenset(), [])):
            env = sim.EnvScript({1: sim.Round(offer, ready)}, idle)
            assert env.round(1) == (offer, ready)
            trace = sim.simulate(auto, env, circuit_name=c.name)
            assert [f.round for f in trace.firings()] == fired, (idle, ready)


def test_simulate_unknown_port_rejected_before_round_one():
    # direction comes from the automaton: a is its input, b its output
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    assert (auto.inputs, auto.names - auto.inputs) == ({"a"}, {"b"})
    bad_rounds = [
        sim.Round((("zz", "ok"),), frozenset()),
        sim.Round((("b", "ok"),), frozenset()),
        sim.Round((), frozenset({"zz"})),
        sim.Round((), frozenset({"a"})),
        # a value outside the alphabet, in either case
        sim.Round((("a", "OK"),), frozenset({"b"})),
        sim.Round((("a", "elsewhere"),), frozenset()),
    ]
    for bad in bad_rounds:
        env = sim.EnvScript({1: sim.Round((), frozenset()), 2: bad}, frozenset())
        with pytest.raises(sim.EnvMismatchError):
            sim.simulate(auto, env, circuit_name=c.name)


def test_simulate_checks_the_idle_readiness_before_round_one(monkeypatch):
    # what every unlisted round readies is checked with the listed rounds,
    # even when no round is unlisted
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    calls = counting(monkeypatch, sim, "step")
    for idle in (frozenset({"zz"}), frozenset({"a"}), frozenset({"a", "b"})):
        env = sim.EnvScript({1: sim.Round((("a", "ok"),), frozenset({"b"}))}, idle)
        with pytest.raises(sim.EnvMismatchError, match="ready on .*not a boundary-out port"):
            sim.simulate(auto, env, circuit_name=c.name)
    assert calls == []


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
            t1 = sim.simulate(auto, env, seed=seed, circuit_name=c.name)
            t2 = sim.simulate(auto, env, seed=seed, circuit_name=c.name)
            assert t1.to_json() == t2.to_json()


def test_firings_are_sound_and_chain():
    c, auto = compiled(LOSSY_TEXT)
    env = env_lines("\n".join(f"round {n}: offer a=ok" for n in range(1, 9)), c)
    trace = sim.simulate(auto, env, seed=3, circuit_name=c.name)
    state = auto.initial
    for stp in trace.steps:
        if isinstance(stp, sim.Stall):
            continue
        assert stp.state_before == state
        offers, ready = env.round(stp.round)
        options = sim.enabled(auto, state, dict(offers), ready)
        assert (stp.sync, stp.assignment) in [(t.sync, a) for t, a in options]
        state = stp.state_after


def test_trace_json_roundtrip():
    c, auto = compiled(MINIMAL_SYNC_TEXT)
    env = env_lines("round 1: offer a=ok\nround 3: offer a=ok", c)
    trace = sim.simulate(auto, env, seed=0, circuit_name=c.name)
    text = trace.to_json()
    back = sim.trace_from_json(text, c)
    assert back.circuit == c.name
    assert [type(s).__name__ for s in back.steps] == [
        type(s).__name__ for s in trace.steps
    ]
    fir = back.firings()[0]
    assert fir.sync == frozenset({"a", "b"})
    assert dict(fir.assignment) == {"a": "ok", "b": "ok"}
    assert back == trace


def test_trace_roundtrip_is_exact(rescue_circuit, rescue_auto):
    # states, sync-sets, data, rounds and stalls all come back as written:
    # the rescue canned environment, then random circuits under random offers
    trace = sim.simulate(rescue_auto, rescue.builtin_env(), seed=0, circuit_name="rescue")
    assert {f.state_after for f in trace.firings()} - {0}
    text = trace.to_json()
    # states are written sN, as compile --json names them
    written = [(r["from"], r["to"]) for r in json.loads(text)["rounds"] if r["kind"] == "firing"]
    assert written == [(f"s{f.state_before}", f"s{f.state_after}") for f in trace.firings()]
    assert sim.trace_from_json(text, rescue_circuit) == trace
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
        trace = sim.simulate(auto, env, seed=seed, circuit_name=c.name)
        assert len(trace.steps) == 12
        assert sim.trace_from_json(trace.to_json(), c) == trace, seed


# sha256 of the trace JSON of the rescue automaton under
# random_rescue_env(auto, seed) simulated with that seed, 2,000 rounds each
RESCUE_TRACE_SHA256 = {
    0: "a0dfcd55b7f98c4beb9b94db0522876f2e055ebf51e11b9db094213d5d95e76e",
    1: "3badab66bd8ac30c6911f21025246c26844016862cde3f1edef446d6f446e322",
    2: "8a66c1b63c840df9acfe67be303e7076c46bdc1c8dde2dd466ed70708761569a",
    3: "6e85d757b826ed790061f877e10a142abae94ef16f2f926fa4ae982ec51416d2",
    4: "1d474420a86fa6104fd4f47fc4bb360b43d194f99fa6ea717eecbe3c9267581c",
}

_DIGEST_SCRIPT = """
import hashlib
from reokit import automata, rescue, sim
from util import random_rescue_env
auto = automata.compile_circuit(rescue.builtin_circuit())
for seed in range(5):
    trace = sim.simulate(auto, random_rescue_env(auto, seed), seed=seed, circuit_name="rescue")
    print(seed, hashlib.sha256(trace.to_json().encode()).hexdigest())
"""


def test_rescue_traces_stay_byte_identical(rescue_auto):
    for seed, digest in RESCUE_TRACE_SHA256.items():
        env = random_rescue_env(rescue_auto, seed)
        trace = sim.simulate(rescue_auto, env, seed=seed, circuit_name="rescue")
        assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest, seed
    # and in fresh processes, under two string hash seeds
    here = Path(__file__).resolve().parent
    expected = "".join(f"{seed} {digest}\n" for seed, digest in RESCUE_TRACE_SHA256.items())
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert result.stdout == expected, hash_seed
