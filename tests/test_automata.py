import collections
import gc
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from reokit import analysis as AN
from reokit import automata as A
from reokit import circuit as C
from reokit.dsl import parse_circuit

from util import (
    ALPHABET,
    BLOCKER_TEXT,
    MINIMAL_SYNC_TEXT,
    SEQ3_TEXT,
    brute_product,
    dispatch_circuit,
    holds,
    project_over_names,
    random_automaton,
    random_circuit,
    traces_upto,
)


def sync_ab(a="a", b="b", alphabet=ALPHABET):
    return A.build_automaton(
        {a, b}, ["q"], "q", [("q", {a, b}, A.eq(a, b), "q")], alphabet
    )


# -- constraints ------------------------------------------------------------


def test_sat_assignments_examples():
    assert A.sat_assignments(A.TRUE, frozenset({"a"}), ALPHABET) == (
        (("a", "bad"),),
        (("a", "ok"),),
    )
    two = A.sat_assignments(A.eq("a", "b"), frozenset({"a", "b"}), ALPHABET)
    assert two == ((("a", "bad"), ("b", "bad")), (("a", "ok"), ("b", "ok")))
    none = A.sat_assignments(
        A.conj(A.const("a", "ok"), A.const("a", "bad")), frozenset({"a"}), ALPHABET
    )
    assert none == ()


def test_sat_assignments_matches_naive_enumeration():
    rng = random.Random(7)
    values = sorted(ALPHABET)
    for _ in range(200):
        names = ["a", "b", "c"][: rng.randint(1, 3)]
        sync = frozenset(names)
        g = A.TRUE
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0 and len(names) >= 2:
                x, y = rng.sample(names, 2)
                g = A.conj(g, A.eq(x, y))
            elif kind == 1:
                g = A.conj(g, A.const(rng.choice(names), rng.choice(values)))
            else:
                g = A.conj(g, A.member(rng.choice(names), rng.sample(values, rng.randint(1, 2))))
        fast = A.sat_assignments(g, sync, ALPHABET)
        slow = []
        for combo in itertools.product(values, repeat=len(names)):
            assignment = dict(zip(sorted(names), combo))
            if holds(g, assignment):
                slow.append(tuple(sorted(assignment.items())))
        assert fast == tuple(sorted(slow))


def test_project_agrees_with_assignment_projection():
    # oracle: eliminating names symbolically must equal projecting the
    # enumerated satisfying set
    rng = random.Random(4242)
    names = frozenset({"a", "b", "h"})
    keep = frozenset({"a", "b"})
    values = sorted(ALPHABET)
    for _ in range(300):
        g = A.TRUE
        for _ in range(rng.randint(0, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                x, y = rng.sample(sorted(names), 2)
                g = A.conj(g, A.eq(x, y))
            elif kind == 1:
                g = A.conj(g, A.const(rng.choice(sorted(names)), rng.choice(values)))
            else:
                g = A.conj(
                    g, A.member(rng.choice(sorted(names)), rng.sample(values, rng.randint(1, 2)))
                )
        projected = A.project(g, keep, names, ALPHABET)
        expected = {
            tuple((n, v) for n, v in sat if n in keep)
            for sat in A.sat_assignments(g, names, ALPHABET)
        }
        if projected is None:
            assert expected == set()
        else:
            assert set(A.sat_assignments(projected, keep, ALPHABET)) == expected


def test_project_eliminates_names_exactly():
    g = A.conj(A.eq("a", "h"), A.eq("b", "h"), A.member("h", {"ok"}))
    out = A.project(g, frozenset({"a", "b"}), frozenset({"a", "b", "h"}), ALPHABET)
    assert out is not None
    sats = A.sat_assignments(out, frozenset({"a", "b"}), ALPHABET)
    assert sats == ((("a", "ok"), ("b", "ok")),)
    dead = A.project(
        A.conj(A.const("h", "ok"), A.const("h", "bad")),
        frozenset(),
        frozenset({"h"}),
        ALPHABET,
    )
    assert dead is None


def test_project_over_its_guards_names_agrees_with_the_whole_names_oracle():
    # project works out classes over the names its guard mentions; the oracle
    # works over all of ``names``, which may hold more, as the sync-sets of
    # late products do
    rng = random.Random(17)
    pool = ["a", "b", "c", "d", "e"]
    alphabets = [ALPHABET, frozenset({"ok"}), frozenset({"ok", "bad", "odd"}), frozenset()]
    cases = {"wider names": 0, "keep < names": 0, "keep > names": 0, "outside items": 0,
             "empty alphabet": 0, "true, empty alphabet": 0}
    for _ in range(3000):
        alphabet = rng.choice(alphabets)
        mentioned = rng.sample(pool, rng.randint(0, 3))
        names = frozenset(mentioned) | frozenset(rng.sample(pool, rng.randint(0, 3)))
        values = sorted(alphabet | {"ok", "bad", "stray"})
        g = A.TRUE
        for _ in range(rng.randint(0, 4) if mentioned else 0):
            kind = rng.randrange(3)
            if kind == 0 and len(mentioned) >= 2:
                g = A.conj(g, A.eq(*rng.sample(mentioned, 2)))
            elif kind == 1:
                g = A.conj(g, A.const(rng.choice(mentioned), rng.choice(values)))
            else:
                items = rng.sample(values, rng.randint(1, len(values)))
                g = A.conj(g, A.member(rng.choice(mentioned), items))
                cases["outside items"] += not alphabet >= set(items)
        canonical = project_over_names(g, A.guard_names(g), A.guard_names(g), alphabet)
        keep = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        for guard in {g, canonical} - {None}:
            assert A.project(guard, keep, names, alphabet) == project_over_names(
                guard, keep, names, alphabet
            ), (guard, keep, names, alphabet)
        cases["wider names"] += names > A.guard_names(g)
        cases["keep < names"] += keep < names
        cases["keep > names"] += keep > names
        cases["empty alphabet"] += not alphabet and bool(names)
        cases["true, empty alphabet"] += not alphabet and bool(names) and not g
    assert all(n >= 20 for n in cases.values()), cases


def _kernel_guard(rng, pool, alphabet):
    """A guard whose equality classes are hard to get wrong: a random tree of
    eq atoms over 6 or more names with some redundant links, and const and
    in atoms that may contradict each other, name no value, or read ``in ()``."""
    chain = rng.sample(pool, rng.randint(6, len(pool)))
    g = A.conj(*(A.eq(n, rng.choice(chain[:i])) for i, n in enumerate(chain) if i))
    for _ in range(rng.randint(0, 2)):
        g = A.conj(g, A.eq(*rng.sample(chain, 2)))
    values = sorted(alphabet | {"ok", "stray"})
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            g = A.conj(g, A.const(rng.choice(chain), rng.choice(values)))
        elif kind == 1:
            items = rng.sample(values, rng.randint(1, len(values)))
            g = A.conj(g, A.member(rng.choice(chain), items))
        else:
            g = A.conj(g, A.member(rng.choice(chain), ()))
    return g


def test_guard_kernel_agrees_with_its_oracles_on_long_chains():
    # project's classes come from a union-find over the guard's own names;
    # the oracle's from circuit.partition over every name of ``names``, and
    # sat_assignments must list exactly the assignments that satisfy the guard
    rng = random.Random(34)
    pool = [f"n{i}" for i in range(8)]
    alphabets = [ALPHABET, frozenset({"ok"}), frozenset({"ok", "bad", "odd"}), frozenset()]
    cases = collections.Counter()
    for _ in range(1500):
        alphabet = rng.choice(alphabets)
        g = _kernel_guard(rng, pool, alphabet)
        mentioned = A.guard_names(g)
        names = mentioned | frozenset(rng.sample(pool, rng.randint(0, 2)))
        canonical = project_over_names(g, mentioned, mentioned, alphabet)
        keep = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        for guard in {g, canonical} - {None}:
            assert A.project(guard, keep, names, alphabet) == project_over_names(
                guard, keep, names, alphabet
            ), (guard, keep, names, alphabet)
        empty_member = any(atom[0] == A.MEMBER and not atom[2] for atom in g)
        cases["in ()"] += empty_member
        cases["contradiction"] += canonical is None and not empty_member and bool(alphabet)
        cases["satisfiable, constrained"] += bool(canonical) and len(alphabet) > 1
        cases["empty alphabet"] += not alphabet
        cases["wider names"] += names > mentioned
        if len(names) <= 7 and len(alphabet) <= 2 or len(names) <= 6:
            expected = tuple(
                tuple(zip(sorted(names), combo))
                for combo in itertools.product(sorted(alphabet), repeat=len(names))
                if holds(g, dict(zip(sorted(names), combo)))
            )
            assert A.sat_assignments(g, names, alphabet) == expected, (g, names, alphabet)
            cases["enumerated"] += 1
            cases["enumerated, satisfiable"] += bool(expected)
    assert all(n >= 20 for n in cases.values()), cases


# -- channel and node automata ----------------------------------------------


def test_channel_construction_counts():
    fifo = A.ca_of_channel(C.Channel("f", C.FIFO1, "x", "y"), ALPHABET)
    assert fifo.n_states == 3
    assert len(fifo.transitions) == 4
    sync = A.ca_of_channel(C.Channel("s", C.SYNC, "x", "y"), ALPHABET)
    assert sync.n_states == 1 and len(sync.transitions) == 1
    # over a value domain a fifo keeps only those values and its init
    ok_only = A.ca_of_channel(C.Channel("f", C.FIFO1, "x", "y"), ALPHABET, {"ok"})
    assert ok_only.n_states == 2
    assert {A.pretty(t.guard) for t in ok_only.transitions} == {"d(f.a)=ok", "d(f.b)=ok"}
    with_init = A.ca_of_channel(
        C.Channel("f", C.FIFO1, "x", "y", init="bad"), ALPHABET, {"ok"}
    )
    assert with_init.n_states == 3 and len(with_init.transitions) == 4
    assert with_init.initial == 1  # full(bad) sorts before full(ok), as over ALPHABET


def test_filter_pass_and_drop():
    filt = A.ca_of_channel(
        C.Channel("f", C.FILTER, "x", "y", accept=frozenset({"ok"})), ALPHABET
    )
    kinds = {tuple(sorted(t.sync)) for t in filt.transitions}
    assert kinds == {("f.a",), ("f.a", "f.b")}
    drop = next(t for t in filt.transitions if t.sync == frozenset({"f.a"}))
    assert A.sat_assignments(drop.guard, drop.sync, ALPHABET) == ((("f.a", "bad"),),)


def test_node_merger_and_replicator():
    merger = A.ca_of_node(
        C.Node("n", frozenset({"c1.b", "c2.b"}), frozenset({"c3.a"})), ALPHABET
    )
    assert len(merger.transitions) == 2  # one choice per input
    replicator = A.ca_of_node(
        C.Node("n", frozenset({"c1.b"}), frozenset({"c2.a", "c3.a", "c4.a"})), ALPHABET
    )
    assert len(replicator.transitions) == 1
    (t,) = replicator.transitions
    assert len(t.sync) == 4


def test_boundary_in_node_automaton():
    node = C.Node("n", frozenset(), frozenset({"c1.a"}), C.PortId("n", C.PORT_IN))
    auto = A.ca_of_node(node, ALPHABET)
    (t,) = auto.transitions
    assert t.sync == frozenset({"n", "c1.a"})
    assert A.sat_assignments(t.guard, t.sync, ALPHABET) == (
        (("c1.a", "bad"), ("n", "bad")),
        (("c1.a", "ok"), ("n", "ok")),
    )


def test_empty_node_is_error():
    with pytest.raises(A.EmptyNodeError):
        A.ca_of_node(C.Node("n", frozenset(), frozenset()), ALPHABET)


# -- join / hide -------------------------------------------------------------


def test_join_syncs_share_names_and_hide_collapses():
    j = A.join(sync_ab("a", "b"), sync_ab("b", "c"))
    assert j.n_states == 1
    (t,) = j.transitions
    assert t.sync == frozenset({"a", "b", "c"})
    h = A.hide(j, {"b"})
    assert h.names == frozenset({"a", "c"})
    (t,) = h.transitions
    assert t.sync == frozenset({"a", "c"})
    assert t.guard == A.eq("a", "c")
    assert AN.bisimilar(h, sync_ab("a", "c"))


def test_join_agrees_with_brute_force_oracle_on_fifo_pair():
    one = frozenset({"x"})
    f1 = A.ca_of_channel(C.Channel("f1", C.FIFO1, "p", "q"), one)
    f2 = A.ca_of_channel(C.Channel("f2", C.FIFO1, "q", "r"), one)
    # share the middle name: rebuild with explicit names
    fab = A.build_automaton(
        {"a", "b"},
        ["empty", "full"],
        "empty",
        [
            ("empty", {"a"}, A.const("a", "x"), "full"),
            ("full", {"b"}, A.const("b", "x"), "empty"),
        ],
        one,
    )
    fbc = A.build_automaton(
        {"b", "c"},
        ["empty", "full"],
        "empty",
        [
            ("empty", {"b"}, A.const("b", "x"), "full"),
            ("full", {"c"}, A.const("c", "x"), "empty"),
        ],
        one,
    )
    pairs, transitions, reach = brute_product(fab, fbc)
    assert len(pairs) == 4  # before reachability pruning
    # the oracle finds the both-full state reachable: empty->a->b->a gives (full, full)
    assert len(reach) == 4
    joined = A.join(fab, fbc)
    assert joined.n_states == len(reach)
    # number the oracle's pairs as join documents it: breadth-first from
    # the joint initial, each level's new pairs in sorted order
    start = (fab.initial, fbc.initial)
    number = {start: 0}
    level = [start]
    while level:
        level = sorted({d for s, _, _, d in transitions if s in level and d not in number})
        for pq in level:
            number[pq] = len(number)
    assert number.keys() == reach
    mapped = {
        (number[src], tuple(sorted(sync)), guard_key, number[dst])
        for src, sync, guard_key, dst in transitions
        if src in number
    }
    ours = {
        (src, tuple(sorted(t.sync)), t.guard, t.dst)
        for src, row in enumerate(joined.rows)
        for t in row
    }
    assert ours == mapped


def test_join_identity_is_neutral():
    ident = A.identity_automaton(ALPHABET)
    a = sync_ab()
    j = A.join(a, ident)
    assert AN.bisimilar(j, a)
    j2 = A.join(ident, a)
    assert AN.bisimilar(j2, a)


def test_join_random_agreement_with_oracle():
    rng = random.Random(99)
    for _ in range(40):
        a, b = random_automaton(rng), random_automaton(rng)
        _, transitions, reach = brute_product(a, b)
        joined = A.join(a, b)
        assert joined.n_states == len(reach)


def test_hide_noop_and_degenerate():
    a = sync_ab()
    assert A.hide(a, set()) == a
    allhidden = A.hide(a, {"a", "b"})
    assert allhidden.names == frozenset()
    assert allhidden.transitions == ()
    with pytest.raises(A.UnknownNameError):
        A.hide(a, {"zz"})


def test_hide_epsilon_closure_pulls_successors():
    # q0 --{h}--> q1 --{a}--> q2 ; hiding h makes q0 behave like q1, and
    # q1 is no longer reachable: q0 is state 0, q2 the next level's state 1
    auto = A.build_automaton(
        {"a", "h"},
        ["q0", "q1", "q2"],
        "q0",
        [
            ("q0", {"h"}, A.TRUE, "q1"),
            ("q1", {"a"}, A.TRUE, "q2"),
        ],
        ALPHABET,
    )
    hidden = A.hide(auto, {"h"})
    assert hidden.names == frozenset({"a"})
    assert hidden.n_states == 2
    assert hidden.rows == ((A.Transition(frozenset({"a"}), A.TRUE, 1),), ())


# -- compile ------------------------------------------------------------------


def test_compile_minimal_sync_bisimilar_to_primitive():
    c = parse_circuit(MINIMAL_SYNC_TEXT)
    auto = A.compile_circuit(c)
    assert AN.bisimilar(auto, sync_ab("a", "b"))


def test_compiled_automaton_carries_boundary_direction(rescue_circuit, rescue_auto):
    # ca_of_node marks boundary-in ports, join unites and hide subtracts,
    # so a compiled automaton's inputs are the circuit's and the rest of
    # its names are the boundary-out ports
    rng = random.Random(77)
    subjects = [(rescue_circuit, rescue_auto)]
    subjects += [(c, A.compile_circuit(c)) for c in (random_circuit(rng) for _ in range(10))]
    for c, auto in subjects:
        assert auto.inputs == c.inputs
        assert auto.names - auto.inputs == c.outputs
    a = A.build_automaton({"a", "b"}, ["q"], "q", [("q", {"a", "b"}, A.TRUE, "q")],
                          ALPHABET, inputs={"a"})
    b = A.build_automaton({"b", "c"}, ["q"], "q", [("q", {"b", "c"}, A.TRUE, "q")],
                          ALPHABET, inputs={"c"})
    assert A.join(a, b).inputs == {"a", "c"}
    assert A.hide(A.join(a, b), {"a", "b"}).inputs == {"c"}
    with pytest.raises(A.UnknownNameError):
        A.build_automaton({"a"}, ["q"], "q", [], ALPHABET, inputs={"z"})


def test_compile_rejects_invalid_circuit():
    bad = C.Circuit(
        "bad",
        frozenset({"ok"}),
        (C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)),
        (C.Channel("c1", C.FIFO1, "a", "b", init="zap"),),
    )
    with pytest.raises(C.InvalidCircuitError):
        A.compile_circuit(bad)


def test_compile_sequencer_cycles():
    c = parse_circuit(SEQ3_TEXT)
    auto = A.compile_circuit(c)
    words = traces_upto(auto, 3)
    maximal = [w for w in words if len(w) == 3]
    assert len(maximal) == 1
    order = [step[0] for step in maximal[0]]
    assert order == [("s1",), ("s2",), ("s3",)]


def test_replicator_into_merger_deadlocks_atomically():
    # a node replicates to both parallel syncs, but the target node can
    # merge only one end per step, so nothing can ever fire
    c = parse_circuit(
        "circuit par { data { ok } ports { in a; out b; } sync(a,b) sync(a,b) }"
    )
    assert len(c.channels) == 2  # parallel channels stay distinct
    auto = A.compile_circuit(c)
    assert auto.transitions == ()
    assert AN.analyze(auto) == (1, ["s0"], ["a", "b"])


def test_compile_order_insensitive():
    rng = random.Random(2024)
    for _ in range(10):
        c = random_circuit(rng, max_extra=2)
        reference = A.compile_circuit(c)
        autos = A.circuit_automata(c)
        rng.shuffle(autos)
        ports = frozenset(p.name for p in c.ports)
        joined = A.join_many(autos)
        shuffled = A.hide(joined, joined.names - ports)
        assert AN.bisimilar(reference, shuffled)


def join_all_then_hide(c, autos):
    """The definition: join every automaton, then hide the internal names once."""
    joined = A.join_many(autos)
    return A.hide(joined, joined.names - frozenset(p.name for p in c.ports))


# Hiding names between joins made seeds 135 and 265 depend on the join order.
@pytest.mark.parametrize("seed", [135, 265, *range(20)])
def test_compile_agrees_with_join_all_then_hide(seed):
    c = random_circuit(random.Random(seed))
    auto = A.compile_circuit(c)
    autos = A.circuit_automata(c)
    rng = random.Random(seed)
    for _ in range(3):
        rng.shuffle(autos)
        assert AN.bisimilar(auto, join_all_then_hide(c, autos))


def test_compile_agrees_with_the_full_guard_fold(rescue_circuit):
    # compile's fold lets combined guards forget finished names; the fold
    # that keeps whole guards, hidden once and sorted, must give the same bytes
    rng = random.Random(15)
    for c in [rescue_circuit] + [random_circuit(rng, max_extra=4) for _ in range(200)]:
        reference = join_all_then_hide(c, A.circuit_automata(c))
        reference = reference._replace(
            rows=tuple(tuple(sorted(row, key=A.Transition.sort_key)) for row in reference.rows)
        )
        assert A.automaton_to_json(A.compile_circuit(c)) == A.automaton_to_json(reference)


def test_compile_products_forget_exactly_the_finished_names(rescue_circuit, monkeypatch):
    # a name is live while it is a boundary port or a later automaton in the
    # order has it; each product of the compile must be the full-guard
    # product with every guard projected onto its live names
    c = rescue_circuit
    chain = A.circuit_automata(c)
    ports = frozenset(p.name for p in c.ports)
    join, products = A.join, []

    def recording_join(*args):
        products.append(join(*args))
        return products[-1]

    monkeypatch.setattr(A, "join", recording_join)
    A.compile_circuit(c)
    assert len(products) == len(chain) - 1
    full, forgotten = chain[0], 0
    for i, product in enumerate(products, start=2):
        full = join(full, chain[i - 1])
        live = ports.union(*(auto.names for auto in chain[i:]))
        projected = {
            (sync, guard): A.project(guard, sync & live, sync, full.alphabet)
            for sync, guard in {(t.sync, t.guard) for t in full.transitions}
        }
        expected = tuple(
            tuple(dict.fromkeys(t._replace(guard=projected[t.sync, t.guard]) for t in row))
            for row in full.rows
        )
        assert product.names == full.names
        assert product.rows == expected
        for sync, guard in {(t.sync, t.guard) for t in product.transitions}:
            assert A.guard_names(guard) <= live, guard
            assert A.project(guard, sync, sync, product.alphabet) == guard, guard
        forgotten += sum(not A.guard_names(g) <= live for _, g in projected)
    assert forgotten > 100


# sha256 of repr() of the (states, transitions) of each of the 62 products
# compile_circuit(builtin_circuit()) joins: a change to the join order moves
# it even where the compiled automaton stays the same
RESCUE_JOIN_SIZES_SHA256 = "a628d0c95be6d73356d46979c10b0d2fd6c834798c7e0cacf7996e98ea82f080"


def test_rescue_join_sequence_pinned(rescue_circuit, monkeypatch):
    join, sizes = A.join, []

    def recording_join(*args):
        product = join(*args)
        sizes.append((product.n_states, len(product.transitions)))
        return product

    monkeypatch.setattr(A, "join", recording_join)
    A.compile_circuit(rescue_circuit)
    assert len(sizes) == 62
    assert (max(s for s, _ in sizes), max(t for _, t in sizes)) == (96, 1_826)
    assert sum(t for _, t in sizes) == 31_625
    assert hashlib.sha256(repr(sizes).encode()).hexdigest() == RESCUE_JOIN_SIZES_SHA256


def test_compile_hides_once(rescue_circuit):
    with mock.patch.object(A, "hide", wraps=A.hide) as hide:
        A.compile_circuit(rescue_circuit)
    assert hide.call_count == 1


def test_join_and_hide_keep_guards_canonical():
    # join passes a move that fires alone through with its guard unprojected,
    # so every automaton it reads, and every one it or hide builds, must hold
    # guards that project returns unchanged
    rng = random.Random(10)
    autos = []
    for _ in range(150):
        a, b = random_automaton(rng), random_automaton(rng)
        joined = A.join(A.join(a, sync_ab("b", "c")), b)
        hidden = frozenset(rng.sample(sorted(joined.names), rng.randint(0, len(joined.names))))
        autos += [A.join(a, b), joined, A.hide(joined, hidden)]
    for _ in range(30):
        c = random_circuit(rng, max_extra=4)
        autos += [A.compile_circuit(c), A.join_many(A.circuit_automata(c))]
    guarded = 0
    for auto in autos:
        for t in auto.transitions:
            assert A.project(t.guard, t.sync, t.sync, auto.alphabet) == t.guard, t
            guarded += bool(t.guard)
    assert guarded > 1000


def test_products_carry_the_per_state_index_of_their_transitions():
    # the index is the rows themselves; join and hide drop a state's
    # repeated moves as they build its row
    def check(auto):
        for row in auto.rows:
            assert len(set(row)) == len(row), row
        return len(auto.transitions)

    rng = random.Random(16)
    checked = 0
    for _ in range(150):
        a, b = random_automaton(rng), random_automaton(rng)
        joined = A.join(A.join(a, sync_ab("b", "c")), b)
        hidden = frozenset(rng.sample(sorted(joined.names), rng.randint(0, len(joined.names))))
        checked += check(A.join(a, b)) + check(joined) + check(A.hide(joined, hidden))
    for _ in range(60):
        c = random_circuit(rng, max_extra=4)
        autos = A.circuit_automata(c)
        ports = frozenset(p.name for p in c.ports)
        for joined in (A.join_many(autos), A.join_many(autos, ports)):
            checked += check(joined) + check(A.hide(joined, joined.names - ports))
    assert checked > 2000


_RETAINED_SCRIPT = """
import gc, tracemalloc
from reokit import automata, rescue
circuit = rescue.builtin_circuit()
gc.collect()
tracemalloc.start()
automaton = automata.compile_circuit(circuit)
del automaton
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_compile_keeps_nothing_once_its_result_is_dropped():
    # a fresh process, so no earlier compile in this one has warmed any state
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _RETAINED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert int(result.stdout) < 1_000_000


def test_compile_restores_the_collectors_state(monkeypatch):
    # compile pauses the cyclic collector and switches it back on only if it
    # was on, also when the fold raises
    c = parse_circuit(MINIMAL_SYNC_TEXT)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            A.compile_circuit(c)
            assert gc.isenabled() == enabled

        def failing_join(*args):
            raise RuntimeError("join failed")

        monkeypatch.setattr(A, "join", failing_join)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(RuntimeError, match="join failed"):
                A.compile_circuit(c)
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_rescue_compile_runs_no_cyclic_collection(rescue_circuit):
    collections_run = []

    def count(phase, info):
        if phase == "start":
            collections_run.append(info["generation"])

    gc.callbacks.append(count)
    try:
        A.compile_circuit(rescue_circuit)
    finally:
        gc.callbacks.remove(count)
    assert collections_run == []


def test_compile_makes_no_reference_cycles(rescue_circuit):
    # the premise of compile's collector pause: with the collector off, a
    # compile leaves nothing that only a cyclic collection would free
    rng = random.Random(34)
    circuits = [rescue_circuit] + [dispatch_circuit(k) for k in (2, 3, 4)]
    circuits += [random_circuit(rng, max_extra=4) for _ in range(100)]
    was_enabled = gc.isenabled()
    found = {}
    gc.collect()
    gc.freeze()  # so each collection below walks only what the compiles made
    try:
        gc.disable()
        for i, c in enumerate(circuits):
            A.compile_circuit(c)
            found[i, c.name] = gc.collect()
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()
    assert len(found) == 104
    assert not any(found.values()), {key: n for key, n in found.items() if n}


def test_rescue_compile_projects_only_combined_guards(rescue_circuit):
    with mock.patch.object(A, "project", wraps=A.project) as project:
        A.compile_circuit(rescue_circuit)
    assert project.call_count <= 2_000
    # exact: a join that projected a combined pair more than once would
    # raise it, though every output stayed the same
    assert project.call_count == 1_606


def test_join_projects_a_combined_pair_once_for_every_b_state():
    # both states of the toggle fire {a} under true, so the pair with the
    # sync's move is met at each of them and projected at each: join keeps
    # no memo across B states, since in a compile's fold B is a primitive,
    # which holds each label in one row (see the test below)
    toggle = A.build_automaton(
        {"a"}, ["q0", "q1"], "q0", [("q0", {"a"}, A.TRUE, "q1"), ("q1", {"a"}, A.TRUE, "q0")],
        ALPHABET,
    )
    sync = sync_ab()
    with mock.patch.object(A, "project", wraps=A.project) as project:
        joined = A.join(sync, toggle)
    assert (joined.n_states, len(joined.transitions), project.call_count) == (2, 2, 2)


def test_primitive_automata_hold_each_label_in_one_row(rescue_circuit):
    # join memoizes a combined pair per (A label, B state) only; with B a
    # primitive that is once per pair, because no primitive repeats a label
    rng = random.Random(18)
    circuits = [rescue_circuit] + [dispatch_circuit(k) for k in (2, 3, 4)]
    circuits += [random_circuit(rng, max_extra=4) for _ in range(300)]
    for c in circuits:
        for auto in A.circuit_automata(c):
            labels = [label for row in auto.rows for label in {(t.sync, t.guard) for t in row}]
            assert len(labels) == len(set(labels)), (c.name, sorted(auto.names))


def test_circuit_automata_lists_one_automaton_per_channel_and_node(rescue_circuit):
    rng = random.Random(3)
    for c in [rescue_circuit] + [random_circuit(rng) for _ in range(100)]:
        domains = C.value_domains(c)
        expected = [A.ca_of_channel(ch, c.alphabet, domains[ch.end_a]) for ch in c.channels]
        expected += [A.ca_of_node(node, c.alphabet) for node in c.nodes()]
        assert collections.Counter(A.circuit_automata(c)) == collections.Counter(expected)


def test_join_many_in_reverse_order_is_bisimilar():
    autos = A.circuit_automata(parse_circuit(MINIMAL_SYNC_TEXT))
    assert AN.bisimilar(A.join_many(autos[::-1]), A.join_many(autos))


# A synchronous cycle fed by nothing can still carry any value, because
# constraint automata have no causality; value domains must not lose it.
@pytest.mark.parametrize(
    "channels", ["sync(x, x); fifo1(x, o);", "sync(x, y); sync(y, x); fifo1(y, o);"]
)
def test_synchronous_cycle_keeps_every_value(channels):
    c = parse_circuit(f"circuit loop {{ data {{ ok, bad }} ports {{ out o; }} {channels} }}")
    auto = A.compile_circuit(c)
    moves = {(tuple(sorted(t.sync)), A.pretty(t.guard)) for t in auto.transitions}
    assert moves >= {(("o",), "d(o)=bad"), (("o",), "d(o)=ok")}


def full_domain_compile(c):
    """Oracle: join in compile's order and hide once, every fifo over the alphabet."""
    everything = {node.name: c.alphabet for node in c.nodes()}
    with mock.patch.object(A, "value_domains", lambda _: everything):
        return join_all_then_hide(c, A.circuit_automata(c))


def test_value_domains_preserve_behaviour():
    rng = random.Random(7)
    shrunk = 0
    for _ in range(300):
        c = random_circuit(rng, max_extra=4)
        # a fifo's moves each fire one of its ends; the node of a fifo
        # looped onto it has the same names but fires both at once
        fifos = {frozenset((ch.name_a, ch.name_b)) for ch in c.channels if ch.kind == C.FIFO1}
        shrunk += sum(
            auto.n_states <= len(c.alphabet)
            for auto in A.circuit_automata(c)
            if auto.names in fifos and all(len(t.sync) == 1 for t in auto.transitions)
        )
        assert AN.bisimilar(A.compile_circuit(c), full_domain_compile(c))
    assert shrunk > 0


def test_compiled_transitions_all_satisfiable():
    rng = random.Random(5)
    for _ in range(20):
        c = random_circuit(rng, max_extra=2)
        auto = A.compile_circuit(c)
        for t in auto.transitions:
            assert A.sat_assignments(t.guard, t.sync, auto.alphabet)


def test_moves_expand_each_label_once_and_share_it():
    rng = random.Random(12)
    shared = 0
    for _ in range(40):
        auto = A.compile_circuit(random_circuit(rng, max_extra=3))
        by_label = {}
        assert len(auto.moves) == auto.n_states
        for s in range(auto.n_states):
            moves = auto.moves[s]
            assert [t for t, *_ in moves] == sorted(auto.rows[s], key=A.Transition.sort_key)
            for t, ports, assignments, memo in moves:
                assert ports == tuple(sorted(t.sync))
                assert assignments == A.sat_assignments(t.guard, t.sync, auto.alphabet)
                first = by_label.setdefault((t.sync, t.guard), (ports, assignments, memo))
                assert first[0] is ports and first[1] is assignments and first[2] is memo
        shared += len(by_label) < len(auto.transitions)
    assert shared > 0


def test_analyze_expands_each_label_once(rescue_auto, monkeypatch):
    auto = rescue_auto._replace()  # no expansion cached yet
    calls = []
    real = A.sat_assignments

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(A, "sat_assignments", counting)
    report = AN.analyze(auto)
    assert report.reachable_count == auto.n_states == 96
    labels = {(t.sync, t.guard) for t in auto.transitions}
    assert len(labels) == 56
    assert 0 < len(calls) <= len(labels)


def test_export_formats_deterministic():
    c = parse_circuit(MINIMAL_SYNC_TEXT)
    auto = A.compile_circuit(c)
    assert A.automaton_to_json(auto) == A.automaton_to_json(auto)
    assert A.automaton_to_dot(auto) == A.automaton_to_dot(auto)
    assert '"names"' in A.automaton_to_json(auto)


def test_json_writes_every_state_reference_as_a_listed_state(rescue_auto):
    rng = random.Random(19)
    autos = [rescue_auto, A.compile_circuit(parse_circuit(BLOCKER_TEXT))]
    autos += [A.compile_circuit(random_circuit(rng, max_extra=4)) for _ in range(50)]
    checked = 0
    for auto in autos:
        doc = json.loads(A.automaton_to_json(auto))
        states = set(doc["states"])
        assert doc["initial"] in states
        for t in doc["transitions"]:
            assert t["from"] in states and t["to"] in states, t
        checked += len(doc["transitions"])
    assert checked > 1000


# sha256 of automaton_to_json(compile_circuit(builtin_circuit())); any change
# to join, hide or the final sort that alters the output moves it
RESCUE_JSON_SHA256 = "fb662008160b6e5854f64c8e4a03ca697785ff9376f5e938502d0b6556fe14a4"


# sha256 of automaton_to_json plus automaton_to_dot over seeded random draws:
# compiled random circuits, and joins and hides of random automata over three
# values, the only draws whose guards can keep an "in" atom
RANDOM_EXPORT_SHA256 = "4657ad46a8e9488a10a178343f10271ed42d845b383809bf612a902eda754411"


def test_rescue_compile_json_pinned(rescue_auto):
    text = A.automaton_to_json(rescue_auto)
    assert hashlib.sha256(text.encode()).hexdigest() == RESCUE_JSON_SHA256
    rng = random.Random(2026)
    autos = [A.compile_circuit(random_circuit(rng, max_extra=4)) for _ in range(200)]
    three = ALPHABET | {"late"}
    for _ in range(100):
        joined = A.join(random_automaton(rng, three), random_automaton(rng, three))
        autos += [joined, A.hide(joined, joined.names & {"b"})]
    exported = "".join(A.automaton_to_json(auto) + A.automaton_to_dot(auto) for auto in autos)
    for atom in (r"d\([^)]+\)=d\(", r"d\([^)]+\)=(ok|bad|late)", r"d\([^)]+\) in \{", r"\} true"):
        assert re.search(atom, exported), atom  # every guard kind is pinned
    assert hashlib.sha256(exported.encode()).hexdigest() == RANDOM_EXPORT_SHA256


# sha256 of automaton_to_json(compile_circuit(dispatch_circuit(4))), the
# largest compile in tier-1: a change to the compile that renumbers states
# or rewrites a guard at scale moves it
DISPATCH4_JSON_SHA256 = "a59e1fa07648a421fb4a10eaa8ea0a73dbb8bdd3e051ed6ce0b338d78a43cf1e"


def test_dispatch4_compile_pinned():
    auto = A.compile_circuit(dispatch_circuit(4))
    assert (auto.n_states, len(auto.transitions)) == (256, 2_528)
    text = A.automaton_to_json(auto)
    assert hashlib.sha256(text.encode()).hexdigest() == DISPATCH4_JSON_SHA256


_ORDER_SCRIPT = """
import random
from reokit import automata as A, sim
from util import random_circuit
rng = random.Random(11)
env_rng = random.Random(5)
for _ in range(6):
    c = random_circuit(rng, max_extra=3)
    joined = A.join_many(A.circuit_automata(c))
    ports = frozenset(p.name for p in c.ports)
    for auto in (A.compile_circuit(c), joined, A.hide(joined, joined.names - ports)):
        print(A.automaton_to_json(auto))
    outs = joined.names - joined.inputs
    env = sim.EnvScript({
        n: sim.Round(tuple((p, env_rng.choice(sorted(c.alphabet))) for p in sorted(c.inputs)), outs)
        for n in range(1, 31)
    }, outs)
    print(sim.simulate(joined, env, seed=3, circuit_name=c.name).to_json())
"""


def test_transition_order_independent_of_hash_seed():
    # join and hide do not sort their transitions; neither the order they
    # emit nor the simulator's choice among the moves of such an unsorted
    # product may follow set iteration, which changes with the string hash seed
    here = Path(__file__).resolve().parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        result = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"names"') == 18
    assert outputs[0].count('"kind": "firing"') > 30
