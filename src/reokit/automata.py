"""Constraint-automata semantics for coordination circuits.

A constraint automaton steps by firing a non-empty set of port names
("sync-set") together under a data constraint, its guard. A guard is a
conjunction of atoms over a finite alphabet:

    true, d(n)=d(m), d(n)=v, d(n) in S

held as the frozenset of its atom tuples, ("eq", n, m) with n < m,
("const", n, v) and ("in", n, items) with items a sorted tuple; the empty
set is true. The language is closed under conjunction (set union) and,
because equality is the only inter-name atom, also closed under
existential elimination of names. Satisfiability is decided by
finite-domain enumeration; no solver.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import re
from typing import NamedTuple

from .circuit import (
    ASYNC_DRAIN,
    FIFO1,
    FILTER,
    LOSSY_SYNC,
    PORT_IN,
    PORT_OUT,
    SYNC,
    SYNC_DRAIN,
    TRANSFORM,
    Channel,
    Circuit,
    InvalidCircuitError,
    Node,
    dot_quote,
    validate_circuit,
    value_domains,
)

EQ = "eq"
CONST = "const"
MEMBER = "in"


class UnknownNameError(ValueError):
    pass


class EmptyNodeError(ValueError):
    pass


TRUE: frozenset[tuple] = frozenset()


def eq(a: str, b: str) -> frozenset[tuple]:
    if a == b:
        return TRUE
    lo, hi = sorted((a, b))
    return frozenset({(EQ, lo, hi)})


def const(n: str, v: str) -> frozenset[tuple]:
    return frozenset({(CONST, n, v)})


def member(n: str, items) -> frozenset[tuple]:
    return frozenset({(MEMBER, n, tuple(sorted(items)))})


def conj(*guards: frozenset[tuple]) -> frozenset[tuple]:
    return TRUE.union(*guards)


def guard_names(g: frozenset[tuple]) -> frozenset[str]:
    """The names guard ``g`` mentions."""
    return frozenset(n for atom in g for n in (atom[1:] if atom[0] == EQ else atom[1:2]))


def pretty(g: frozenset[tuple]) -> str:
    """How every output writes guard ``g``."""
    if not g:
        return "true"
    parts = []
    for atom in sorted(g):
        if atom[0] == EQ:
            parts.append(f"d({atom[1]})=d({atom[2]})")
        elif atom[0] == CONST:
            parts.append(f"d({atom[1]})={atom[2]}")
        else:
            parts.append(f"d({atom[1]}) in {{{','.join(atom[2])}}}")
    return " & ".join(parts)


def _classes(
    g: frozenset[tuple], alphabet: frozenset[str]
) -> tuple[dict[str, str], dict[str, frozenset[str]]]:
    """Equality classes of the names guard ``g`` mentions, in one pass over
    its atoms.

    Returns the class root of each mentioned name, and the values still
    allowed at each root that a const or member atom constrains; any other
    root allows the whole ``alphabet``. This small union-find over the
    guard's own names is what ``project`` and ``sat_assignments`` use, as
    they run once per guard, thousands of times per compile;
    ``circuit.partition`` serves the circuit-level callers.
    """
    up: dict[str, str] = {}  # a name to the one its class was merged into
    root: dict[str, str] = {}
    bounds = []
    for atom in g:
        if atom[0] == EQ:
            a = atom[1]
            b = atom[2]
            root[a] = a
            root[b] = b
            while a in up:
                a = up[a]
            while b in up:
                b = up[b]
            if a != b:
                up[a] = b
        else:
            root[atom[1]] = atom[1]
            bounds.append(atom)
    for n in root:
        r = n
        while r in up:
            r = up[r]
        root[n] = r
    allowed: dict[str, frozenset[str]] = {}
    for atom in bounds:
        r = root[atom[1]]
        vals = allowed.get(r, alphabet)
        if atom[0] == CONST:
            allowed[r] = vals & {atom[2]}
        else:
            allowed[r] = vals.intersection(atom[2])
    return root, allowed


def project(
    g: frozenset[tuple], keep: frozenset[str], names: frozenset[str], alphabet: frozenset[str]
) -> frozenset[tuple] | None:
    """Existentially eliminate every name of ``names`` outside ``keep``.

    ``names`` holds every name ``g`` mentions. Returns the projected
    guard in canonical form, or None when ``g`` is unsatisfiable over
    ``alphabet``. With ``keep == names`` this is a
    canonicalizer-plus-satisfiability check, and it returns a canonical
    guard unchanged.

    A name no atom mentions is a class of its own that allows the whole
    alphabet, so it adds no atom: the classes are worked out over the
    guard's own names only, and the cost follows the guard, not the
    sync-set, which runs to ~20 names in late compile products. The one
    exception is the empty alphabet: there any name at all has no value,
    so a non-empty ``names`` is unsatisfiable, mentioned or not.
    """
    if not alphabet and names:
        return None
    root, allowed = _classes(g, alphabet)
    if not all(allowed.values()):
        return None
    visible: dict[str, list[str]] = {}
    for n in sorted(root.keys() & keep):
        visible.setdefault(root[n], []).append(n)
    atoms = []
    for r, members in visible.items():
        prev = members[0]
        vals = allowed.get(r, alphabet)
        if vals != alphabet:
            if len(vals) == 1:
                atoms.append((CONST, prev, next(iter(vals))))
            else:
                atoms.append((MEMBER, prev, tuple(sorted(vals))))
        for n in members[1:]:
            atoms.append((EQ, prev, n))
            prev = n
    return frozenset(atoms)


def sat_assignments(
    g: frozenset[tuple], sync: frozenset[str], alphabet: frozenset[str]
) -> tuple[tuple[tuple[str, str], ...], ...]:
    """All total assignments on the sync-set satisfying ``g``, each as its
    sorted ``(name, value)`` tuple, in tuple order.

    Conjunctions only relate names through equality, so the satisfying
    set factors over equality classes: enumerate one value per class
    from its allowed set instead of the full alphabet^|sync| product. A
    sync name the guard does not mention is a class of its own.
    """
    root, allowed = _classes(g, alphabet)
    if not root.keys() <= sync:
        raise UnknownNameError(f"constraint names {sorted(root.keys() - sync)} outside sync-set")
    for n in sync:
        root.setdefault(n, n)
    roots = sorted(set(root.values()))
    choices = [sorted(allowed.get(r, alphabet)) for r in roots]
    if not all(choices):
        return ()
    ports = sorted(sync)
    result = []
    for combo in itertools.product(*choices):
        value = dict(zip(roots, combo))
        result.append(tuple((p, value[root[p]]) for p in ports))
    return tuple(sorted(result))


class Transition(NamedTuple):
    """A move to state ``dst`` firing ``sync`` under ``guard``; the state it
    leaves is the row of ``ConstraintAutomaton.rows`` that holds it.

    A named tuple: it hashes and compares as its field tuple, and hashing
    one runs no Python code, which matters for the tens of thousands that
    a compile's intermediate products build and deduplicate. Sort a row
    by ``sort_key``: the tuple order would compare sync-sets and guards as
    sets, by inclusion.
    """

    sync: frozenset[str]
    guard: frozenset[tuple]
    dst: int

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.sync)), tuple(sorted(self.guard)), self.dst)


class _AutomatonFields(NamedTuple):
    names: frozenset[str]
    rows: tuple[tuple[Transition, ...], ...]
    initial: int
    alphabet: frozenset[str]
    inputs: frozenset[str] = frozenset()


class ConstraintAutomaton(_AutomatonFields):
    """States are the ints ``0..n_states-1``, written by ``state_name``, and
    ``rows[s]`` holds the transitions that leave state ``s``.

    ``inputs`` are the boundary-in names among ``names``; in a compiled
    automaton the boundary-out names are ``names - inputs``. The rows of
    ``build_automaton`` and ``compile_circuit`` results are in
    ``Transition.sort_key`` order; those of ``join`` and ``hide`` are in
    the order they were found. Each transition's guard is a frozenset of
    atom tuples over names in its sync-set, so it is its own key in the
    memos of ``join``, ``hide`` and ``moves``. ``moves`` is the one table
    of every state's steps, which simulation and analysis read as
    ``moves[s]``.
    Invariant: every guard is canonical,
    ``project(t.guard, t.sync, t.sync, alphabet) == t.guard``;
    ``build_automaton``, ``join`` and ``hide`` keep it, and ``join`` relies on it.
    A canonical guard need not constrain every name of its sync-set: within
    ``compile_circuit``'s fold, the products' guards leave the names that
    are finished (neither a boundary port nor a name of an automaton still
    to join) unconstrained, though those names still fire.
    A named tuple of its five fields, so two automata are equal, and hash
    alike, when their fields are. The class has no ``__slots__``: what
    ``transitions`` and ``moves`` cache lives in the instance dict, takes
    no part in equality, and starts empty in a ``_replace`` copy.
    """

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """Every row's transitions, state by state."""
        return tuple(itertools.chain.from_iterable(self.rows))

    @functools.cached_property
    def moves(self) -> tuple[tuple[tuple, ...], ...]:
        """The move table: ``moves[s]`` holds state ``s``'s transitions in
        ``Transition.sort_key`` order, each as ``(transition, ports,
        assignments, memo)``: ``ports`` is the sorted sync-set,
        ``assignments`` its ``sat_assignments``, and ``memo`` a dict that
        ``sim.enabled`` fills. The last three depend only on the sync-set
        and the guard, so each such label is expanded once and shared by
        every state. The whole table is built on first use: every state of
        a compiled automaton is reachable, and ``analyze`` reads them all."""
        labels: dict = {}
        table = []
        for row in self.rows:
            moves = []
            for t in sorted(row, key=Transition.sort_key):
                label = labels.get((t.sync, t.guard))
                if label is None:
                    label = labels[t.sync, t.guard] = (
                        tuple(sorted(t.sync)),
                        sat_assignments(t.guard, t.sync, self.alphabet),
                        {},
                    )
                moves.append((t, *label))
            table.append(tuple(moves))
        return tuple(table)


# Transition from a field tuple, without the named tuple's Python-level
# __new__: a compile's intermediate products build tens of thousands
_transition = functools.partial(tuple.__new__, Transition)


def state_name(i: int) -> str:
    """How every output writes state ``i``."""
    return f"s{i}"


def state_index(name) -> int:
    """The state a ``state_name`` stands for; ValueError for anything else."""
    if not (isinstance(name, str) and re.fullmatch(r"s[0-9]+", name)):
        raise ValueError(f"state reference {name!r} is not s<int>")
    return int(name[1:])


def build_automaton(
    names,
    state_labels,
    initial_label,
    transitions,
    alphabet,
    inputs=(),
) -> ConstraintAutomaton:
    """Assemble an automaton from labeled parts.

    States are numbered in the order ``state_labels`` lists them; the
    labels are not kept. ``transitions`` is an iterable of (src_label,
    sync, guard, dst_label). Guards are canonicalized; unsatisfiable or
    empty-sync transitions are rejected, duplicates collapse, and the
    result is deterministically sorted.
    """
    names = frozenset(names)
    alphabet = frozenset(alphabet)
    labels = tuple(state_labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate state labels")
    if not names >= frozenset(inputs):
        raise UnknownNameError(f"inputs {sorted(frozenset(inputs) - names)} are not names")
    rows: list[set[Transition]] = [set() for _ in labels]
    for src, sync, guard, dst in transitions:
        sync = frozenset(sync)
        if not sync:
            raise ValueError("transition sync-set may not be empty")
        if not sync <= names:
            raise UnknownNameError(f"sync-set {sorted(sync)} not within {sorted(names)}")
        if not guard_names(guard) <= sync:
            raise UnknownNameError(
                f"guard references {sorted(guard_names(guard) - sync)} outside sync-set"
            )
        norm = project(guard, sync, sync, alphabet)
        if norm is None:
            continue  # unsatisfiable: prune
        rows[index[src]].add(Transition(sync, norm, index[dst]))
    return ConstraintAutomaton(
        names=names,
        rows=tuple(tuple(sorted(row, key=Transition.sort_key)) for row in rows),
        initial=index[initial_label],
        alphabet=alphabet,
        inputs=frozenset(inputs),
    )


def identity_automaton(alphabet) -> ConstraintAutomaton:
    """The neutral element of join: no names, one state, no transitions."""
    return ConstraintAutomaton(
        names=frozenset(),
        rows=((),),
        initial=0,
        alphabet=frozenset(alphabet),
    )


def ca_of_channel(ch: Channel, alphabet, domain=None) -> ConstraintAutomaton:
    """The per-primitive automaton over the channel's two end names.

    ``domain``, when given, holds the values that can reach the a-end; a
    ``fifo1`` then has a full state only for those values and its ``init``,
    in the same relative order as over the whole alphabet.
    """
    alphabet = frozenset(alphabet)
    a, b = ch.name_a, ch.name_b
    one = ["q"]
    if ch.kind == SYNC:
        trans = [("q", {a, b}, eq(a, b), "q")]
        return build_automaton({a, b}, one, "q", trans, alphabet)
    if ch.kind == LOSSY_SYNC:
        trans = [
            ("q", {a, b}, eq(a, b), "q"),
            ("q", {a}, TRUE, "q"),
        ]
        return build_automaton({a, b}, one, "q", trans, alphabet)
    if ch.kind == SYNC_DRAIN:
        return build_automaton({a, b}, one, "q", [("q", {a, b}, TRUE, "q")], alphabet)
    if ch.kind == ASYNC_DRAIN:
        trans = [("q", {a}, TRUE, "q"), ("q", {b}, TRUE, "q")]
        return build_automaton({a, b}, one, "q", trans, alphabet)
    if ch.kind == FILTER:
        accept = frozenset(ch.accept or ())
        trans = [
            ("q", {a, b}, conj(eq(a, b), member(a, accept)), "q"),
            ("q", {a}, member(a, alphabet - accept), "q"),
        ]
        return build_automaton({a, b}, one, "q", trans, alphabet)
    if ch.kind == TRANSFORM:
        f = ch.transform_map()
        trans = [
            ("q", {a, b}, conj(const(a, v), const(b, f[v])), "q")
            for v in sorted(alphabet)
        ]
        return build_automaton({a, b}, one, "q", trans, alphabet)
    if ch.kind == FIFO1:
        held = set(alphabet if domain is None else domain)
        if ch.init is not None:
            held.add(ch.init)
        states = ["empty"] + [f"full({v})" for v in sorted(held)]
        trans = []
        for v in sorted(held):
            trans.append(("empty", {a}, const(a, v), f"full({v})"))
            trans.append((f"full({v})", {b}, const(b, v), "empty"))
        init = f"full({ch.init})" if ch.init is not None else "empty"
        return build_automaton({a, b}, states, init, trans, alphabet)
    raise ValueError(f"unknown channel kind {ch.kind!r}")


def ca_of_node(node: Node, alphabet) -> ConstraintAutomaton:
    """Merger-replicator behavior: one transition per input source, firing
    that input synchronously with every output, all carrying equal data."""
    inputs = sorted(node.incoming)
    outputs = sorted(node.outgoing)
    boundary_in = ()
    if node.port is not None:
        if node.port.kind == PORT_IN:
            inputs.append(node.port.name)
            boundary_in = (node.port.name,)
        elif node.port.kind == PORT_OUT:
            outputs.append(node.port.name)
    if not inputs and not outputs:
        raise EmptyNodeError(f"node {node.name} has no channel ends and no port")
    names = frozenset(inputs) | frozenset(outputs)
    trans = []
    for i in sorted(inputs):
        sync = {i, *outputs}
        guard = conj(*(eq(i, o) for o in outputs))
        trans.append(("q", sync, guard, "q"))
    return build_automaton(names, ["q"], "q", trans, frozenset(alphabet), boundary_in)


def _explore(start, steps, names, alphabet, inputs) -> ConstraintAutomaton:
    """The automaton of the states reachable from ``start`` and their moves.

    ``steps(state)`` yields (sync, guard, successor). The search is
    breadth-first and each level's new states are numbered in sorted
    order, so the numbering depends only on the reachable states and
    their depth, never on the order ``steps`` yields. Duplicate moves of
    a state are dropped, first occurrences kept, and the rest become its
    row. The result has ``initial`` 0 and the given ``names``,
    ``alphabet`` and ``inputs``.
    """
    index = {start: 0}
    rows: list[tuple[Transition, ...]] = []
    frontier = [start]
    while frontier:
        level = [dict.fromkeys(steps(s)) for s in frontier]
        frontier = sorted({dst for moves in level for _, _, dst in moves} - index.keys())
        for s in frontier:
            index[s] = len(index)
        # the level's successors are numbered now, so its moves become
        # Transitions at once
        for moves in level:
            rows.append(
                tuple([_transition((sync, guard, index[dst])) for sync, guard, dst in moves])
            )
    return ConstraintAutomaton(
        names=names, rows=tuple(rows), initial=0, alphabet=alphabet, inputs=inputs
    )


def join(
    a: ConstraintAutomaton, b: ConstraintAutomaton, live: frozenset[str] | None = None
) -> ConstraintAutomaton:
    """Synchronized product: shared names fire together.

    Two transitions combine when they agree on the other side's names
    (N1 & B.names == N2 & A.names); a transition whose sync-set avoids the
    other automaton's names entirely may also fire alone. Only state pairs
    reachable from the joint initial are kept, and rows are not sorted. A
    move that fires alone keeps its canonical guard; a combined pair's
    guard is projected onto its whole sync-set, or with ``live`` given
    onto ``sync & live``: the guard then forgets the other names of its
    sync-set, which stays whole. That is sound only where no later guard
    mentions a forgotten name, as in ``join_many``'s fold with ``keep``.

    What an A transition does at B state ``q`` depends only on its sync-set
    and guard, so it is worked out once per call for each such label and
    ``q``: the move that fires alone, then one move per B partner in
    B's order, each as (sync, guard, B successor). A product state then
    only pairs its A successors with that list.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("join requires a common alphabet")
    # group B's transitions by their footprint on A's names, so each A
    # transition only meets compatible partners
    b_by_shared: list[dict[frozenset, list[Transition]]] = []
    for row in b.rows:
        groups: dict[frozenset, list[Transition]] = {}
        for tb in row:
            groups.setdefault(tb.sync & a.names, []).append(tb)
        b_by_shared.append(groups)
    by_label: dict[tuple, list[tuple]] = {}

    def label_moves(sync_a: frozenset, guard_a: frozenset, q: int) -> list[tuple]:
        # what an A move labelled (sync_a, guard_a) does at B state q, as
        # (sync, guard, B successor): alone first, then with each partner
        shared = sync_a & b.names
        moves = [] if shared else [(sync_a, guard_a, q)]
        for tb in b_by_shared[q].get(shared, ()):
            sync = sync_a | tb.sync
            keep = sync if live is None else sync & live
            guard = project(conj(guard_a, tb.guard), keep, sync, a.alphabet)
            if guard is not None:
                moves.append((sync, guard, tb.dst))
        return moves

    # the state pair (p, q) is the int p * nb + q, which sorts as the pair
    nb = b.n_states

    def steps(pq: int):
        p, q = divmod(pq, nb)
        for ta in a.rows[p]:
            moves = by_label.get((ta.sync, ta.guard, q))
            if moves is None:
                moves = by_label[ta.sync, ta.guard, q] = label_moves(ta.sync, ta.guard, q)
            base = ta.dst * nb
            for sync, guard, dst in moves:
                yield sync, guard, base + dst
        for tb in b_by_shared[q].get(frozenset(), ()):
            yield tb.sync, tb.guard, p * nb + tb.dst

    return _explore(
        a.initial * nb + b.initial, steps, a.names | b.names, a.alphabet, a.inputs | b.inputs
    )


def hide(a: ConstraintAutomaton, hidden) -> ConstraintAutomaton:
    """Drop ``hidden`` names from observability.

    Constraints are existentially eliminated over the hidden names;
    transitions whose sync-set empties become internal moves and are
    collapsed by epsilon-closure into their successors. Unreachable
    states are pruned and the rest re-indexed, and rows are not sorted.
    Each guard is projected once per call, to the canonical guard of its
    new sync-set.
    """
    hidden = frozenset(hidden)
    if not hidden <= a.names:
        raise UnknownNameError(
            f"cannot hide {sorted(hidden - a.names)}: not names of the automaton"
        )
    observable: list[list[tuple[frozenset, frozenset, int]]] = [[] for _ in a.rows]
    silent: list[set[int]] = [set() for _ in a.rows]
    projected: dict[tuple, tuple[frozenset, frozenset | None]] = {}
    for s, row in enumerate(a.rows):
        for t in row:
            key = (t.sync, t.guard)
            if key not in projected:
                sync = t.sync - hidden
                projected[key] = (sync, project(t.guard, sync, t.sync, a.alphabet))
            sync, guard = projected[key]
            if guard is None:
                continue
            if sync:
                observable[s].append((sync, guard, t.dst))
            else:
                silent[s].add(t.dst)

    def closure(state: int) -> list[int]:
        out = {state}
        stack = [state]
        while stack:
            s = stack.pop()
            for nxt in silent[s]:
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return sorted(out)

    def steps(state: int):
        for c in closure(state):
            yield from observable[c]

    return _explore(a.initial, steps, a.names - hidden, a.alphabet, a.inputs - hidden)


def circuit_automata(c: Circuit) -> list[ConstraintAutomaton]:
    """One automaton per channel and per node, in the order compile joins them.

    Nodes are interleaved with their channels, breadth-first along the
    flow. Starting from the boundary-in ports in declaration order keeps
    data restrictions (filters, fifo contents) in the product early, so the
    intermediate state spaces stay close to the final reachable one.
    Channels are visited in id order at each node, and a part of the
    circuit no earlier node reaches starts from its next unvisited
    boundary-in port, or else from the smallest node name.

    Each channel is built over ``value_domains`` of its a-end, so a fifo
    has no state for a value that can never reach it.
    """
    domains = value_domains(c)
    nodes = {n.name: n for n in c.nodes()}
    by_end: dict[str, list[Channel]] = {}
    for ch in sorted(c.channels, key=lambda ch: ch.id):
        by_end.setdefault(ch.end_a, []).append(ch)
        by_end.setdefault(ch.end_b, []).append(ch)
    starts = [p.name for p in c.ports if p.kind == PORT_IN]
    remaining = set(nodes)
    autos: list[ConstraintAutomaton] = []
    added_channels: set[str] = set()
    queue: list[str] = []
    while remaining or queue:
        if not queue:
            seed = next((s for s in starts if s in remaining), min(remaining))
            queue.append(seed)
            remaining.discard(seed)
        name = queue.pop(0)
        autos.append(ca_of_node(nodes[name], c.alphabet))
        for ch in by_end.get(name, ()):
            if ch.id not in added_channels:
                added_channels.add(ch.id)
                autos.append(ca_of_channel(ch, c.alphabet, domains[ch.end_a]))
            for other in (ch.end_a, ch.end_b):
                if other in remaining:
                    remaining.discard(other)
                    queue.append(other)
    return autos


def join_many(
    autos: list[ConstraintAutomaton], keep: frozenset[str] | None = None
) -> ConstraintAutomaton:
    """Fold join over the automata, left to right.

    Join is associative and commutative up to bisimulation, so the order
    of ``autos`` changes only the sizes of the intermediate products and
    the state numbering.

    With ``keep``, the names a later ``hide`` leaves visible, a name is
    finished once it is not in ``keep`` and no later automaton has it, and
    each join's combined guards forget their finished names (``join``'s
    ``live``). No later guard mentions a finished name, so
    ``hide(result, result.names - keep)`` is the same automaton as without
    ``keep``; the reachable state pairs, their numbering and the sync-sets
    are the same at every step, and only guards are weaker.
    """
    if not autos:
        raise ValueError("nothing to join")
    # built backward, so lives[-1] holds the names still needed once the
    # next automaton is joined, and each set is dropped once it is used
    lives = [keep] * (len(autos) - 1)
    if keep is not None:
        for i, auto in enumerate(autos[:1:-1], start=1):
            lives[i] = lives[i - 1] | auto.names
    joined = autos[0]
    for auto in autos[1:]:
        joined = join(joined, auto, lives.pop())
    return joined


def compile_circuit(c: Circuit) -> ConstraintAutomaton:
    """Full pipeline: join every primitive automaton, then hide the internals.

    The automata are joined in ``circuit_automata``'s order and every name
    that is not a declared boundary port is hidden once, at the end, which
    is the definition of the circuit's behaviour. The fold passes the ports
    to ``join_many`` as ``keep``, so each product's guards forget the names
    already finished, which makes each join cheaper and changes no output.
    The result has exactly the boundary ports as names, with the
    boundary-in ports as ``inputs``. States are numbered in discovery
    order, and each row is sorted by ``Transition.sort_key``, once, here.

    The cyclic garbage collector is paused for the whole compile, and
    switched back on at the end only if it was on before. Every product's
    transitions, moves and memo lists are tracked containers that live
    through many young collections, so the collector would walk them
    again and again, for about a tenth of a rescue compile, and find
    nothing: a compile makes no reference cycles, so each product is
    freed by reference counting once the next join drops it, and the
    pause leaves no garbage behind. The pause ends as the compile
    returns, so the collection that follows finds the products freed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = validate_circuit(c)
        if not report.ok:
            raise InvalidCircuitError(report)
        autos = circuit_automata(c)
        if not autos:
            return identity_automaton(c.alphabet)
        ports = c.inputs | c.outputs
        joined = join_many(autos, ports)
        hidden = hide(joined, joined.names - ports)
        rows = tuple(tuple(sorted(row, key=Transition.sort_key)) for row in hidden.rows)
        return hidden._replace(rows=rows)
    finally:
        if enabled:
            gc.enable()


def automaton_to_json(a: ConstraintAutomaton) -> str:
    doc = {
        "names": sorted(a.names),
        "states": [state_name(i) for i in range(a.n_states)],
        "initial": state_name(a.initial),
        "transitions": [
            {
                "from": state_name(src),
                "sync": sorted(t.sync),
                "constraint": pretty(t.guard),
                "to": state_name(t.dst),
            }
            for src, row in enumerate(a.rows)
            for t in row
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def automaton_to_dot(a: ConstraintAutomaton) -> str:
    out = ["digraph automaton {", "  rankdir=LR;"]
    out.append('  __start [shape=none label=""];')
    for i in range(a.n_states):
        s = dot_quote(state_name(i))
        out.append(f"  {s} [label={s} shape=circle];")
    out.append(f"  __start -> {dot_quote(state_name(a.initial))};")
    for i, row in enumerate(a.rows):
        src = dot_quote(state_name(i))
        for t in row:
            label = dot_quote("{" + ",".join(sorted(t.sync)) + "} " + pretty(t.guard))
            out.append(f"  {src} -> {dot_quote(state_name(t.dst))} [label={label}];")
    out.append("}")
    return "\n".join(out) + "\n"
