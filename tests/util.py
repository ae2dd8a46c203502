"""Shared generators, fixtures text, and oracles for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

from reokit import automata as A
from reokit import circuit as C
from reokit import semlog as S
from reokit.analysis import Step, expanded_steps
from reokit.dsl import parse_circuit

ALPHABET = frozenset({"ok", "bad"})

SEQ3_TEXT = """
circuit seq3 {
  data { tick }
  ports { out s1; out s2; out s3; }
  fifo1(n3, n1, init=tick);
  fifo1(n1, n2);
  fifo1(n2, n3);
  sync(n1, s1);
  sync(n2, s2);
  sync(n3, s3);
}
"""

# fifo1 and syncdrain between the same two nodes: the drain demands both
# fifo ends fire together, which a fifo1 never does, so nothing can move.
BLOCKER_TEXT = """
circuit blocker {
  data { ok }
  ports { in a; }
  fifo1(a, b);
  syncdrain(a, b);
}
"""

MINIMAL_SYNC_TEXT = "circuit mini { data { ok, bad } ports { in a; out b; } sync(a, b) }"

LOSSY_TEXT = "circuit lossy { data { ok, bad } ports { in a; out b; } lossysync(a, b) }"

MERGER_TEXT = """
circuit merger {
  data { ok }
  ports { in a1; in a2; out b; }
  sync(a1, m);
  sync(a2, m);
  sync(m, b);
}
"""


def holds(g: frozenset[tuple], assignment: dict[str, str]) -> bool:
    """Oracle: whether ``assignment`` satisfies guard ``g``, atom by atom."""
    for atom in g:
        tag = atom[0]
        if tag == A.EQ:
            if assignment[atom[1]] != assignment[atom[2]]:
                return False
        elif tag == A.CONST:
            if assignment[atom[1]] != atom[2]:
                return False
        else:
            if assignment[atom[1]] not in atom[2]:
                return False
    return True


def project_over_names(
    g: frozenset[tuple], keep: frozenset[str], names: frozenset[str], alphabet: frozenset[str]
) -> frozenset[tuple] | None:
    """Oracle: ``automata.project`` by its definition, with equality classes
    over every name of ``names``, mentioned by the guard or not."""
    root = C.partition(names, ((a[1], a[2]) for a in g if a[0] == A.EQ))
    allowed = {r: alphabet for r in root.values()}
    for atom in g:
        if atom[0] == A.CONST:
            allowed[root[atom[1]]] &= {atom[2]}
        elif atom[0] == A.MEMBER:
            allowed[root[atom[1]]] &= frozenset(atom[2])
    if not all(allowed.values()):
        return None
    visible: dict[str, list[str]] = {}
    for n in sorted(names & keep):
        visible.setdefault(root[n], []).append(n)
    atoms = set()
    for r, members in visible.items():
        atoms.update((A.EQ, a, b) for a, b in zip(members, members[1:]))
        vals = allowed[r]
        if vals != alphabet:
            if len(vals) == 1:
                atoms.add((A.CONST, members[0], next(iter(vals))))
            else:
                atoms.add((A.MEMBER, members[0], tuple(sorted(vals))))
    return frozenset(atoms)


# a word is a tuple of steps, what the trace enumerators collect
Word = tuple[Step, ...]


def traces_upto(a: A.ConstraintAutomaton, k: int) -> list[Word]:
    """Every word of length <= k labeling a path from the initial state."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    words: set[Word] = {()}
    frontier: list[tuple[int, Word]] = [(a.initial, ())]
    for _ in range(k):
        nxt: list[tuple[int, Word]] = []
        for state, word in frontier:
            for step, dst in expanded_steps(a, state):
                extended = word + (step,)
                if extended not in words:
                    words.add(extended)
                nxt.append((dst, extended))
        frontier = nxt
    return sorted(words)


def observable_traces(a: A.ConstraintAutomaton, visible, k: int) -> list[Word]:
    """Words over ``visible`` names of length <= k, ignoring silent steps.

    Steps are projected onto the visible names (data included); a step
    whose projection is empty advances the state without consuming depth.
    This enumerator is independent of hide(), which makes it usable as an
    oracle for hiding correctness: for any automaton A,
    observable_traces(A, V, k) == traces_upto(hide(A, names - V), k).
    """
    visible = frozenset(visible)
    words: set[Word] = set()
    seen: set[tuple[int, Word]] = set()
    frontier: list[tuple[int, Word]] = [(a.initial, ())]
    while frontier:
        nxt: list[tuple[int, Word]] = []
        for state, word in frontier:
            if (state, word) in seen:
                continue
            seen.add((state, word))
            words.add(word)
            for step, dst in expanded_steps(a, state):
                sync, data = step
                proj_sync = tuple(n for n in sync if n in visible)
                proj_data = tuple((n, v) for n, v in data if n in visible)
                if proj_sync:
                    if len(word) < k:
                        nxt.append((dst, word + ((proj_sync, proj_data),)))
                else:
                    nxt.append((dst, word))
        frontier = nxt
    return sorted(words)


def boundary_ports(c: C.Circuit) -> tuple[frozenset[C.PortId], frozenset[C.PortId]]:
    """The declared boundary ports, partitioned into (inputs, outputs)."""
    rep = C.validate_circuit(c)
    if not rep.ok:
        raise C.InvalidCircuitError(rep)
    ins = frozenset(C.PortId(n, C.PORT_IN) for n in c.inputs)
    outs = frozenset(C.PortId(n, C.PORT_OUT) for n in c.outputs)
    return ins, outs


def check_sequence(
    events: list[S.Event], orders: tuple[tuple[str, ...], ...]
) -> list[S.OrderViolation]:
    """Prefix-discipline check of declared atom orderings, over a whole log.

    Restricted to each order's atoms, an occurrence is legal only when
    every predecessor atom has occurred at least once before it. Every
    occurrence, legal or not, counts as seen afterwards. Violations are
    listed order by order, in declaration order.
    """
    violations = []
    for order in orders:
        watch = S._OrderWatch(order)
        for ev in events:
            watch.observe(ev)
        violations.extend(watch.violations)
    return violations


def scan_lookup(entries, port: str, datum: str) -> str | None:
    """Oracle: the event-map lookup as a scan over ``(port, datum or None, atom)``
    entries; an entry naming ``datum`` wins over a port-only one."""
    specific = fallback = None
    for p, d, atom in entries:
        if p != port:
            continue
        if d == datum:
            specific = atom
        elif d is None:
            fallback = atom
    return specific if specific is not None else fallback


def term_key(t: S.Term) -> tuple:
    """Oracle: the structural term order that the tuple order replaced.

    Operator rank, then a string payload (a count index padded to 9
    digits), then the children's keys. Below 10**9 occurrences it orders
    terms as the tuples' natural order does.
    """
    tag = t[0]
    if tag == S.ATOM:
        return (0, t[1], ())
    if tag == S.VAR:
        return (10, t[1], ())
    if tag == S.COUNT:
        idx = t[1]
        payload = f"{idx:09d}" if isinstance(idx, int) else "~" + idx[1]
        return (8, payload, (term_key(t[2]),))
    if tag == S.IMPLIES:
        return (9, "", (term_key(t[1]), term_key(t[2])))
    (rank,) = [r for r, op in enumerate(S.UNARY_OPS, 1) if S.Op(op, t[1]) == t]
    return (rank, "", (term_key(t[1]),))


def counted(facts, term: S.Term) -> list[int]:
    """The sorted indices k of the count facts (k)term among ``facts``."""
    return sorted(f[1] for f in facts if f[0] == S.COUNT and f[2] == term)


def perfbench_gen():
    """The benchmark's input generators, ``perfbench/gen.py``, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def dispatch_circuit(k: int) -> C.Circuit:
    """The benchmark's dispatch circuit with ``k`` staff branches, parsed
    from ``perfbench/gen.py``'s text."""
    return parse_circuit(perfbench_gen().dispatch_circuit(k))


def random_guard(rng: random.Random, sync: list[str], alphabet=ALPHABET) -> frozenset[tuple]:
    values = sorted(alphabet)
    kind = rng.randrange(4)
    if kind == 0:
        return A.TRUE
    if kind == 1 and len(sync) >= 2:
        a, b = rng.sample(sync, 2)
        return A.eq(a, b)
    if kind == 2:
        return A.const(rng.choice(sync), rng.choice(values))
    subset = rng.sample(values, rng.randint(1, len(values)))
    return A.member(rng.choice(sync), subset)


def random_automaton(rng: random.Random, alphabet=ALPHABET) -> A.ConstraintAutomaton:
    """Small automaton: <= 3 states, <= 2 names, <= 4 transitions."""
    names = ["a", "b"][: rng.randint(0, 2)]
    n_states = rng.randint(1, 3)
    labels = [f"q{i}" for i in range(n_states)]
    transitions = []
    if names:
        for _ in range(rng.randint(0, 4)):
            sync = rng.sample(names, rng.randint(1, len(names)))
            transitions.append(
                (
                    labels[rng.randrange(n_states)],
                    set(sync),
                    random_guard(rng, sync, alphabet),
                    labels[rng.randrange(n_states)],
                )
            )
    return A.build_automaton(names, labels, labels[0], transitions, alphabet)


_DIRECTED = ("sync", "lossysync", "fifo1", "filter", "transform")


def _make_channel(rng: random.Random, cid: str, kind: str, a: str, b: str) -> C.Channel:
    values = sorted(ALPHABET)
    init = accept = transform = None
    if kind == "fifo1" and rng.random() < 0.5:
        init = rng.choice(values)
    if kind == "filter":
        accept = frozenset(rng.sample(values, rng.randint(1, len(values))))
    if kind == "transform":
        shuffled = list(values)
        rng.shuffle(shuffled)
        transform = tuple(sorted(zip(values, shuffled)))
    return C.Channel(cid, kind, a, b, init=init, accept=accept, transform=transform)


def random_circuit(rng: random.Random, max_extra: int = 3, max_ins: int = 2) -> C.Circuit:
    """A small circuit that always passes validation.

    Boundary-in nodes only source channels; directed channels never end
    at a boundary-in node; the single out port always has an incoming
    channel. Drains may land anywhere internal.
    """
    ins = [f"i{k}" for k in range(rng.randint(1, max_ins))]
    outs = ["o0"]
    internal = [f"x{k}" for k in range(rng.randint(1, 2))]
    counter = itertools.count(1)
    channels: list[C.Channel] = []

    def add(kind: str, a: str, b: str) -> None:
        channels.append(_make_channel(rng, f"c{next(counter)}", kind, a, b))

    for ip in ins:
        add(rng.choice(_DIRECTED), ip, rng.choice(internal + outs))
    if not any(ch.end_b == "o0" and ch.kind in _DIRECTED for ch in channels):
        add(rng.choice(_DIRECTED), rng.choice(internal), "o0")
    for _ in range(rng.randint(0, max_extra)):
        kind = rng.choice(_DIRECTED + ("syncdrain", "asyncdrain"))
        if kind in ("syncdrain", "asyncdrain"):
            add(kind, rng.choice(internal + ins), rng.choice(internal))
        else:
            add(kind, rng.choice(internal + ins), rng.choice(internal + outs))
    ports = tuple(
        [C.PortId(ip, C.PORT_IN) for ip in ins] + [C.PortId("o0", C.PORT_OUT)]
    )
    return C.Circuit("rnd", ALPHABET, ports, tuple(channels))


def random_tame_circuit(rng: random.Random, max_branching: int = 4):
    """A random circuit whose compiled automaton branches modestly.

    Depth-6 trace-language comparisons are exponential in the per-state
    branching factor, so circuits above the bound are resampled; the
    draw stays deterministic for a seeded rng.
    """
    for _ in range(200):
        c = random_circuit(rng, max_extra=1, max_ins=1)
        auto = A.compile_circuit(c)
        widths = [
            sum(len(assignments) for _, _, assignments, _ in auto.moves[s])
            for s in range(auto.n_states)
        ]
        if max(widths, default=0) <= max_branching:
            return c, auto
    raise AssertionError("no tame circuit found in 200 draws")


def circuit_signature(c: C.Circuit):
    """Structure up to channel-id renaming: for isomorphism checks."""

    def params(ch):
        accept = None if ch.accept is None else tuple(sorted(ch.accept))
        return (ch.init, accept, ch.transform)

    return (
        c.alphabet,
        frozenset((p.name, p.kind) for p in c.ports),
        tuple(
            sorted(
                (ch.kind, ch.end_a, ch.end_b, repr(params(ch))) for ch in c.channels
            )
        ),
    )


def brute_product(a: A.ConstraintAutomaton, b: A.ConstraintAutomaton):
    """Definition-faithful product oracle, no reachability pruning.

    Returns (all state pairs, set of ((p,q), sync, guard, (p',q'))
    for satisfiable combined transitions, reachable pair set).
    Independent of join(): a plain double loop over the definition.
    """
    pairs = [(p, q) for p in range(a.n_states) for q in range(b.n_states)]
    transitions = set()
    for p, q in pairs:
        for ta in a.rows[p]:
            if not (ta.sync & b.names):
                transitions.add(((p, q), ta.sync, ta.guard, (ta.dst, q)))
            for tb in b.rows[q]:
                if ta.sync & b.names == tb.sync & a.names:
                    sync = ta.sync | tb.sync
                    norm = A.project(A.conj(ta.guard, tb.guard), sync, sync, a.alphabet)
                    if norm is not None:
                        transitions.add(
                            ((p, q), sync, norm, (ta.dst, tb.dst))
                        )
        for tb in b.rows[q]:
            if not (tb.sync & a.names):
                transitions.add(((p, q), tb.sync, tb.guard, (p, tb.dst)))
    start = (a.initial, b.initial)
    reach = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pq in frontier:
            for src, _, _, dst in transitions:
                if src == pq and dst not in reach:
                    reach.add(dst)
                    nxt.append(dst)
        frontier = nxt
    return pairs, transitions, reach


def random_rescue_env(auto: A.ConstraintAutomaton, seed: int, rounds: int = 2000):
    """A seeded env for the rescue automaton under policy closed: each round
    offers a random subset of the inputs with random values (``bad`` among
    them) and, most rounds, makes a random subset of the outputs ready."""
    from reokit import sim

    rng = random.Random(seed)
    values = sorted(auto.alphabet)
    ins, outs = sorted(auto.inputs), sorted(auto.names - auto.inputs)
    script = {}
    for n in range(1, rounds + 1):
        offers = tuple((p, rng.choice(values)) for p in ins if rng.random() < 0.5)
        ready = frozenset(p for p in outs if rng.random() < 0.7)
        script[n] = sim.Round(offers, ready if rng.random() < 0.9 else frozenset())
    return sim.EnvScript(script, frozenset())


def naive_engine(rulebase: S.RuleBase, events, max_depth: int):
    """Oracle: ingest the ground ``events`` (script origin), then saturate,
    the plain way, without ``ComplianceEngine.ingest``.

    Each event's cascade matches every event-implication afresh: it records
    the event, counts it when occurrence-shaped, and queues, stores or drops
    each conclusion, with the engine's depth drops and cascade limit. Each
    saturation pass enumerates every binding of every fact-rule over the
    whole sorted store. Returns the recorded events as ``(index, term,
    origin)``, the ``(fact, derivation)`` pairs in insertion order, the
    diagnostics in order, and the verdict.
    """
    derivations: dict[S.Term, S.Derivation] = {}
    diagnostics: list[str] = []

    def diag(message):
        if message not in diagnostics:
            diagnostics.append(message)

    def add(term, rule, premises):
        if term not in derivations:
            derivations[term] = S.Derivation(rule, premises)

    event_rules = [r for r in rulebase.rules if S.is_event_implication(r)]
    fact_rules = [r for r in rulebase.rules if not S.is_event_implication(r)]
    for sf in rulebase.facts:
        add(sf.term, f"standing fact {sf.name}" if sf.name else "standing fact", ())
    for r in event_rules:
        if S.is_ground(r.premises[0]) and S.is_ground(r.conclusion):
            add(S.Implies(r.premises[0], r.conclusion), f"reified {r.name}", ())

    recorded: list[tuple[int, S.Term, str]] = []
    counts: dict[S.Term, int] = {}
    for event in events:
        queue = [(event, S.ORIGIN_SCRIPT, None, None)]  # term, origin, rule, premise
        processed = 0
        while queue:
            term, origin, rule_name, premise = queue.pop(0)
            processed += 1
            if processed > 1000:
                diag(f"EVENT_CASCADE_LIMIT: dropped {S.pretty(term)}")
                break
            if S.depth(term) > max_depth:
                diag(f"DEPTH_LIMIT: dropped event {S.pretty(term)}")
                continue
            recorded.append((len(recorded) + 1, term, origin))
            if rule_name is None:
                add(term, f"event #{len(recorded)}", ())
            else:
                add(term, rule_name, (premise,))
            if S.event_like(term):
                k = counts[term] = counts.get(term, 0) + 1
                if S.depth(S.Count(k, term)) > max_depth:
                    diag(f"DEPTH_LIMIT: dropped {S.pretty(S.Count(k, term))}")
                elif k == 1:
                    add(S.Count(1, term), "r11", (term,))
                else:
                    add(S.Count(k, term), "r10", (term, S.Count(k - 1, term)))
            for r in event_rules:
                binding = S.match(r.premises[0], term, {})
                if binding is None:
                    continue
                conclusion = S.substitute(r.conclusion, binding)
                if S.event_like(conclusion):
                    queue.append((conclusion, S.ORIGIN_DERIVED, r.name, term))
                elif S.depth(conclusion) > max_depth:
                    diag(f"DEPTH_LIMIT: dropped {S.pretty(conclusion)}")
                else:
                    add(conclusion, r.name, (term,))

    def bindings(premises, facts, binding):
        if not premises:
            yield binding
            return
        for fact in facts:
            extended = S.match(premises[0], fact, binding)
            if extended is not None:
                yield from bindings(premises[1:], facts, extended)

    while True:
        facts = sorted(derivations)
        pending: dict[S.Term, S.Derivation] = {}
        for r in fact_rules:
            for binding in bindings(r.premises, facts, {}):
                if not all(
                    isinstance(binding.get(g.var), int) and binding[g.var] > g.bound
                    for g in r.guards
                ):
                    continue
                conclusion = S.substitute(r.conclusion, binding)
                if conclusion in derivations or conclusion in pending:
                    continue
                if S.depth(conclusion) > max_depth:
                    diag(f"DEPTH_LIMIT: dropped {S.pretty(conclusion)}")
                    continue
                premises = tuple(S.substitute(p, binding) for p in r.premises)
                pending[conclusion] = S.Derivation(r.name, premises)
        if not pending:
            break
        derivations.update(pending)

    facts = sorted(derivations)

    def judged(head):
        return [f for f in facts if f[0] == head(S.Atom("x"))[0]]

    verdict = S.Verdict(
        failures=judged(S.Failure),
        warnings=judged(S.Warning),
        resolved=[f[1] for f in judged(S.Resolved)],
        order_violations=check_sequence(
            [S.Event(*e) for e in recorded], rulebase.orders
        ),
        facts_total=len(derivations),
        diagnostics=list(diagnostics),
    )
    return recorded, list(derivations.items()), diagnostics, verdict


def random_rulebase(rng: random.Random) -> S.RuleBase:
    """A seeded rulebase over the atoms a, b, c for ``naive_engine`` draws.

    Event-implications have ground and variable premises, with
    occurrence-shaped and deontic conclusions; an occurrence-shaped
    conclusion is deeper than its premise, or a later atom than an atom
    premise, so no cascade cycles. Fact-rules include counts with ``I>n``
    guards and two-premise joins.
    """
    X, Y, I = S.Var("X"), S.Var("Y"), S.Var("I")
    atoms = [S.Atom(n) for n in "abc"]

    def atom():
        return rng.choice(atoms)

    def deontic(base):
        return rng.choice(
            [S.P(base), S.Forbidden(base), S.DoubleCheck(base), S.P(S.Very(base)),
             S.Implies(base, atom())]
        )

    rules = []
    for n in range(rng.randint(1, 4)):
        shape = rng.randrange(4)
        if shape == 0:  # an atom premise
            premise = atom()
            later = atoms[atoms.index(premise) + 1:]
            occurrences = [S.Very(atom()), S.Very(premise)] + later
            base = premise
        elif shape == 1:  # a ground intensity premise
            premise = S.Very(atom())
            occurrences = [S.Very(premise), S.Very(S.Very(atom()))]
            base = premise
        else:  # a variable premise, bare or under Very
            premise = X if shape == 2 else S.Very(X)
            occurrences = [S.Very(premise), S.Very(S.Very(X))]
            base = X
        if rng.random() < 0.5:
            conclusion = rng.choice(occurrences)
        else:
            conclusion = deontic(base if rng.random() < 0.7 else atom())
        rules.append(S.Rule(f"e{n}", (premise,), (), conclusion))
    for n in range(rng.randint(1, 4)):
        shape = rng.randrange(3)
        if shape == 0:  # a count with a guard
            arg = rng.choice([X, X, atom()])
            premises = (S.Count(I, arg),)
            guards = (S.Guard("I", rng.randint(0, 3)),)
            base = arg
        elif shape == 1:  # a join on X
            first = rng.choice([X, S.P(X), S.Forbidden(X), S.DoubleCheck(X), S.Very(X)])
            second = rng.choice([S.P(X), S.Forbidden(X), S.Warning(X), S.DoubleCheck(S.P(X))])
            premises, guards, base = (first, second), (), X
        else:  # modus ponens over a reified implication
            premises, guards, base = (S.Implies(X, Y), X), (), Y
        conclusion = rng.choice(
            [S.Warning(base), S.Failure(base), S.Resolved(S.Warning(base)),
             S.P(S.Very(base)), S.DoubleCheck(base)]
        )
        rules.append(S.Rule(f"s{n}", premises, guards, conclusion))
    standing = tuple(
        S.StandingFact(f"f{n}", rng.choice([S.P(atom()), S.Forbidden(S.Very(atom())),
                                            S.Warning(atom())]))
        for n in range(rng.randint(0, 2))
    )
    orders = ()
    if rng.random() < 0.5:
        orders = (tuple(rng.sample("abc", rng.randint(2, 3))),)
    return S.RuleBase(orders, standing, tuple(rules))


def random_events(rng: random.Random, n: int) -> list[S.Term]:
    """``n`` ground events over a, b, c for ``naive_engine`` draws: atoms,
    intensity-modified atoms of two depths, and status-headed terms."""
    a, b, c = (S.Atom(x) for x in "abc")
    pool = [a, b, c, a, b, S.Very(a), S.Very(b), S.Very(c), S.Very(S.Very(a)),
            S.P(a), S.Forbidden(b), S.Implies(a, c)]
    return [rng.choice(pool) for _ in range(n)]
