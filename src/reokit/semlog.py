"""Semantic-logic compliance engine.

Facts are ground terms over a small modal vocabulary: permission P,
intensity Very, the statuses Forbidden / Warning / Failure / Resolved /
DoubleCheck, occurrence counters (k)A, and reified implications (A=>B).
Events stream in one occurrence at a time; occurrence counting and
event-implication rules run at ingest, everything else saturates to a
least fixpoint afterwards.

Saturation is semi-naive: each pass tries only the rule bindings that
use a fact added since the previous pass began, so a verdict after each
event costs work in proportion to the new facts, not to the history.
The engine keeps one persistent fact index, a ``term_key``-sorted list
of ``(key, fact)`` pairs per head, so no pass and no report sorts the
store.

Two counting rules are engine built-ins rather than rulebase patterns:
set-based fact storage cannot observe "A AND A", so "A => (1)A" and
"A AND (I)A => (I+1)A" are applied per ingested occurrence instead.
"""

from __future__ import annotations

import bisect
import json
from collections import deque
from collections.abc import KeysView
from dataclasses import dataclass, field

P_OP = "P"
VERY_OP = "Very"
FORBIDDEN_OP = "Forbidden"
WARNING_OP = "Warning"
FAILURE_OP = "Failure"
RESOLVED_OP = "Resolved"
DOUBLECHECK_OP = "DoubleCheck"

UNARY_OPS = (
    P_OP,
    VERY_OP,
    FORBIDDEN_OP,
    WARNING_OP,
    FAILURE_OP,
    RESOLVED_OP,
    DOUBLECHECK_OP,
)

# Heads that denote a state or judgement rather than an occurrence; terms
# headed by these never feed occurrence counting.
STATUS_OPS = frozenset(UNARY_OPS) - {VERY_OP}

BUILTIN_RULE_NAMES = ("r10", "r11")

ORIGIN_SCRIPT = "script"
ORIGIN_TRACE = "trace-mapped"
ORIGIN_DERIVED = "derived-event"

_CASCADE_LIMIT = 1000


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Atom(Term):
    name: str


@dataclass(frozen=True)
class Var(Term):
    """A pattern variable; never appears in stored facts."""

    name: str


@dataclass(frozen=True)
class Op(Term):
    op: str
    arg: Term


@dataclass(frozen=True)
class Count(Term):
    index: object  # int >= 1, or Var in rule patterns
    arg: Term


@dataclass(frozen=True)
class Implies(Term):
    lhs: Term
    rhs: Term


def P(t: Term) -> Term:
    return Op(P_OP, t)


def Very(t: Term) -> Term:
    return Op(VERY_OP, t)


def Forbidden(t: Term) -> Term:
    return Op(FORBIDDEN_OP, t)


def Warning(t: Term) -> Term:
    return Op(WARNING_OP, t)


def Failure(t: Term) -> Term:
    return Op(FAILURE_OP, t)


def Resolved(t: Term) -> Term:
    return Op(RESOLVED_OP, t)


def DoubleCheck(t: Term) -> Term:
    return Op(DOUBLECHECK_OP, t)


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Atom):
        return True
    if isinstance(t, Op):
        return is_ground(t.arg)
    if isinstance(t, Count):
        return isinstance(t.index, int) and is_ground(t.arg)
    if isinstance(t, Implies):
        return is_ground(t.lhs) and is_ground(t.rhs)
    raise TypeError(t)


def depth(t: Term) -> int:
    if isinstance(t, (Atom, Var)):
        return 1
    if isinstance(t, Op):
        return 1 + depth(t.arg)
    if isinstance(t, Count):
        return 1 + depth(t.arg)
    if isinstance(t, Implies):
        return 1 + max(depth(t.lhs), depth(t.rhs))
    raise TypeError(t)


_OP_RANK = {op: i + 1 for i, op in enumerate(UNARY_OPS)}


def term_key(t: Term) -> tuple:
    """Total structural ordering: operator rank, then payload, then children."""
    if isinstance(t, Atom):
        return (0, t.name, ())
    if isinstance(t, Op):
        return (_OP_RANK[t.op], "", (term_key(t.arg),))
    if isinstance(t, Count):
        if isinstance(t.index, int):
            payload = f"{t.index:09d}"
        else:
            payload = "~" + t.index.name
        return (8, payload, (term_key(t.arg),))
    if isinstance(t, Implies):
        return (9, "", (term_key(t.lhs), term_key(t.rhs)))
    if isinstance(t, Var):
        return (10, t.name, ())
    raise TypeError(t)


def _tag(t: Term) -> tuple:
    """The fact-index bucket of a fact or non-variable pattern.

    Buckets sort as the ``term_key`` of their facts do, so walking them
    in sorted order visits every fact in key order.
    """
    if isinstance(t, Atom):
        return (0, t.name)
    if isinstance(t, Op):
        return (_OP_RANK[t.op],)
    if isinstance(t, Count):
        return (8,)
    if isinstance(t, Implies):
        return (9,)
    raise TypeError(t)


def pretty(t: Term) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Op):
        if t.op == VERY_OP:
            return f"(Very){pretty(t.arg)}"
        return f"{t.op}({pretty(t.arg)})"
    if isinstance(t, Count):
        idx = t.index if isinstance(t.index, int) else t.index.name
        return f"({idx}){pretty(t.arg)}"
    if isinstance(t, Implies):
        return f"({pretty(t.lhs)}=>{pretty(t.rhs)})"
    raise TypeError(t)


def variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Atom):
        return set()
    if isinstance(t, Op):
        return variables(t.arg)
    if isinstance(t, Count):
        out = variables(t.arg)
        if isinstance(t.index, Var):
            out.add(t.index.name)
        return out
    if isinstance(t, Implies):
        return variables(t.lhs) | variables(t.rhs)
    raise TypeError(t)


def match(pattern: Term, term: Term, binding: dict) -> dict | None:
    """Extend ``binding`` so that pattern matches term, or return None.

    Bindings map variable names to Terms, or to ints for count indices.
    """
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is None:
            out = dict(binding)
            out[pattern.name] = term
            return out
        return binding if bound == term else None
    if isinstance(pattern, Atom):
        return binding if pattern == term else None
    if isinstance(pattern, Op):
        if isinstance(term, Op) and term.op == pattern.op:
            return match(pattern.arg, term.arg, binding)
        return None
    if isinstance(pattern, Count):
        if not isinstance(term, Count):
            return None
        if isinstance(pattern.index, Var):
            bound = binding.get(pattern.index.name)
            if bound is None:
                binding = dict(binding)
                binding[pattern.index.name] = term.index
            elif bound != term.index:
                return None
        elif pattern.index != term.index:
            return None
        return match(pattern.arg, term.arg, binding)
    if isinstance(pattern, Implies):
        if not isinstance(term, Implies):
            return None
        b = match(pattern.lhs, term.lhs, binding)
        if b is None:
            return None
        return match(pattern.rhs, term.rhs, b)
    raise TypeError(pattern)


def substitute(pattern: Term, binding: dict) -> Term:
    if isinstance(pattern, Var):
        value = binding[pattern.name]
        if not isinstance(value, Term):
            raise ValueError(f"variable {pattern.name} bound to count {value!r}")
        return value
    if isinstance(pattern, Atom):
        return pattern
    if isinstance(pattern, Op):
        return Op(pattern.op, substitute(pattern.arg, binding))
    if isinstance(pattern, Count):
        idx = pattern.index
        if isinstance(idx, Var):
            idx = binding[idx.name]
        return Count(idx, substitute(pattern.arg, binding))
    if isinstance(pattern, Implies):
        return Implies(substitute(pattern.lhs, binding), substitute(pattern.rhs, binding))
    raise TypeError(pattern)


def event_like(t: Term) -> bool:
    """Occurrence-shaped terms: atoms and intensity-modified terms.

    Status-headed terms (P, Forbidden, ...), counters, and implications
    denote states, so they are stored as facts but never counted.
    """
    return isinstance(t, Atom) or (isinstance(t, Op) and t.op == VERY_OP)


def _event_shaped_pattern(t: Term) -> bool:
    if isinstance(t, (Atom, Var)):
        return True
    if isinstance(t, Op) and t.op == VERY_OP:
        return _event_shaped_pattern(t.arg)
    return False


EVENT_IMPLICATION = "event-implication"
FACT_RULE = "fact-rule"

# Conclusions under these heads are judgements; a rule producing one is
# a fact-rule no matter how its premise is shaped.
_DIAGNOSTIC_OPS = frozenset({WARNING_OP, FAILURE_OP, RESOLVED_OP})


@dataclass(frozen=True)
class Guard:
    """The form ``I > bound`` over a count variable."""

    var: str
    bound: int


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Term, ...]
    guards: tuple[Guard, ...]
    conclusion: Term

    @property
    def rule_class(self) -> str:
        if (
            len(self.premises) == 1
            and not self.guards
            and _event_shaped_pattern(self.premises[0])
            and not (
                isinstance(self.conclusion, Op)
                and self.conclusion.op in _DIAGNOSTIC_OPS
            )
        ):
            return EVENT_IMPLICATION
        return FACT_RULE


@dataclass(frozen=True)
class StandingFact:
    name: str | None
    term: Term


@dataclass(frozen=True)
class RuleBase:
    orders: tuple[tuple[str, ...], ...] = ()
    facts: tuple[StandingFact, ...] = ()
    rules: tuple[Rule, ...] = ()

    @property
    def declaration_count(self) -> int:
        return len(self.orders) + len(self.facts) + len(self.rules)

    @property
    def builtin_count(self) -> int:
        return len(BUILTIN_RULE_NAMES)

    @property
    def total_rule_count(self) -> int:
        return self.declaration_count + self.builtin_count

    def event_implications(self) -> list[Rule]:
        return [r for r in self.rules if r.rule_class == EVENT_IMPLICATION]

    def fact_rules(self) -> list[Rule]:
        return [r for r in self.rules if r.rule_class == FACT_RULE]


@dataclass(frozen=True)
class Event:
    index: int
    term: Term
    origin: str


@dataclass(frozen=True)
class Derivation:
    rule: str
    premises: tuple[Term, ...]


@dataclass
class SaturationResult:
    """One ``saturate()`` run; ``NOT_CONVERGED`` in ``diagnostics`` is this
    run's alone, not the engine's, so a later run can still come out clean."""

    converged: bool
    passes: int
    diagnostics: list[str]


@dataclass(frozen=True)
class OrderViolation:
    order: tuple[str, ...]
    index: int
    atom: str
    expected: tuple[str, ...]


@dataclass
class Verdict:
    """The judgements over a saturated fact store.

    ``diagnostics`` lists what the engine dropped on the way: events or
    facts beyond ``max_depth`` and event cascades cut at their limit. A
    verdict that dropped anything is not ``clean``, because a dropped
    derivation may have led to a finding; the CLI then exits 1 as for a
    finding.
    """

    failures: list[tuple[Term, Derivation]]
    warnings: list[tuple[Term, Derivation]]
    resolved: list[tuple[Term, Derivation]]
    order_violations: list[OrderViolation]
    facts_total: int
    diagnostics: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.failures or self.warnings or self.order_violations or self.diagnostics
        )

    def resolved_warnings(self) -> list[Term]:
        """The Warning(...) terms that carry a matching Resolved fact."""
        return [t for t, _ in self.resolved]

    def to_dict(self) -> dict:
        """JSON form; ``diagnostics`` appears only when there are some."""
        resolved_terms = {pretty(t) for t in self.resolved_warnings()}
        doc = {
            "failures": [pretty(t) for t, _ in self.failures],
            "warnings": [
                {"term": pretty(t), "resolved": pretty(t) in resolved_terms}
                for t, _ in self.warnings
            ],
            "resolved": sorted(resolved_terms),
            "order_violations": [
                {
                    "order": " >> ".join(v.order),
                    "index": v.index,
                    "atom": v.atom,
                    "expected": list(v.expected),
                }
                for v in self.order_violations
            ],
            "facts_total": self.facts_total,
        }
        if self.diagnostics:
            doc["diagnostics"] = list(self.diagnostics)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _warned(t: Term) -> Term:
    return t.arg if isinstance(t, Op) and t.op == WARNING_OP else t


@dataclass
class DerivationNode:
    term: Term
    rule: str
    children: list["DerivationNode"]

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{pretty(self.term)}  [{self.rule}]"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class NotConvergedError(RuntimeError):
    pass


class UnknownFactError(KeyError):
    pass


class _OrderWatch:
    """Prefix-discipline state of one declared order over a growing event log."""

    def __init__(self, order: tuple[str, ...]):
        self.order = order
        self.positions = {a: i for i, a in enumerate(order)}
        self.seen: set[str] = set()
        self.violations: list[OrderViolation] = []

    def observe(self, ev: Event) -> None:
        if not isinstance(ev.term, Atom) or ev.term.name not in self.positions:
            return
        order, seen = self.order, self.seen
        i = self.positions[ev.term.name]
        if any(a not in seen for a in order[:i]):
            expected = tuple(
                a for j, a in enumerate(order) if all(p in seen for p in order[:j])
            )
            self.violations.append(OrderViolation(order, ev.index, ev.term.name, expected))
        seen.add(ev.term.name)


def check_sequence(
    events: list[Event], orders: tuple[tuple[str, ...], ...]
) -> list[OrderViolation]:
    """Prefix-discipline check of declared atom orderings.

    Restricted to each order's atoms, an occurrence is legal only when
    every predecessor atom has occurred at least once before it. Every
    occurrence, legal or not, counts as seen afterwards. Violations are
    listed order by order, in declaration order.
    """
    violations = []
    for order in orders:
        watch = _OrderWatch(order)
        for ev in events:
            watch.observe(ev)
        violations.extend(watch.violations)
    return violations


class ComplianceEngine:
    """Single-writer fact store with ingest-time counting and saturation.

    Each fact is a key of ``derivations``, which maps it to its first
    derivation; ``facts`` is a read-only view of those keys. The facts are
    also kept in one persistent index, ``_index``: per
    ``_tag`` bucket, a list of ``(term_key(fact), fact)`` pairs kept in
    key order by ``bisect.insort``; ``_tags`` lists the buckets in sorted
    order. ``_fresh`` collects the pairs added since the last saturation
    pass began, which is the next pass's delta.
    """

    def __init__(self, rulebase: RuleBase, max_depth: int = 8, max_iterations: int = 10000):
        if max_depth < 0:
            raise ValueError(f"max depth must be >= 0, got {max_depth}")
        for rule in rulebase.rules:
            if rule.name in BUILTIN_RULE_NAMES:
                raise ValueError(
                    f"rule {rule.name} shadows a built-in counting rule"
                )
        self.rulebase = rulebase
        self.max_depth = max_depth
        self.max_iterations = max_iterations
        self.derivations: dict[Term, Derivation] = {}
        self.events: list[Event] = []
        self.diagnostics: list[str] = []
        self._counts: dict[Term, int] = {}
        self._converged = False  # the standing facts are the first delta
        self._event_rules = rulebase.event_implications()
        self._fact_rules = rulebase.fact_rules()
        self._index: dict[tuple, list[tuple[tuple, Term]]] = {}
        self._tags: list[tuple] = []
        self._fresh: list[tuple[tuple, Term]] = []
        self._order_watches = [_OrderWatch(order) for order in rulebase.orders]
        for sf in rulebase.facts:
            label = f"standing fact {sf.name}" if sf.name else "standing fact"
            self._add_fact(sf.term, Derivation(label, ()), set())
        for rule in self._event_rules:
            if is_ground(rule.premises[0]) and is_ground(rule.conclusion):
                self._add_fact(
                    Implies(rule.premises[0], rule.conclusion),
                    Derivation(f"reified {rule.name}", ()),
                    set(),
                )

    @property
    def facts(self) -> KeysView[Term]:
        """Every fact in the store, as a read-only view."""
        return self.derivations.keys()

    # -- ingest -----------------------------------------------------------

    def ingest(self, item, origin: str = ORIGIN_SCRIPT) -> set[Term]:
        """Record one event occurrence; returns the facts it introduced.

        Event-implication rules run here: occurrence-shaped conclusions
        become derived events (queued, counted), deontic ones plain
        facts. A worklist bounds runaway implication cycles.
        """
        term = item.term if isinstance(item, Event) else item
        if not is_ground(term):
            raise ValueError(f"events must be ground terms: {pretty(term)}")
        new: set[Term] = set()
        queue: deque[tuple[Term, str, tuple | None]] = deque([(term, origin, None)])
        processed = 0
        while queue:
            current, current_origin, via = queue.popleft()
            processed += 1
            if processed > _CASCADE_LIMIT:
                self._diag(f"EVENT_CASCADE_LIMIT: dropped {pretty(current)}")
                break
            self._ingest_one(current, current_origin, via, new, queue)
        self._converged = False
        return new

    def _ingest_one(self, term, origin, via, new, queue):
        if depth(term) > self.max_depth:
            self._diag(f"DEPTH_LIMIT: dropped event {pretty(term)}")
            return
        event = Event(len(self.events) + 1, term, origin)
        self.events.append(event)
        for watch in self._order_watches:
            watch.observe(event)
        if via is None:
            derivation = Derivation(f"event #{event.index}", ())
        else:
            rule_name, premise = via
            derivation = Derivation(rule_name, (premise,))
        self._add_fact(term, derivation, new)
        if event_like(term):
            k = self._counts.get(term, 0) + 1
            self._counts[term] = k
            count_fact = Count(k, term)
            if depth(count_fact) > self.max_depth:
                self._diag(f"DEPTH_LIMIT: dropped {pretty(count_fact)}")
            else:
                premises = (term,) if k == 1 else (term, Count(k - 1, term))
                name = "r11" if k == 1 else "r10"
                self._add_fact(
                    count_fact,
                    Derivation(name, premises),
                    new,
                )
        for rule in self._event_rules:
            binding = match(rule.premises[0], term, {})
            if binding is None:
                continue
            conclusion = substitute(rule.conclusion, binding)
            if event_like(conclusion):
                queue.append((conclusion, ORIGIN_DERIVED, (rule.name, term)))
            elif depth(conclusion) > self.max_depth:
                self._diag(f"DEPTH_LIMIT: dropped {pretty(conclusion)}")
            else:
                self._add_fact(
                    conclusion,
                    Derivation(rule.name, (term,)),
                    new,
                )

    def add_fact(self, term: Term, label: str = "asserted") -> bool:
        """Directly assert a ground fact (no event, no counting)."""
        if not is_ground(term):
            raise ValueError("facts must be ground")
        new: set[Term] = set()
        self._add_fact(term, Derivation(label, ()), new)
        if new:
            self._converged = False
        return bool(new)

    def _add_fact(self, term, derivation, new) -> None:
        if term in self.derivations:
            return
        self.derivations[term] = derivation
        new.add(term)
        pair = (term_key(term), term)
        tag = _tag(term)
        bucket = self._index.get(tag)
        if bucket is None:
            bucket = self._index[tag] = []
            bisect.insort(self._tags, tag)
        bisect.insort(bucket, pair)
        self._fresh.append(pair)

    def _diag(self, message: str) -> None:
        if message not in self.diagnostics:
            self.diagnostics.append(message)

    # -- saturation -------------------------------------------------------

    def saturate(self) -> SaturationResult:
        """Apply fact-rules to a least fixpoint, deterministically.

        Each pass is semi-naive (see ``_pass``). A run cut off by
        ``max_iterations`` leaves its last delta for the next run.
        """
        passes = 0
        converged = False
        while passes < self.max_iterations:
            passes += 1
            if not self._pass():
                converged = True
                break
        self._converged = converged
        stopped = f"NOT_CONVERGED: no fixpoint within {self.max_iterations} passes"
        return SaturationResult(
            converged=converged,
            passes=passes,
            diagnostics=self.diagnostics + ([] if converged else [stopped]),
        )

    def _pass(self) -> bool:
        """One semi-naive pass; returns whether it added a fact.

        Bindings are enumerated rule by rule, premise by premise, facts in
        key order, and only those that use a fresh fact (one added since
        the previous pass began) are tried. Every other binding uses only
        facts the previous pass already saw, which then stored its
        conclusion, rejected it by a guard or dropped it with a diagnostic,
        so skipping it changes neither the conclusions nor their order. New conclusions are stored only after
        the enumeration, so the pass reads one fixed store.
        """
        fresh_pairs = sorted(self._fresh)
        self._fresh = []
        fresh: dict = {None: fresh_pairs}
        for pair in fresh_pairs:
            fresh.setdefault(_tag(pair[1]), []).append(pair)
        fresh_terms = {t for _, t in fresh_pairs}
        pending: dict[Term, Derivation] = {}  # first derivation of each conclusion
        for rule in self._fact_rules:
            for binding in self._bindings(rule.premises, {}, fresh, fresh_terms, False):
                if not all(self._guard_ok(g, binding) for g in rule.guards):
                    continue
                conclusion = substitute(rule.conclusion, binding)
                if conclusion in self.derivations or conclusion in pending:
                    continue
                if depth(conclusion) > self.max_depth:
                    self._diag(f"DEPTH_LIMIT: dropped {pretty(conclusion)}")
                    continue
                premises = tuple(
                    substitute(p, binding) for p in rule.premises
                )
                pending[conclusion] = Derivation(rule.name, premises)
        new: set[Term] = set()
        for conclusion, derivation in pending.items():
            self._add_fact(conclusion, derivation, new)
        return bool(pending)

    def _candidates(self, pattern: Term, fresh) -> list[tuple[tuple, Term]]:
        """The ``(key, fact)`` pairs that may match a non-bound ``pattern``.

        In key order, from ``fresh`` (the pass's delta by tag, ``None``
        holding all of it) when given, else from the whole index.
        """
        if fresh is not None:
            return fresh.get(None if isinstance(pattern, Var) else _tag(pattern), ())
        if isinstance(pattern, Var):
            return [pair for tag in self._tags for pair in self._index[tag]]
        return self._index.get(_tag(pattern), ())

    def _bindings(self, premises, binding, fresh, fresh_terms, used_fresh):
        """Bindings of ``premises`` that use a fresh fact, in key order.

        ``used_fresh`` says whether an earlier premise matched a fresh
        fact; when none did, the last premise draws from the fresh facts
        only.
        """
        if not premises:
            yield binding
            return
        head, rest = premises[0], premises[1:]
        only_fresh = not rest and not used_fresh
        if isinstance(head, Var) and head.name in binding:
            term = binding[head.name]
            if term in (fresh_terms if only_fresh else self.derivations):
                yield from self._bindings(
                    rest, binding, fresh, fresh_terms, used_fresh or term in fresh_terms
                )
            return
        for _, fact in self._candidates(head, fresh if only_fresh else None):
            extended = match(head, fact, binding)
            if extended is not None:
                yield from self._bindings(
                    rest,
                    extended,
                    fresh,
                    fresh_terms,
                    used_fresh or (bool(rest) and fact in fresh_terms),
                )

    @staticmethod
    def _guard_ok(guard: Guard, binding: dict) -> bool:
        value = binding.get(guard.var)
        return isinstance(value, int) and value > guard.bound

    # -- reporting --------------------------------------------------------

    def verdict(self) -> Verdict:
        """Saturate if needed, then collect judgements with provenance."""
        if not self._converged:
            result = self.saturate()
            if not result.converged:
                raise NotConvergedError(
                    f"saturation did not converge within {self.max_iterations} passes"
                )
        return Verdict(
            failures=self._judged(FAILURE_OP),
            warnings=self._judged(WARNING_OP),
            # the warned Warning(...) term, with the provenance of its Resolved fact
            resolved=[(fact.arg, d) for fact, d in self._judged(RESOLVED_OP)],
            order_violations=[v for w in self._order_watches for v in w.violations],
            facts_total=len(self.derivations),
            diagnostics=list(self.diagnostics),
        )

    def _judged(self, op: str) -> list[tuple[Term, Derivation]]:
        bucket = self._index.get((_OP_RANK[op],), ())
        return [(fact, self.derivations[fact]) for _, fact in bucket]

    def explain(self, fact: Term) -> DerivationNode:
        if fact not in self.derivations:
            raise UnknownFactError(pretty(fact))
        derivation = self.derivations[fact]
        children = [self.explain(p) for p in derivation.premises if p in self.derivations]
        return DerivationNode(fact, derivation.rule, children)

    def sorted_facts(self) -> list[Term]:
        return [fact for tag in self._tags for _, fact in self._index[tag]]

    def max_count(self, term: Term) -> int:
        return self._counts.get(term, 0)
