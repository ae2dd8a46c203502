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
The engine keeps one persistent fact index, a sorted list of facts per
head, so no pass and no report sorts the store. A term is a tagged tuple
whose natural order is the fact order, so the index sorts the facts
themselves. Count indices order as ints.

Two counting rules are engine built-ins rather than rulebase patterns:
set-based fact storage cannot observe "A AND A", so "A => (1)A" and
"A AND (I)A => (I+1)A" are applied per ingested occurrence instead.
"""

from __future__ import annotations

import bisect
import functools
import json
from collections import deque
from collections.abc import KeysView
from typing import NamedTuple

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

BUILTIN_RULE_NAMES = ("r10", "r11")

ORIGIN_SCRIPT = "script"
ORIGIN_TRACE = "trace-mapped"
ORIGIN_DERIVED = "derived-event"

_CASCADE_LIMIT = 1000
_MAX_PASSES = 10000


# A term is a plain tagged tuple whose natural order is the engine's
# fact order: the tag first, then the payload, then the children.
#   (ATOM, name)          an atom
#   (rank, arg)           a unary operator, rank = _OP_RANK[op] in 1..7
#   (COUNT, index, arg)   a counter (index)arg; index is an int >= 1, or
#                         a variable in rule patterns
#   (IMPLIES, lhs, rhs)   a reified implication (lhs=>rhs)
#   (VAR, name)           a pattern variable; never in a stored fact
# Terms of different kinds differ in the tag, so they never compare
# equal and always order by kind. Two ground terms of one kind hold the
# same types at each position, so any two facts compare without error.
Term = tuple

ATOM = 0
COUNT = 8
IMPLIES = 9
VAR = 10

_OP_RANK = {op: i + 1 for i, op in enumerate(UNARY_OPS)}
_VERY = _OP_RANK[VERY_OP]


def Atom(name: str) -> Term:
    return (ATOM, name)


def Var(name: str) -> Term:
    """A pattern variable; never appears in stored facts."""
    return (VAR, name)


def Op(op: str, arg: Term) -> Term:
    rank = _OP_RANK.get(op)
    if rank is None:
        raise ValueError(f"unknown operator {op!r}")
    return (rank, arg)


def Count(index, arg: Term) -> Term:
    """The counter (index)arg: index is an int >= 1, or a Var in patterns."""
    return (COUNT, index, arg)


def Implies(lhs: Term, rhs: Term) -> Term:
    return (IMPLIES, lhs, rhs)


def P(t: Term) -> Term:
    return (_OP_RANK[P_OP], t)


def Very(t: Term) -> Term:
    return (_VERY, t)


def Forbidden(t: Term) -> Term:
    return (_OP_RANK[FORBIDDEN_OP], t)


def Warning(t: Term) -> Term:
    return (_OP_RANK[WARNING_OP], t)


def Failure(t: Term) -> Term:
    return (_OP_RANK[FAILURE_OP], t)


def Resolved(t: Term) -> Term:
    return (_OP_RANK[RESOLVED_OP], t)


def DoubleCheck(t: Term) -> Term:
    return (_OP_RANK[DOUBLECHECK_OP], t)


def is_ground(t: Term) -> bool:
    tag = t[0]
    if tag == ATOM:
        return True
    if tag < COUNT:
        return is_ground(t[1])
    if tag == COUNT:
        return isinstance(t[1], int) and is_ground(t[2])
    if tag == IMPLIES:
        return is_ground(t[1]) and is_ground(t[2])
    return False  # a variable


def depth(t: Term) -> int:
    tag = t[0]
    if tag == ATOM or tag == VAR:
        return 1
    if tag < COUNT:
        return 1 + depth(t[1])
    if tag == COUNT:
        return 1 + depth(t[2])
    return 1 + max(depth(t[1]), depth(t[2]))


def _tag(t: Term) -> tuple:
    """The fact-index bucket of a fact or non-variable pattern.

    A bucket is a prefix of its facts, so walking the buckets in sorted
    order, and each bucket in sorted order, visits every fact in order.
    """
    return t[:2] if t[0] == ATOM else t[:1]


def pretty(t: Term) -> str:
    tag = t[0]
    if tag == ATOM or tag == VAR:
        return t[1]
    if tag == _VERY:
        return f"(Very){pretty(t[1])}"
    if tag < COUNT:
        return f"{UNARY_OPS[tag - 1]}({pretty(t[1])})"
    if tag == COUNT:
        idx = t[1] if isinstance(t[1], int) else t[1][1]
        return f"({idx}){pretty(t[2])}"
    return f"({pretty(t[1])}=>{pretty(t[2])})"


def variables(t: Term) -> set[str]:
    tag = t[0]
    if tag == VAR:
        return {t[1]}
    if tag == ATOM:
        return set()
    if tag < COUNT:
        return variables(t[1])
    if tag == COUNT:
        out = variables(t[2])
        if not isinstance(t[1], int):
            out.add(t[1][1])
        return out
    return variables(t[1]) | variables(t[2])


def match(pattern: Term, term: Term, binding: dict) -> dict | None:
    """Extend ``binding`` so that pattern matches term, or return None.

    Bindings map variable names to Terms, or to ints for count indices.
    """
    tag = pattern[0]
    if tag == VAR:
        bound = binding.get(pattern[1])
        if bound is None:
            out = dict(binding)
            out[pattern[1]] = term
            return out
        return binding if bound == term else None
    if tag == ATOM:
        return binding if pattern == term else None
    if tag != term[0]:
        return None
    if tag < COUNT:
        return match(pattern[1], term[1], binding)
    if tag == COUNT:
        idx = pattern[1]
        if isinstance(idx, int):
            if idx != term[1]:
                return None
        else:
            bound = binding.get(idx[1])
            if bound is None:
                binding = dict(binding)
                binding[idx[1]] = term[1]
            elif bound != term[1]:
                return None
        return match(pattern[2], term[2], binding)
    b = match(pattern[1], term[1], binding)
    if b is None:
        return None
    return match(pattern[2], term[2], b)


def substitute(pattern: Term, binding: dict) -> Term:
    tag = pattern[0]
    if tag == VAR:
        value = binding[pattern[1]]
        if not isinstance(value, tuple):
            raise ValueError(f"variable {pattern[1]} bound to count {value!r}")
        return value
    if tag == ATOM:
        return pattern
    if tag < COUNT:
        return (tag, substitute(pattern[1], binding))
    if tag == COUNT:
        idx = pattern[1]
        if not isinstance(idx, int):
            idx = binding[idx[1]]
        return (COUNT, idx, substitute(pattern[2], binding))
    return (IMPLIES, substitute(pattern[1], binding), substitute(pattern[2], binding))


def event_like(t: Term) -> bool:
    """Occurrence-shaped terms: atoms and intensity-modified terms.

    Status-headed terms (P, Forbidden, ...), counters, and implications
    denote states, so they are stored as facts but never counted.
    """
    return t[0] == ATOM or t[0] == _VERY


def _event_shaped_pattern(t: Term) -> bool:
    tag = t[0]
    if tag == ATOM or tag == VAR:
        return True
    return tag == _VERY and _event_shaped_pattern(t[1])


# Conclusions under these heads are judgements; a rule producing one is
# a fact-rule no matter how its premise is shaped.
_DIAGNOSTIC_RANKS = frozenset(_OP_RANK[op] for op in (WARNING_OP, FAILURE_OP, RESOLVED_OP))


class Guard(NamedTuple):
    """The form ``I > bound`` over a count variable."""

    var: str
    bound: int


class Rule(NamedTuple):
    name: str
    premises: tuple[Term, ...]
    guards: tuple[Guard, ...]
    conclusion: Term


def is_event_implication(rule: Rule) -> bool:
    """Whether ``rule`` runs at ingest: one occurrence-shaped premise, no
    guard, and no judgement concluded. Every other rule is a fact-rule,
    applied by saturation."""
    return (
        len(rule.premises) == 1
        and not rule.guards
        and _event_shaped_pattern(rule.premises[0])
        and rule.conclusion[0] not in _DIAGNOSTIC_RANKS
    )


class StandingFact(NamedTuple):
    name: str | None
    term: Term


class RuleBase(NamedTuple):
    orders: tuple[tuple[str, ...], ...] = ()
    facts: tuple[StandingFact, ...] = ()
    rules: tuple[Rule, ...] = ()


class Event(NamedTuple):
    index: int
    term: Term
    origin: str


class Derivation(NamedTuple):
    rule: str
    premises: tuple[Term, ...]


# Event and Derivation from a field tuple, without the named tuple's
# Python-level __new__: an ingest builds them per event
_event = functools.partial(tuple.__new__, Event)
_derivation = functools.partial(tuple.__new__, Derivation)

# what an event-implication does with its conclusion at ingest
_QUEUED = "queued"  # an occurrence-shaped one: a derived event
_DROPPED = "dropped"  # one beyond max_depth: a DEPTH_LIMIT diagnostic
_STORED = "stored"  # any other: a plain fact


class SaturationResult(NamedTuple):
    """One ``saturate()`` run: whether it reached the fixpoint, and in how
    many passes. A run that did not leaves no diagnostic behind, so a later
    run can still come out clean."""

    converged: bool
    passes: int


class OrderViolation(NamedTuple):
    order: tuple[str, ...]
    index: int
    atom: str
    expected: tuple[str, ...]


class Verdict(NamedTuple):
    """The judgements over a saturated fact store.

    ``diagnostics`` lists what the engine dropped on the way: events or
    facts beyond ``max_depth`` and event cascades cut at their limit. A
    verdict that dropped anything is not ``clean``, because a dropped
    derivation may have led to a finding; the CLI then exits 1 as for a
    finding.
    """

    failures: list[Term]
    warnings: list[Term]
    resolved: list[Term]  # the Warning(...) terms that carry a Resolved fact
    order_violations: list[OrderViolation]
    facts_total: int
    diagnostics: list[str]

    @property
    def clean(self) -> bool:
        return not (
            self.failures or self.warnings or self.order_violations or self.diagnostics
        )

    def to_dict(self) -> dict:
        """JSON form; ``diagnostics`` appears only when there are some."""
        resolved_terms = {pretty(t) for t in self.resolved}
        doc = {
            "failures": [pretty(t) for t in self.failures],
            "warnings": [
                {"term": pretty(t), "resolved": pretty(t) in resolved_terms}
                for t in self.warnings
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
        tag, name = ev.term[:2]
        if tag != ATOM or name not in self.positions:
            return
        order, seen = self.order, self.seen
        i = self.positions[name]
        if any(a not in seen for a in order[:i]):
            expected = tuple(
                a for j, a in enumerate(order) if all(p in seen for p in order[:j])
            )
            self.violations.append(OrderViolation(order, ev.index, name, expected))
        seen.add(name)


class ComplianceEngine:
    """Single-writer fact store with ingest-time counting and saturation.

    Each fact is a key of ``derivations``, which maps it to its first
    derivation; ``facts`` is a read-only view of those keys. The facts are
    also kept in one persistent index, ``_index``: per ``_tag`` bucket,
    a list of the facts kept in term order by ``bisect.insort``; ``_tags``
    lists the buckets in sorted order. ``_fresh`` collects the facts added
    since the last saturation pass began, which is the next pass's delta.
    """

    def __init__(self, rulebase: RuleBase, max_depth: int = 8):
        if max_depth < 0:
            raise ValueError(f"max depth must be >= 0, got {max_depth}")
        for rule in rulebase.rules:
            if rule.name in BUILTIN_RULE_NAMES:
                raise ValueError(
                    f"rule {rule.name} shadows a built-in counting rule"
                )
        self.max_depth = max_depth
        self.derivations: dict[Term, Derivation] = {}
        self.events: list[Event] = []
        self.diagnostics: list[str] = []
        self._diagnosed: set[str] = set()  # the messages in ``diagnostics``
        self._counts: dict[Term, int] = {}
        self._converged = False  # the standing facts are the first delta
        self._plans: dict[Term, tuple] = {}  # see ``_plan``
        # the event-implications, and each fact-rule with its premises as
        # (pattern, bucket) pairs, the bucket being the pattern's ``_tag`` or
        # None for a variable, and the set of its premises' buckets, None
        # when a premise is a variable or there is none (then any pass may
        # fire it)
        self._event_rules = []
        self._fact_rules = []
        for rule in rulebase.rules:
            if is_event_implication(rule):
                self._event_rules.append(rule)
                continue
            premises = tuple((p, None if p[0] == VAR else _tag(p)) for p in rule.premises)
            buckets = frozenset(b for _, b in premises)
            if not premises or None in buckets:
                buckets = None
            self._fact_rules.append((rule, premises, buckets))
        self._index: dict[tuple, list[Term]] = {}
        self._tags: list[tuple] = []
        self._fresh: list[Term] = []
        self._order_watches = [_OrderWatch(order) for order in rulebase.orders]
        for sf in rulebase.facts:
            label = f"standing fact {sf.name}" if sf.name else "standing fact"
            self._add_fact(sf.term, Derivation(label, ()))
        for rule in self._event_rules:
            if is_ground(rule.premises[0]) and is_ground(rule.conclusion):
                self._add_fact(
                    Implies(rule.premises[0], rule.conclusion),
                    Derivation(f"reified {rule.name}", ()),
                )

    @property
    def facts(self) -> KeysView[Term]:
        """Every fact in the store, as a read-only view."""
        return self.derivations.keys()

    # -- ingest -----------------------------------------------------------

    def ingest(self, term: Term, origin: str = ORIGIN_SCRIPT) -> None:
        """Record one occurrence of the ground ``term``. Each event recorded
        goes to ``events``, numbered here.

        Event-implication rules run here: occurrence-shaped conclusions
        become derived events (queued, counted), deontic ones plain
        facts. A worklist bounds runaway implication cycles. What the rules
        conclude from a term is worked out once per distinct term (see
        ``_plan``).
        """
        if not is_ground(term):
            raise ValueError(f"events must be ground terms: {pretty(term)}")
        # each queued event with its derivation, None for the ingested one
        queue: deque[tuple[Term, str, Derivation | None]] = deque([(term, origin, None)])
        processed = 0
        while queue:
            current, current_origin, derivation = queue.popleft()
            processed += 1
            if processed > _CASCADE_LIMIT:
                self._diag(f"EVENT_CASCADE_LIMIT: dropped {pretty(current)}")
                break
            self._ingest_one(current, current_origin, derivation, queue)
        self._converged = False

    def _ingest_one(self, term, origin, derivation, queue):
        plan = self._plans.get(term)
        if plan is None:
            plan = self._plans[term] = self._plan(term)
        term_depth, counted, outcomes = plan
        if term_depth > self.max_depth:
            self._diag(f"DEPTH_LIMIT: dropped event {pretty(term)}")
            return
        event = _event((len(self.events) + 1, term, origin))
        self.events.append(event)
        for watch in self._order_watches:
            watch.observe(event)
        if derivation is None:
            derivation = _derivation((f"event #{event.index}", ()))
        self._add_fact(term, derivation)
        if counted:
            k = self._counts.get(term, 0) + 1
            self._counts[term] = k
            count_fact = (COUNT, k, term)
            if term_depth + 1 > self.max_depth:  # the count fact's depth
                self._diag(f"DEPTH_LIMIT: dropped {pretty(count_fact)}")
            elif k == 1:
                self._add_fact(count_fact, _derivation(("r11", (term,))))
            else:
                self._add_fact(count_fact, _derivation(("r10", (term, (COUNT, k - 1, term)))))
        for kind, conclusion, rule_derivation in outcomes:
            if kind is _QUEUED:
                queue.append((conclusion, ORIGIN_DERIVED, rule_derivation))
            elif kind is _DROPPED:
                self._diag(conclusion)
            else:
                self._add_fact(conclusion, rule_derivation)

    def _plan(self, term: Term) -> tuple:
        """What ingesting the ground ``term`` does apart from numbering and
        counting: ``(depth, counted, outcomes)``.

        ``counted`` says whether the term is occurrence-shaped. ``outcomes``
        lists the event-implications it fires, in rule order, as ``(kind,
        conclusion, derivation)``: a ``_QUEUED`` conclusion is a derived
        event, a ``_STORED`` one a plain fact, and a ``_DROPPED`` one stands
        as its DEPTH_LIMIT message. A term beyond ``max_depth`` fires none.

        ``_ingest_one`` keeps one plan per distinct term. That is exact:
        ``match`` and ``substitute`` are pure, and the rules and
        ``max_depth`` are fixed per engine.
        """
        term_depth = depth(term)
        if term_depth > self.max_depth:
            return term_depth, False, ()
        outcomes = []
        for rule in self._event_rules:
            binding = match(rule.premises[0], term, {})
            if binding is None:
                continue
            conclusion = substitute(rule.conclusion, binding)
            derivation = _derivation((rule.name, (term,)))
            if event_like(conclusion):
                outcomes.append((_QUEUED, conclusion, derivation))
            elif depth(conclusion) > self.max_depth:
                outcomes.append((_DROPPED, f"DEPTH_LIMIT: dropped {pretty(conclusion)}", None))
            else:
                outcomes.append((_STORED, conclusion, derivation))
        return term_depth, event_like(term), tuple(outcomes)

    def add_fact(self, term: Term) -> bool:
        """Directly assert a ground fact (no event, no counting)."""
        if not is_ground(term):
            raise ValueError("facts must be ground")
        stored = self._add_fact(term, Derivation("asserted", ()))
        if stored:
            self._converged = False
        return stored

    def _add_fact(self, term, derivation) -> bool:
        """Store ``term`` with its first derivation; returns whether it is new."""
        if term in self.derivations:
            return False
        self.derivations[term] = derivation
        tag = _tag(term)
        bucket = self._index.get(tag)
        if bucket is None:
            bucket = self._index[tag] = []
            bisect.insort(self._tags, tag)
        bisect.insort(bucket, term)
        self._fresh.append(term)
        return True

    def _diag(self, message: str) -> None:
        if message not in self._diagnosed:
            self._diagnosed.add(message)
            self.diagnostics.append(message)

    # -- saturation -------------------------------------------------------

    def saturate(self) -> SaturationResult:
        """Apply fact-rules to a least fixpoint, deterministically.

        Each pass is semi-naive (see ``_pass``). A run cut off by
        ``_MAX_PASSES`` leaves its last delta for the next run.
        """
        passes = 0
        converged = False
        while passes < _MAX_PASSES:
            passes += 1
            if not self._pass():
                converged = True
                break
        self._converged = converged
        return SaturationResult(converged, passes)

    def _pass(self) -> bool:
        """One semi-naive pass; returns whether it added a fact.

        Bindings are enumerated rule by rule, premise by premise, facts in
        term order, and only those that use a fresh fact (one added since
        the previous pass began) are tried. Every other binding uses only
        facts the previous pass already saw, which then stored its
        conclusion, rejected it by a guard or dropped it with a diagnostic,
        so skipping it changes neither the conclusions nor their order.

        A rule none of whose premise buckets holds a fresh fact is not
        entered at all: a fact matches a non-variable pattern only within
        the pattern's bucket, so such a rule has no binding that uses a
        fresh fact. A rule with a variable premise is always entered. New
        conclusions are stored only after the enumeration, so the pass reads
        one fixed store.
        """
        fresh_facts = sorted(self._fresh)
        self._fresh = []
        fresh: dict = {None: fresh_facts}
        for fact in fresh_facts:
            fresh.setdefault(_tag(fact), []).append(fact)
        fresh_terms = set(fresh_facts)
        pending: dict[Term, Derivation] = {}  # first derivation of each conclusion
        for rule, premises, buckets in self._fact_rules:
            if buckets is not None and buckets.isdisjoint(fresh):
                continue
            for binding in self._bindings(premises, {}, fresh, fresh_terms, False):
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
        for conclusion, derivation in pending.items():
            self._add_fact(conclusion, derivation)
        return bool(pending)

    def _candidates(self, bucket: tuple | None, fresh) -> list[Term]:
        """The facts that may match a non-bound pattern in ``bucket``, its
        ``_tag`` (None for a variable, which any fact may match).

        In term order, from ``fresh`` (the pass's delta by tag, ``None``
        holding all of it) when given, else from the whole index.
        """
        if fresh is not None:
            return fresh.get(bucket, ())
        if bucket is None:
            return self.sorted_facts()
        return self._index.get(bucket, ())

    def _bindings(self, premises, binding, fresh, fresh_terms, used_fresh):
        """Bindings of ``premises``, (pattern, bucket) pairs, that use a
        fresh fact, in term order.

        ``used_fresh`` says whether an earlier premise matched a fresh
        fact; when none did, the last premise draws from the fresh facts
        only.
        """
        if not premises:
            yield binding
            return
        (head, bucket), rest = premises[0], premises[1:]
        only_fresh = not rest and not used_fresh
        if head[0] == VAR and head[1] in binding:
            term = binding[head[1]]
            if term in (fresh_terms if only_fresh else self.derivations):
                yield from self._bindings(
                    rest, binding, fresh, fresh_terms, used_fresh or term in fresh_terms
                )
            return
        for fact in self._candidates(bucket, fresh if only_fresh else None):
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
        """Saturate if needed, then collect the judgements."""
        if not self._converged:
            result = self.saturate()
            if not result.converged:
                raise NotConvergedError(
                    f"saturation did not converge within {_MAX_PASSES} passes"
                )
        return Verdict(
            failures=self._judged(FAILURE_OP),
            warnings=self._judged(WARNING_OP),
            resolved=[fact[1] for fact in self._judged(RESOLVED_OP)],
            order_violations=[v for w in self._order_watches for v in w.violations],
            facts_total=len(self.derivations),
            diagnostics=list(self.diagnostics),
        )

    def _judged(self, op: str) -> list[Term]:
        return list(self._index.get((_OP_RANK[op],), ()))

    def explain(self, fact: Term) -> str:
        """The derivation of ``fact`` as text, one line per fact in preorder,
        each indented two spaces under the fact it supports; a fact's
        children are the premises of its first derivation, in order.

        A fact with premises that is met again is marked `` (above)`` and
        its premises are not repeated, so the text grows with the
        derivation DAG rather than with its paths. Walked with an explicit
        stack, since a count chain ``(k)A <- (k-1)A`` is k levels deep.
        """
        if fact not in self.derivations:
            raise UnknownFactError(pretty(fact))
        lines = []
        shown = set()
        stack = [(fact, 0)]
        while stack:
            term, level = stack.pop()
            rule, premises = self.derivations[term]
            line = f"{'  ' * level}{pretty(term)}  [{rule}]"
            if premises and term in shown:
                lines.append(line + " (above)")
                continue
            shown.add(term)
            lines.append(line)
            stack.extend((p, level + 1) for p in reversed(premises))
        return "\n".join(lines)

    def sorted_facts(self) -> list[Term]:
        return [fact for tag in self._tags for fact in self._index[tag]]
