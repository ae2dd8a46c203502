import hashlib
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reokit import dsl, semlog
from reokit.semlog import (
    Atom,
    ComplianceEngine,
    Count,
    DoubleCheck,
    Event,
    Failure,
    Forbidden,
    Guard,
    Implies,
    NotConvergedError,
    P,
    Resolved,
    Rule,
    RuleBase,
    StandingFact,
    UnknownFactError,
    Var,
    Very,
    Warning,
    depth,
    is_ground,
    match,
    pretty,
    substitute,
)

from util import (
    check_sequence,
    counted,
    naive_engine,
    random_events,
    random_rulebase,
    term_key,
)

BUDGET = Atom("BudgetConsuming")
HELI = Atom("HelicopterMission")
RESCUE_ATOMS = [
    "AmbulanceRequest",
    "FireRequest",
    "PoliceRequest",
    "HelicopterMission",
    "BudgetConsuming",
]


RULES_TEXT = resources.files("reokit").joinpath("data/rescue.rules").read_text()


def rescue_engine(**kw):
    return ComplianceEngine(dsl.parse_rulebase(RULES_TEXT), **kw)


# -- term utilities -----------------------------------------------------------


def test_depth_and_groundness():
    w = Warning(P(Very(BUDGET)))
    assert depth(w) == 4
    assert is_ground(w)
    assert not is_ground(P(Var("A")))
    assert not is_ground(Count(Var("I"), BUDGET))


UNARY = [P, Very, Forbidden, Warning, Failure, Resolved, DoubleCheck]
# Atom names: identifiers that are not single uppercase letters, which
# the pattern parser reads as variables. A few fixed names make equal
# draws likely; "Very" and "Warning" are operator words used as atoms.
ATOM_NAMES = st.sampled_from(["a", "b", "Very", "Warning", "AB"]) | st.from_regex(
    r"[a-z_][A-Za-z0-9_]{0,8}", fullmatch=True
)
VAR_NAMES = st.sampled_from("ABIXY")
SMALL_INDEX = st.integers(1, 4) | st.integers(1, 10**9 - 1)


def terms(var_index=False):
    """Random terms, variables included; count indices are ints below
    10**9, or also count variables when ``var_index`` is set."""
    index = SMALL_INDEX | st.builds(Var, VAR_NAMES) if var_index else SMALL_INDEX
    leaves = st.builds(Atom, ATOM_NAMES) | st.builds(Var, VAR_NAMES)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(lambda op, t: op(t), st.sampled_from(UNARY), sub),
            st.builds(Count, index, sub),
            st.builds(Implies, sub, sub),
        ),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(terms(), max_size=12))
def test_term_order_is_the_old_key_order(ts):
    assert sorted(ts) == sorted(ts, key=term_key)


@settings(max_examples=200, deadline=None)
@given(terms(), terms())
def test_terms_are_equal_exactly_when_their_old_keys_are(x, y):
    assert (x == y) == (term_key(x) == term_key(y))
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(terms(var_index=True))
def test_pretty_parses_back_to_the_term(t):
    assert dsl.parse_term(pretty(t), allow_vars=True) == t


def test_no_two_kinds_compare_equal():
    a = Atom("A")
    kinds = [a, Var("A"), *(op(a) for op in UNARY), Count(1, a), Implies(a, a)]
    assert len(set(kinds)) == len(kinds)
    for x in kinds:
        assert [y for y in kinds if y == x] == [x]
    by_kind = kinds[:1] + kinds[2:] + kinds[1:2]  # atom, operators, count, implication, variable
    assert sorted(kinds) == sorted(kinds, key=term_key) == by_kind
    assert Count(10**9, a) > Count(2 * 10**8, a)  # ints, not 9-digit strings
    with pytest.raises(ValueError):
        semlog.Op("Maybe", a)


def test_match_and_substitute():
    pattern = Warning(P(Var("A")))
    binding = match(pattern, Warning(P(Very(BUDGET))), {})
    assert binding == {"A": Very(BUDGET)}
    assert substitute(Resolved(pattern), binding) == Resolved(Warning(P(Very(BUDGET))))
    assert match(pattern, Failure(P(BUDGET)), {}) is None
    count = match(Count(Var("I"), Var("A")), Count(3, BUDGET), {})
    assert count == {"I": 3, "A": BUDGET}


# -- ingest and counting ------------------------------------------------------


def test_first_mission_event_cascades():
    eng = rescue_engine()
    stored = len(eng.derivations)
    eng.ingest(HELI)
    for fact in (HELI, Count(1, HELI), BUDGET, Count(1, BUDGET)):
        assert fact in eng.facts
    assert len(eng.derivations) == stored + 4
    assert [e.origin for e in eng.events] == ["script", "derived-event"]


def test_third_occurrence_keeps_lower_counts():
    eng = rescue_engine()
    for _ in range(3):
        eng.ingest(HELI)
    for k in (1, 2, 3):
        assert Count(k, BUDGET) in eng.facts
    assert Count(4, BUDGET) not in eng.facts


def test_diagnostic_events_are_not_counted_and_idempotent():
    eng = rescue_engine()
    fact = DoubleCheck(P(Very(BUDGET)))
    eng.ingest(fact)
    assert fact in eng.facts
    stored = len(eng.derivations)
    eng.ingest(fact)
    assert len(eng.derivations) == stored
    assert counted(eng.facts, fact) == []


def test_depth_limit_drops_with_diagnostic():
    eng = rescue_engine(max_depth=2)
    eng.ingest(Very(Very(Very(BUDGET))))
    assert any("DEPTH_LIMIT" in d for d in eng.diagnostics)
    assert eng.events == []  # the dropped occurrence never entered the log
    verdict = eng.verdict()
    assert verdict.diagnostics == eng.diagnostics
    assert not verdict.clean  # a dropped derivation may have been a finding
    assert verdict.to_dict()["diagnostics"] == eng.diagnostics


def test_reified_implications_present_with_provenance():
    eng = rescue_engine()
    fact = Implies(HELI, BUDGET)
    assert fact in eng.facts
    assert eng.derivations[fact] == ("reified r5", ())
    assert eng.explain(fact) == "(HelicopterMission=>BudgetConsuming)  [reified r5]"


# -- saturation unit rules ----------------------------------------------------


def unit_engine(rules_text):
    return ComplianceEngine(dsl.parse_rulebase(rules_text))


def test_rule12_threshold():
    eng = rescue_engine()
    eng.add_fact(Count(3, BUDGET))
    eng.saturate()
    assert P(Very(BUDGET)) in eng.facts
    eng2 = rescue_engine()
    eng2.add_fact(Count(2, BUDGET))
    eng2.saturate()
    assert P(Very(BUDGET)) not in eng2.facts


def test_rule7_warning():
    eng = rescue_engine()
    eng.add_fact(Forbidden(Very(BUDGET)))
    eng.add_fact(P(Very(BUDGET)))
    eng.saturate()
    assert Warning(P(Very(BUDGET))) in eng.facts


def test_rule15_collapse():
    eng = rescue_engine()
    eng.add_fact(P(P(Atom("x"))))
    eng.saturate()
    assert P(Atom("x")) in eng.facts


def test_rule14_commute():
    eng = rescue_engine()
    eng.add_fact(Very(P(Atom("x"))))
    eng.saturate()
    assert P(Very(Atom("x"))) in eng.facts


def test_rule13_modus_ponens_on_reified_implication():
    eng = rescue_engine()
    eng.add_fact(Implies(HELI, BUDGET))
    eng.add_fact(P(HELI))
    eng.saturate()
    assert P(BUDGET) in eng.facts


def test_standing_facts_saturate_without_events():
    eng = unit_engine(
        "fact f: Forbidden(x)\nfact p: P(x)\nrule r7: Forbidden(A) AND P(A) => Warning(P(A))\n"
    )
    assert [pretty(t) for t in eng.verdict().warnings] == ["Warning(P(x))"]


def test_saturation_deterministic_and_batch_independent():
    stream = [HELI, Atom("FireRequest"), HELI, Very(BUDGET), HELI]
    eng1 = rescue_engine()
    for t in stream:
        eng1.ingest(t)
    eng1.saturate()
    r1 = eng1.sorted_facts()
    eng2 = rescue_engine()
    for t in stream:
        eng2.ingest(t)
        eng2.saturate()
    eng2.saturate()
    r2 = eng2.sorted_facts()
    assert r1 == r2
    eng3 = rescue_engine()
    for t in stream:
        eng3.ingest(t)
    eng3.saturate()
    assert eng3.sorted_facts() == r1


def test_monotone_growth():
    rng = random.Random(5)
    stream = [Atom(rng.choice(RESCUE_ATOMS)) for _ in range(12)]
    eng = rescue_engine()
    previous: set = set()
    for t in stream:
        eng.ingest(t)
        eng.saturate()
        assert previous <= eng.facts
        previous = set(eng.facts)


def test_count_coherence():
    rng = random.Random(9)
    eng = rescue_engine()
    occurrences: dict = {}
    for _ in range(15):
        t = Atom(rng.choice(RESCUE_ATOMS))
        eng.ingest(t)
    for ev in eng.events:  # includes derived events
        occurrences[ev.term] = occurrences.get(ev.term, 0) + 1
    for t, k in occurrences.items():
        assert counted(eng.facts, t) == list(range(1, k + 1))


def test_nonconvergence_detected(monkeypatch):
    # a fact-rule (two premises) that grows terms one level per pass;
    # with a generous depth cap it cannot reach a fixpoint in 3 passes
    monkeypatch.setattr(semlog, "_MAX_PASSES", 3)
    grow = Rule("grow", (Var("A"), Var("A")), (), P(Var("A")))
    rb = RuleBase(rules=(grow,))
    assert grow.rule_class == "fact-rule"
    eng = ComplianceEngine(rb, max_depth=50)
    eng.add_fact(Atom("x"))
    result = eng.saturate()
    assert not result.converged and result.passes == 3
    with pytest.raises(NotConvergedError, match="within 3 passes"):
        eng.verdict()


def test_later_convergence_leaves_verdict_clean(monkeypatch):
    # P(P(A)) => P(A) strips one P per pass, so from P^5(x) three passes
    # are too few; the next saturate() reaches the fixpoint, and the
    # verdict must carry nothing of the earlier run that stopped short
    monkeypatch.setattr(semlog, "_MAX_PASSES", 3)
    strip = Rule("strip", (P(P(Var("A"))),), (), P(Var("A")))
    eng = ComplianceEngine(RuleBase(rules=(strip,)))
    eng.add_fact(P(P(P(P(P(Atom("x")))))))
    assert not eng.saturate().converged
    assert eng.saturate().converged
    verdict = eng.verdict()
    assert P(Atom("x")) in eng.facts
    assert verdict.diagnostics == [] and eng.diagnostics == []
    assert verdict.clean


def test_builtin_rule_shadowing_rejected():
    with pytest.raises(ValueError):
        ComplianceEngine(RuleBase(rules=(Rule("r10", (Var("A"),), (), Var("A")),)))


def test_cyclic_event_implications_hit_cascade_guard():
    rb = RuleBase(
        rules=(
            Rule("ping", (Atom("A"),), (), Atom("B")),
            Rule("pong", (Atom("B"),), (), Atom("A")),
        )
    )
    eng = ComplianceEngine(rb)
    eng.ingest(Atom("A"))
    assert any("EVENT_CASCADE_LIMIT" in d for d in eng.diagnostics)
    assert eng.saturate().converged  # the fact store itself stays finite


def test_rule_classification():
    shaped = Rule("ei", (Atom("X"),), (), Atom("Y"))
    assert shaped.rule_class == "event-implication"
    deontic = Rule("ei2", (Atom("X"),), (), P(Atom("Y")))
    assert deontic.rule_class == "event-implication"
    diagnostic = Rule("fr", (Atom("X"),), (), Warning(Atom("X")))
    assert diagnostic.rule_class == "fact-rule"
    guarded = Rule("fr2", (Count(Var("I"), Var("A")),), (Guard("I", 2),), P(Var("A")))
    assert guarded.rule_class == "fact-rule"
    modal_premise = Rule("fr3", (P(P(Var("A"))),), (), P(Var("A")))
    assert modal_premise.rule_class == "fact-rule"


# -- sequence checking --------------------------------------------------------


ORDER = (("AmbulanceRequest", "FireRequest", "PoliceRequest"),)


def events_of(names):
    return [Event(i + 1, Atom(n), "script") for i, n in enumerate(names)]


def test_sequence_in_order_is_clean():
    assert check_sequence(events_of(["AmbulanceRequest", "FireRequest", "PoliceRequest"]), ORDER) == []


def test_sequence_police_first_violates():
    (v,) = check_sequence(events_of(["PoliceRequest"]), ORDER)
    assert v.index == 1
    assert v.atom == "PoliceRequest"
    assert v.expected == ("AmbulanceRequest",)


def test_sequence_empty_and_repeats():
    assert check_sequence([], ORDER) == []
    assert check_sequence(
        events_of(["AmbulanceRequest", "AmbulanceRequest", "FireRequest"]), ORDER
    ) == []


def test_sequence_expected_set_grows():
    violations = check_sequence(
        events_of(["AmbulanceRequest", "PoliceRequest"]), ORDER
    )
    (v,) = violations
    assert v.index == 2
    assert v.expected == ("AmbulanceRequest", "FireRequest")


# -- verdict and explain ------------------------------------------------------


def test_full_warning_chain_verdict():
    eng = rescue_engine()
    for _ in range(3):
        eng.ingest(HELI)
    verdict = eng.verdict()
    assert [pretty(t) for t in verdict.warnings] == ["Warning(P((Very)BudgetConsuming))"]
    assert verdict.failures == []
    assert verdict.resolved == []
    eng.ingest(DoubleCheck(P(Very(BUDGET))))
    verdict = eng.verdict()
    assert [pretty(t) for t in verdict.resolved] == [
        "Warning(P((Very)BudgetConsuming))"
    ]
    eng.ingest(Very(BUDGET))
    verdict = eng.verdict()
    assert [pretty(t) for t in verdict.failures] == ["Failure((Very)BudgetConsuming)"]
    assert not verdict.clean
    assert verdict.facts_total == len(eng.facts)


def test_two_missions_no_warning():
    eng = rescue_engine()
    eng.ingest(HELI)
    eng.ingest(HELI)
    verdict = eng.verdict()
    assert verdict.warnings == []


def test_explain_trees():
    eng = rescue_engine()
    eng.ingest(Atom("x"))
    assert eng.explain(Count(1, Atom("x"))).splitlines() == ["(1)x  [r11]", "  x  [event #1]"]
    assert eng.explain(Forbidden(Very(BUDGET))) == (
        "Forbidden((Very)BudgetConsuming)  [standing fact r6]"
    )
    with pytest.raises(UnknownFactError):
        eng.explain(Atom("never_seen"))


def test_explain_prints_a_repeated_fact_once_with_its_premises():
    # BudgetConsuming [r5] supports each of the three counts; its premise
    # is printed under the first one only
    eng = rescue_engine()
    for _ in range(3):
        eng.ingest(HELI)
    eng.saturate()
    assert eng.explain(Warning(P(Very(BUDGET)))).splitlines() == [
        "Warning(P((Very)BudgetConsuming))  [r7]",
        "  Forbidden((Very)BudgetConsuming)  [standing fact r6]",
        "  P((Very)BudgetConsuming)  [r12]",
        "    (3)BudgetConsuming  [r10]",
        "      BudgetConsuming  [r5]",
        "        HelicopterMission  [event #1]",
        "      (2)BudgetConsuming  [r10]",
        "        BudgetConsuming  [r5] (above)",
        "        (1)BudgetConsuming  [r11]",
        "          BudgetConsuming  [r5] (above)",
    ]


def test_explain_grows_with_the_derivation_dag_not_its_paths():
    # f_i rests on f_(i-1) twice, so the chain of 16 diamonds has 2^16
    # paths from Failure(f16) down to the one event f0, over 19 facts
    rules = [
        Rule(f"y{i}", (Atom(f"f{i - 1}"), Atom(f"f{i - 1}")), (), Atom(f"f{i}"))
        for i in range(1, 17)
    ]
    rules.append(Rule("z", (Atom("f16"),), (), Failure(Atom("f16"))))
    eng = ComplianceEngine(RuleBase(rules=tuple(rules)))
    eng.ingest(Atom("f0"))
    verdict = eng.verdict()
    assert verdict.failures == [Failure(Atom("f16"))] and verdict.facts_total == 19
    lines = eng.explain(Failure(Atom("f16"))).splitlines()
    assert len(lines) <= 34
    assert lines[:2] == ["Failure(f16)  [z]", "  f16  [y16]"]
    assert sum(line.endswith("(above)") for line in lines) == 15
    assert lines.count(" " * 2 * 17 + "f0  [event #1]") == 2


def test_verdict_json_shape():
    eng = rescue_engine()
    for _ in range(3):
        eng.ingest(HELI)
    doc = eng.verdict().to_dict()
    assert set(doc) == {"failures", "warnings", "resolved", "order_violations", "facts_total"}
    assert doc["warnings"][0]["resolved"] is False


# -- convergence on random streams ---------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(RESCUE_ATOMS), max_size=20))
def test_random_streams_saturate(names):
    eng = rescue_engine()
    for name in names:
        eng.ingest(Atom(name))
    result = eng.saturate()
    assert result.converged


# -- incremental (semi-naive) saturation --------------------------------------


STREAM_POOL = [Atom(n) for n in RESCUE_ATOMS] + [
    HELI,
    DoubleCheck(P(Very(BUDGET))),
    Very(BUDGET),
]


def pool_stream(seed, n):
    rng = random.Random(seed)
    return [rng.choice(STREAM_POOL) for _ in range(n)]


def test_online_monitor_output_pinned():
    # Verdict after every event, then every fact with its derivation, the
    # diagnostics and the total saturation passes. The digest was recorded
    # with the naive saturation that re-matched every rule against the whole
    # store on every pass; the semi-naive passes must reproduce it exactly.
    # Re-pinned without the depth column when ``Derivation.depth`` went; the
    # lines without it hash the same before and after that removal.
    eng = rescue_engine()
    lines = []
    passes = 0
    for i, term in enumerate(pool_stream(2024, 300)):
        eng.ingest(term)
        passes += eng.saturate().passes
        lines.append(f"{i} {eng.verdict().to_json()}")
    for fact in eng.sorted_facts():
        d = eng.derivations[fact]
        lines.append(f"{pretty(fact)} [{d.rule}] {[pretty(p) for p in d.premises]}")
    lines.append(repr(eng.diagnostics))
    lines.append(f"passes {passes}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3059070bd5bddf4e5c82883dbc9562f82050f81449f4ba9abdc2aaf4047e7980"


def test_verdict_work_does_not_grow_with_history(monkeypatch):
    calls = [0]
    real_match = semlog.match

    def counting_match(pattern, term, binding):
        calls[0] += 1
        return real_match(pattern, term, binding)

    monkeypatch.setattr(semlog, "match", counting_match)
    stream = pool_stream(7, 1000)
    stream[99] = stream[999] = HELI
    eng = rescue_engine()
    cost = {}
    for i, term in enumerate(stream, start=1):
        before = calls[0]
        eng.ingest(term)
        eng.verdict()
        cost[i] = calls[0] - before
    assert 0 < cost[1000] <= 2 * cost[100]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 80))
def test_incremental_order_violations_match_batch_check(seed, n):
    rules = dsl.parse_rulebase(RULES_TEXT)
    orders = rules.orders + (
        ("BudgetConsuming", "FireRequest"),
        ("HelicopterMission", "AmbulanceRequest", "PoliceRequest"),
    )
    eng = ComplianceEngine(RuleBase(orders, rules.facts, rules.rules), max_depth=3)
    rng = random.Random(seed)
    protocol = ["AmbulanceRequest", "FireRequest", "PoliceRequest"]
    stream = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.1:
            stream.append(HELI)
        elif roll < 0.15:
            stream.append(Very(Very(Very(BUDGET))))  # dropped beyond max_depth
        else:
            stream.append(Atom(protocol[i % 3]))
            if rng.random() < 0.2 and len(stream) >= 2:
                stream[-1], stream[-2] = stream[-2], stream[-1]
    for term in stream:
        eng.ingest(term)
        assert eng.verdict().order_violations == check_sequence(eng.events, orders)


def test_premise_buckets_are_worked_out_once(monkeypatch):
    # a fact is bucketed when it is stored and once more in the pass it is
    # fresh in; a rule premise's bucket is worked out when the engine starts,
    # not on every candidate lookup
    calls = [0]
    real_tag = semlog._tag

    def counting_tag(t):
        calls[0] += 1
        return real_tag(t)

    eng = rescue_engine()
    monkeypatch.setattr(semlog, "_tag", counting_tag)
    for term in pool_stream(11, 300):
        eng.ingest(term)
        eng.verdict()
    assert 0 < calls[0] <= 2 * len(eng.facts)


# -- rules a pass can skip ----------------------------------------------------


# a variable premise (s2, s5), an implication fact (f1), a count guard (s3)
# and event implications (e1, e2), beside plain two-premise rules
SYNTHETIC_RULES_TEXT = """
protocol { Alpha >> Beta >> Gamma }
fact f1: (Alpha=>Beta)
fact f2: Forbidden(Gamma)
rule e1: Alpha => (Very)Gamma
rule e2: Beta => P(Delta)
rule s1: (A=>B) AND P(A) => P(B)
rule s2: (A=>B) AND A => DoubleCheck(B)
rule s3: (I)A AND I>1 => P(A)
rule s4: Forbidden(A) AND P(A) => Warning(P(A))
rule s5: X AND Forbidden(X) => Failure(X)
rule s6: Warning(P(A)) AND DoubleCheck(A) => Resolved(Warning(P(A)))
"""
SYNTHETIC_POOL = [
    dsl.parse_term(text)
    for text in (
        "Alpha", "Beta", "Gamma", "Delta", "(Very)Alpha", "P(Alpha)",
        "(Gamma=>Delta)", "Forbidden(Delta)", "DoubleCheck(Gamma)",
    )
]


def _judged_run(rules, stream, max_depth, online, skip):
    """Every verdict and pass count of a run, then the store and diagnostics;
    with ``skip`` off, every rule is entered on every pass."""
    eng = ComplianceEngine(rules, max_depth=max_depth)
    if not skip:
        eng._fact_rules = [(rule, premises, None) for rule, premises, _ in eng._fact_rules]
    verdicts = []
    for term in stream:
        eng.ingest(term)
        if online:
            verdicts.append((eng.saturate().passes, eng.verdict().to_json()))
    verdicts.append((eng.saturate().passes, eng.verdict().to_json()))
    return list(eng.derivations.items()), eng.diagnostics, verdicts


@pytest.mark.parametrize("name", ["rescue", "synthetic"])
def test_skipping_rules_no_fresh_fact_can_feed_changes_no_output(name, monkeypatch):
    rules = dsl.parse_rulebase(RULES_TEXT if name == "rescue" else SYNTHETIC_RULES_TEXT)
    pool = STREAM_POOL if name == "rescue" else SYNTHETIC_POOL
    calls = [0]
    real_match = semlog.match

    def counting_match(pattern, term, binding):
        calls[0] += 1
        return real_match(pattern, term, binding)

    monkeypatch.setattr(semlog, "match", counting_match)
    matched = {True: 0, False: 0}
    for seed in range(4):
        rng = random.Random(seed)
        stream = [rng.choice(pool) for _ in range(60)]
        for max_depth in (1, 2, 3, 8):
            for online in (True, False):
                runs = {}
                for skip in (True, False):
                    before = calls[0]
                    runs[skip] = _judged_run(rules, stream, max_depth, online, skip)
                    matched[skip] += calls[0] - before
                assert runs[True] == runs[False], (seed, max_depth, online)
    assert matched[True] < matched[False]


def test_a_rule_without_premises_is_entered_on_every_pass():
    # no premise bucket can hold a fresh fact, yet its one binding fires
    eng = ComplianceEngine(RuleBase(rules=(Rule("bare", (), (), Atom("a")),)))
    assert eng.verdict().facts_total == 1
    assert eng.derivations[Atom("a")] == semlog.Derivation("bare", ())


def test_diagnostics_are_deduplicated_without_scanning_the_list():
    class ScanCountingList(list):
        scans = 0

        def __contains__(self, item):
            ScanCountingList.scans += 1
            return super().__contains__(item)

    # at max_depth 1 each count fact (k)A, of depth 2, is dropped with its
    # own message, so the messages grow with the stream
    eng = rescue_engine(max_depth=1)
    eng.diagnostics = ScanCountingList()
    for term in [Atom("AmbulanceRequest")] * 50 + [Very(Very(BUDGET))] * 3:
        eng.ingest(term)
    eng.verdict()
    assert ScanCountingList.scans == 0
    diags = list(eng.diagnostics)
    assert len(diags) == len(set(diags))
    assert [d for d in diags if "AmbulanceRequest" in d] == [
        f"DEPTH_LIMIT: dropped ({k})AmbulanceRequest" for k in range(1, 51)
    ]
    assert diags.count("DEPTH_LIMIT: dropped event (Very)(Very)BudgetConsuming") == 1


def test_saturate_does_not_read_the_diagnostics():
    # a monitor saturates after each event, so a saturate() that read the
    # list would pay for every message so far on every event
    class ReadCountingList(list):
        reads = 0

        def __iter__(self):
            ReadCountingList.reads += 1
            return super().__iter__()

        def __add__(self, other):
            ReadCountingList.reads += 1
            return super().__add__(other)

        def copy(self):
            ReadCountingList.reads += 1
            return super().copy()

    # at max_depth 1 each count fact (k)A is dropped with its own message
    eng = rescue_engine(max_depth=1)
    eng.diagnostics = ReadCountingList()
    for term in pool_stream(3, 200):
        eng.ingest(term)
        assert eng.saturate().converged
    assert len(eng.diagnostics) > 100
    assert ReadCountingList.reads == 0


# -- the engine against a naive oracle -----------------------------------------


def _engine_run(rules, events, max_depth):
    eng = ComplianceEngine(rules, max_depth=max_depth)
    for term in events:
        eng.ingest(term)
    verdict = eng.verdict()
    recorded = [(e.index, e.term, e.origin) for e in eng.events]
    return recorded, list(eng.derivations.items()), eng.diagnostics, verdict.to_json()


def test_engine_matches_naive_oracle_on_random_rulebases():
    # the oracle matches every event-implication afresh for every event, so
    # this also checks the engine's per-term ingest plans; drops, counts and
    # both kinds of event-implication conclusion all occur among the draws
    seen = {"dropped": 0, "derived": 0, "counted": 0}
    for draw in range(120):
        rng = random.Random(draw)
        rules = random_rulebase(rng)
        events = random_events(rng, rng.randint(4, 16))
        max_depth = rng.randint(1, 4)
        recorded, derivations, diagnostics, verdict = naive_engine(rules, events, max_depth)
        got = _engine_run(rules, events, max_depth)
        assert got == (recorded, derivations, diagnostics, verdict.to_json()), draw
        seen["dropped"] += any(d.startswith("DEPTH_LIMIT") for d in diagnostics)
        seen["derived"] += any(origin == semlog.ORIGIN_DERIVED for _, _, origin in recorded)
        seen["counted"] += any(t[0] == semlog.COUNT for t, _ in derivations)
    assert all(n >= 10 for n in seen.values()), seen


def _judged_state(rules, events, max_depth, online):
    """The fact set, the verdict without its order violations, and the set
    of diagnostics after ``events``, saturating after each one when
    ``online``; also the derivations, which may differ between orders."""
    eng = ComplianceEngine(rules, max_depth=max_depth)
    for term in events:
        eng.ingest(term)
        if online:
            eng.saturate()
    doc = eng.verdict().to_dict()
    del doc["order_violations"]
    doc.pop("diagnostics", None)
    return (set(eng.facts), doc, set(eng.diagnostics)), dict(eng.derivations)


def test_event_order_and_saturation_points_do_not_change_the_judgement():
    # the fact set, the findings and the diagnostics are a function of the
    # multiset of events; only the order watches and the first derivation
    # of a fact may depend on the order
    seen = {"reordered": 0, "other provenance": 0, "diagnosed": 0}
    for draw in range(400):
        rng = random.Random(draw)
        rules = random_rulebase(rng)
        events = random_events(rng, rng.randint(4, 16))
        max_depth = rng.randint(1, 4)
        shuffled = rng.sample(events, len(events))
        given_order, given_derivations = _judged_state(rules, events, max_depth, False)
        shuffled_order, shuffled_derivations = _judged_state(rules, shuffled, max_depth, False)
        online, _ = _judged_state(rules, events, max_depth, True)
        assert shuffled_order == given_order, draw
        assert online == given_order, draw
        seen["reordered"] += shuffled != events
        seen["other provenance"] += shuffled_derivations != given_derivations
        seen["diagnosed"] += bool(given_order[2])
    assert all(n >= 40 for n in seen.values()), seen


def test_engine_matches_naive_oracle_at_the_cascade_limit():
    a, b = Atom("a"), Atom("b")
    rules = RuleBase(rules=(Rule("e1", (a,), (), b), Rule("e2", (b,), (), a)))
    recorded, derivations, diagnostics, verdict = naive_engine(rules, [a, b], 2)
    assert diagnostics == ["EVENT_CASCADE_LIMIT: dropped a", "EVENT_CASCADE_LIMIT: dropped b"]
    assert _engine_run(rules, [a, b], 2) == (
        recorded, derivations, diagnostics, verdict.to_json()
    )
