import hashlib
import os
import random
import re
import string
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reokit import dsl, rescue, semlog as S
from reokit.circuit import PORT_IN, PORT_OUT, validate_circuit
from reokit.sim import Round

from importlib import resources

from util import MINIMAL_SYNC_TEXT, circuit_signature, perfbench_gen, random_circuit, scan_lookup

RULES_TEXT = resources.files("reokit").joinpath("data/rescue.rules").read_text()
MINI = dsl.parse_circuit(MINIMAL_SYNC_TEXT)


def _mini_env(text):
    """``parse_env`` on MINIMAL_SYNC_TEXT's boundary: in a, out b, data { ok, bad }."""
    return dsl.parse_env(text, MINI)


def _mini_map(text):
    """``parse_map`` on the same boundary."""
    return dsl.parse_map(text, MINI)


# -- the lexer ----------------------------------------------------------------

# Every character class _lex knows, plus characters it must reject: "-" outside
# "->", "@", and whitespace or letters that str methods or \s and \w would accept.
_LEX_GROUPS = (
    string.ascii_letters, string.digits, "_", " \t\r", "\n", "#", "{}(),;:=>",
    "-", "@\x0b\xa0\xe9",
)
LEX_DIGEST = "dc8e3050487139e004a165439fb98c61dafe39117851c5e41c53764128d21709"


def _lex_record(text, first_line=1, first_column=1):
    """Each token as ``(kind, text, line, column, length)``, or the rendered error."""
    try:
        tokens = dsl._lex(text, first_line, first_column)
    except dsl.ParseFailure as exc:
        return [exc.error.render()]
    return [(t.kind, t.text, t.span.line, t.span.column, t.span.length) for t in tokens]


def test_lex_output_pinned():
    records = [
        _lex_record(resources.files("reokit").joinpath(f"data/rescue.{ext}").read_text())
        for ext in ("circuit", "env", "map", "rules")
    ]
    rng = random.Random(2026)
    records += [_lex_record(dsl.print_circuit(random_circuit(rng, max_extra=4))) for _ in range(100)]
    for n in range(5000):
        groups = _LEX_GROUPS[: -2 if n % 2 else None]  # half the strings lex
        text = "".join(rng.choice(rng.choice(groups)) for _ in range(rng.randint(0, 24)))
        records.append(_lex_record(text, rng.randint(1, 500), rng.randint(1, 80)))
    failed = sum(isinstance(r[0], str) for r in records)
    assert 1000 < failed < 4000, failed
    assert hashlib.sha256(repr(records).encode()).hexdigest() == LEX_DIGEST


# -- circuit parsing ----------------------------------------------------------


def test_parse_minimal_circuit():
    c = dsl.parse_circuit("circuit t { data{ok} ports{in a; out b;} sync(a,b) }")
    assert c.name == "t"
    assert len(c.channels) == 1
    assert {p.name for p in c.ports} == {"a", "b"}


def test_parse_error_at_closing_paren():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit("circuit t { data{ok} ports{in a;} sync(a,) }")
    err = exc.value.error
    assert err.span.line == 1
    assert "')'" in err.message


def test_parse_duplicate_port():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit("circuit t { data{ok} ports{in a; out a;} }")
    assert exc.value.error.code == "DUPLICATE_PORT"


def test_parse_unknown_kind_and_bad_param():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit("circuit t { data{ok} ports{} zap(a,b) }")
    assert exc.value.error.code == "UNKNOWN_KIND"
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit("circuit t { data{ok} ports{} sync(a,b,init=ok) }")
    assert exc.value.error.code == "BAD_PARAM"


# each channel parameter word: the one kind that takes it, a value as written,
# and the Channel field with the value it stores
_PARAM_WORDS = {
    "init": ("fifo1", "ok", "init", "ok"),
    "accept": ("filter", "{ok}", "accept", frozenset({"ok"})),
    "map": ("transform", "{ok->bad, bad->ok}", "transform", (("bad", "ok"), ("ok", "bad"))),
}
_KINDS = ("sync", "lossysync", "fifo1", "syncdrain", "asyncdrain", "filter", "transform")


def _channel_text(kind, params):
    return f"circuit t {{ data {{ ok, bad }} ports {{ }} {kind}(a, b, {params}) }}"


def _bad_param(text, word, at, message):
    """The one BAD_PARAM error for the ``word`` token found at index ``at``."""
    column = text.index(f"{word}=", at) + 1
    return dsl.ParseError(dsl.SourceSpan(1, column, len(word)), "BAD_PARAM", message)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("word", sorted(_PARAM_WORDS))
def test_channel_parameter_word_per_kind(word, kind):
    owner, written, field, stored = _PARAM_WORDS[word]
    text = _channel_text(kind, f"{word}={written}")
    if kind == owner:
        (channel,) = dsl.parse_circuit(text).channels
        assert getattr(channel, field) == stored
        return
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit(text)
    assert exc.value.error == _bad_param(text, word, 0, f"'{word}' not valid here on {kind}")


@pytest.mark.parametrize("kind", _KINDS)
def test_unknown_channel_parameter_word(kind):
    text = _channel_text(kind, "size=ok")
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit(text)
    assert exc.value.error == _bad_param(text, "size", 0, "unknown parameter 'size'")


@pytest.mark.parametrize("word", sorted(_PARAM_WORDS))
def test_repeated_channel_parameter_word(word):
    owner, written, _, _ = _PARAM_WORDS[word]
    text = _channel_text(owner, f"{word}={written}, {word}={written}")
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_circuit(text)
    second = text.index(f"{word}=") + 1
    assert exc.value.error == _bad_param(text, word, second, f"'{word}' not valid here on {owner}")


def test_print_parse_roundtrip_minimal():
    c = dsl.parse_circuit(MINIMAL_SYNC_TEXT)
    again = dsl.parse_circuit(dsl.print_circuit(c))
    assert circuit_signature(c) == circuit_signature(again)
    assert dsl.print_circuit(c) == dsl.print_circuit(again)


def test_print_parse_roundtrip_random_circuits():
    rng = random.Random(808)
    for _ in range(200):
        c = random_circuit(rng)
        text = dsl.print_circuit(c)
        again = dsl.parse_circuit(text)
        assert circuit_signature(c) == circuit_signature(again)
        assert dsl.print_circuit(again) == text


MALFORMED = [
    "circuit",
    "circuit t",
    "circuit t {",
    "circuit t { data }",
    "circuit t { data { } }",
    "circuit t { data {ok} }",
    "circuit t { data {ok} ports { a; } }",
    "circuit t { data {ok} ports { in ; } }",
    "circuit t { data {ok} ports { in a } }",
    "circuit t { data {ok} ports {} sync }",
    "circuit t { data {ok} ports {} sync( }",
    "circuit t { data {ok} ports {} sync(a }",
    "circuit t { data {ok} ports {} sync(a, }",
    "circuit t { data {ok} ports {} sync(a,) }",
    "circuit t { data {ok} ports {} sync(a,b }",
    "circuit t { data {ok} ports {} fifo1(a,b,init) }",
    "circuit t { data {ok} ports {} fifo1(a,b,init=) }",
    "circuit t { data {ok} ports {} filter(a,b,accept=ok) }",
    "circuit t { data {ok} ports {} transform(a,b,map={ok}) }",
    "circuit t { data {ok} ports {} transform(a,b,map={ok->}) }",
    "circuit t { data {ok} ports {in a; in a;} }",
    "circuit t { data {ok} ports {} lossysync(a,b,accept={ok}) }",
    "circuit t @ data {ok} }",
    "rule r: =>",
    "rule r: A =>",
    "rule r: A => B",
    "protocol { A }",
    "protocol { A >> }",
    "fact (3)",
    "rule r10: A => A",
]

# Indented lines of the line formats: spans count from the start of the source line.
LINE_MALFORMED = [
    (dsl.parse_events, "   A B"),
    (dsl.parse_events, "  Alarm Fire"),
    (dsl.parse_events, "ok\n\t P(A"),
    (_mini_env, "    round 1: offer a=ok @"),
    (_mini_env, "\t round 1 offer a=ok"),
    (_mini_env, "  policy"),
    (_mini_env, "  policy bogus"),
    (_mini_map, "  a -> X Y"),
    (_mini_map, "\t a ->"),
]


def test_malformed_corpus_spans_point_at_reported_token():
    lines_by_input = {}
    for text in MALFORMED + LINE_MALFORMED:
        if isinstance(text, tuple):
            parse, text = text
        elif text.lstrip().startswith(("rule", "protocol", "fact")):
            parse = dsl.parse_rulebase
        else:
            parse = dsl.parse_circuit
        with pytest.raises(dsl.ParseFailure) as exc:
            parse(text)
        err = exc.value.error
        assert err.span.line >= 1 and err.span.column >= 1
        line = text.splitlines()[err.span.line - 1]
        token = line[err.span.column - 1 : err.span.column - 1 + err.span.length]
        if token:
            assert token == token.strip(), (text, err)  # a span starts and ends on a token
            assert token in err.message or repr(token) in err.message, (text, err)
        else:  # at end of input
            assert "end of input" in err.message
        lines_by_input[text] = err
    assert len(lines_by_input) == 30 + len(LINE_MALFORMED)


# -- rule DSL -----------------------------------------------------------------


def test_rule_r8_shape():
    rb = dsl.parse_rulebase("rule r8: Forbidden(A) AND A => Failure(A)")
    (rule,) = rb.rules
    assert len(rule.premises) == 2
    assert rule.conclusion == S.Failure(S.Var("A"))


def test_guard_in_and_position_and_where():
    for text in (
        "rule r12: (I)A AND I>2 => P((Very)A)",
        "rule r12: (I)A WHERE I>2 => P((Very)A)",
    ):
        rb = dsl.parse_rulebase(text)
        (rule,) = rb.rules
        assert rule.guards == (S.Guard("I", 2),)
        assert rule.premises == (S.Count(S.Var("I"), S.Var("A")),)


def test_protocol_declaration():
    rb = dsl.parse_rulebase("protocol { AmbulanceRequest >> FireRequest >> PoliceRequest }")
    assert rb.orders == (("AmbulanceRequest", "FireRequest", "PoliceRequest"),)


def test_unbound_conclusion_variable_rejected():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_rulebase("rule bad: A => B")
    assert exc.value.error.code == "UNBOUND_VAR"


def test_builtin_rule_names_rejected():
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_rulebase("rule r11: A => A")
    assert exc.value.error.code == "BUILTIN_OVERRIDE"


def test_shipped_program_parses_with_fifteen_rules():
    rb = dsl.parse_rulebase(RULES_TEXT)
    assert (len(rb.orders), len(rb.facts), len(rb.rules)) == (1, 1, 11)
    assert len(S.BUILTIN_RULE_NAMES) == 2
    assert rb.orders == (("AmbulanceRequest", "FireRequest", "PoliceRequest"),)
    assert [f.name for f in rb.facts] == ["r6"]
    assert {r.name for r in rb.rules} == {
        "r2", "r3", "r4", "r5", "r7", "r8", "r9", "r12", "r13", "r14", "r15"
    }
    assert [r.name for r in rb.rules if S.is_event_implication(r)] == ["r2", "r3", "r4", "r5"]


# -- terms --------------------------------------------------------------------


def ground_terms(max_depth=4):
    atoms = st.sampled_from(["Alpha", "Beta", "busy_bee", "X9"]).map(S.Atom)
    unary = st.sampled_from(
        [S.P, S.Very, S.Forbidden, S.Warning, S.Failure, S.Resolved, S.DoubleCheck]
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.tuples(unary, kids).map(lambda p: p[0](p[1])),
            st.tuples(st.integers(1, 9), kids).map(lambda p: S.Count(p[0], p[1])),
            st.tuples(kids, kids).map(lambda p: S.Implies(p[0], p[1])),
        ),
        max_leaves=max_depth,
    )


@settings(max_examples=150, deadline=None)
@given(ground_terms())
def test_term_pretty_parse_roundtrip(term):
    assert dsl.parse_term(S.pretty(term)) == term


def test_term_orthography_examples():
    assert dsl.parse_term("Forbidden((Very)BudgetConsuming)") == S.Forbidden(
        S.Very(S.Atom("BudgetConsuming"))
    )
    assert dsl.parse_term("(3)X", allow_vars=False) == S.Count(3, S.Atom("X"))
    t = dsl.parse_term("(I)A", allow_vars=True)
    assert t == S.Count(S.Var("I"), S.Var("A"))
    t = dsl.parse_term("(A=>B)", allow_vars=True)
    assert t == S.Implies(S.Var("A"), S.Var("B"))
    # grouping parentheses are transparent
    assert dsl.parse_term("(P(A))", allow_vars=True) == S.P(S.Var("A"))


# -- events, env, map ---------------------------------------------------------


def test_nested_prefix_terms():
    assert dsl.parse_term("(Very)(3)X") == S.Very(S.Count(3, S.Atom("X")))
    assert dsl.parse_term("P((X=>Y))") == S.P(S.Implies(S.Atom("X"), S.Atom("Y")))
    assert dsl.parse_term("(2)(Very)X") == S.Count(2, S.Very(S.Atom("X")))


def _error(parse, text):
    """``(code, (line, column, length), message)`` of the error ``parse(text)`` raises."""
    with pytest.raises(dsl.ParseFailure) as exc:
        parse(text)
    err = exc.value.error
    return err.code, (err.span.line, err.span.column, err.span.length), err.message


def _env_error(text, circuit=MINI):
    return _error(lambda t: dsl.parse_env(t, circuit), text)


def test_rule_and_term_errors_pinned():
    assert _error(dsl.parse_events, "(0)A") == ("BAD_COUNT", (1, 2, 1), "counts start at 1")
    assert _error(dsl.parse_rulebase, "frobnicate") == (
        "SYNTAX", (1, 1, 10), "expected 'protocol', 'fact' or 'rule', found 'frobnicate'"
    )
    # a guard's unbound variable is reported at the rule's name
    assert _error(dsl.parse_rulebase, "rule r: A AND I>2 => P(A)") == (
        "UNBOUND_VAR", (1, 6, 1), "guard variable 'I' is not bound by any premise"
    )


def test_env_round_numbering_errors():
    assert _env_error("round 0: offer a=ok") == (
        "BAD_ROUND", (1, 7, 1), "rounds are numbered from 1"
    )
    assert _env_error("round 1: offer a=ok\nround 1: offer a=ok") == (
        "DUP_ROUND", (2, 7, 1), "round 1 defined twice"
    )
    # A round past sys.maxsize cannot be a length or an index.
    assert _env_error("round 99999999999999999999999: offer a=ok") == (
        "BAD_ROUND", (1, 7, 23), f"round numbers stop at {sys.maxsize}"
    )
    assert _env_error("round " + "9" * 5000 + ": offer a=ok")[:2] == ("BAD_ROUND", (1, 7, 5000))
    assert len(_mini_env(f"round 000{sys.maxsize}: offer a=ok")) == sys.maxsize
    assert len(_mini_env("round " + "0" * 5000 + "2: offer a=ok")) == 2


def test_env_syntax_errors_pinned():
    assert _env_error("round x:") == ("SYNTAX", (1, 7, 1), "expected integer, found 'x'")
    assert _env_error("round 1 offer a=ok") == ("SYNTAX", (1, 9, 5), "expected ':', found 'offer'")
    assert _env_error("round 1: offer a=ok;;") == (
        "SYNTAX", (1, 21, 1), "expected 'offer' or 'ready', found ';'"
    )
    assert _env_error("round 1x: ready b") == ("SYNTAX", (1, 8, 1), "expected ':', found 'x'")
    # maximal munch: "okready" is one token, not "ok" and the keyword "ready"
    assert _env_error("round 1: offer a=okready b") == (
        "UNKNOWN_TOKEN", (1, 18, 7), "'okready' is not in the data alphabet"
    )
    assert _env_error("round 1: offer a=ok, ready b") == (
        "SYNTAX", (1, 28, 1), "expected '=', found 'b'"
    )
    assert _env_error("round 1: ready b @") == ("LEX_ERROR", (1, 18, 1), "unknown character '@'")
    # a bad value is spanned, a missing one by the policy word
    assert _env_error("policy sometimes") == (
        "BAD_POLICY", (1, 8, 9), "policy must be 'closed' or 'all-ready', found 'sometimes'"
    )
    assert _env_error("policy") == (
        "BAD_POLICY", (1, 1, 6), "policy must be 'closed' or 'all-ready', found ''"
    )
    assert _env_error(" policy\tclosed  extra") == (
        "BAD_POLICY", (1, 9, 13), "policy must be 'closed' or 'all-ready', found 'closed  extra'"
    )


def test_env_policy_comes_once_and_first():
    placement = "policy may be given once, before the first round"
    assert _env_error("round 1: offer a=ok\npolicy closed") == ("BAD_POLICY", (2, 1, 13), placement)
    assert _env_error("# header\npolicy closed\n\npolicy all-ready") == (
        "BAD_POLICY", (4, 1, 16), placement
    )
    assert _env_error("policyclosed") == (
        "SYNTAX", (1, 1, 12), "expected 'round', found 'policyclosed'"
    )
    env = _mini_env("# header\n\n policy \t closed \nround 1: offer a=ok")
    assert env.idle == env.rounds[1].ready == frozenset()


def test_parse_events_three_occurrences():
    script = dsl.parse_events("HelicopterMission\nHelicopterMission\nHelicopterMission\n")
    assert script.terms() == [S.Atom("HelicopterMission")] * 3


def test_parse_events_rejects_variables():
    with pytest.raises(dsl.ParseFailure):
        dsl.parse_events("(I)A")


def test_parse_events_parses_each_distinct_line_once():
    text = "Alpha\n  P(Beta) # note\n\nAlpha\nP(Beta)\n\tAlpha\n"
    with mock.patch.object(dsl, "_lex", wraps=dsl._lex) as lex:
        script = dsl.parse_events(text)
    assert lex.call_count == 2
    assert script.terms() == [S.Atom("Alpha"), S.P(S.Atom("Beta"))] * 2 + [S.Atom("Alpha")]
    alpha = script.entries[0]
    assert script.entries[2] is alpha and script.entries[4] is alpha
    assert script.entries[3] is script.entries[1]
    # a repeated bad line reports its first occurrence; a later bad line its own
    for bad_text, span in (
        ("Alpha\nP(\nAlpha\nP(\n", dsl.SourceSpan(2, 3, 1)),
        ("Alpha\nBeta\nAlpha\n  Beta)\n", dsl.SourceSpan(4, 7, 1)),
    ):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse_events(bad_text)
        assert exc.value.error.span == span


def test_parse_env_offers_and_ready(rescue_circuit):
    env = dsl.parse_env("round 1: offer citizens=ok; ready case1,case2,case3", rescue_circuit)
    ((num, rnd),) = env.rounds.items()
    assert num == 1
    assert rnd.offers == (("citizens", "ok"),)
    assert rnd.ready == frozenset({"case1", "case2", "case3"})
    assert len(env) == 1


def test_parse_env_policy_and_defaults():
    env = _mini_env("policy closed\nround 2: offer a=ok")
    assert env.idle == frozenset()
    assert env.round(1) == ((), frozenset())
    env2 = _mini_env("round 2: offer a=ok")  # all-ready, the default
    assert env2.idle == frozenset({"b"})
    assert env2.round(1) == ((), frozenset({"b"}))


@pytest.mark.parametrize("fast_round", [dsl._fast_round, lambda *args: None], ids=["fast", "tokens"])
def test_parse_env_applies_the_policy_once(fast_round, rescue_circuit):
    # a round with no ready clause, and every unlisted round, readies the
    # circuit's boundary-out ports under all-ready and nothing under closed
    text = "round 1: offer citizens=ok\nround 3: offer sensors=ok; ready case1\n"
    for policy in (dsl.POLICY_ALL_READY, dsl.POLICY_CLOSED):
        with mock.patch.object(dsl, "_fast_round", fast_round):
            env = dsl.parse_env(f"policy {policy}\n{text}", rescue_circuit)
            if policy == dsl.POLICY_ALL_READY:  # the default
                assert dsl.parse_env(text, rescue_circuit) == env
        expected = rescue_circuit.outputs if policy == dsl.POLICY_ALL_READY else frozenset()
        assert env.rounds[1].ready == env.idle == env.round(2).ready == expected
        assert env.rounds[3].ready == frozenset({"case1"})


def test_parse_env_cross_checks_circuit():
    c = dsl.parse_circuit(MINIMAL_SYNC_TEXT)
    assert _env_error("round 1: offer nope=ok", c) == (
        "UNKNOWN_PORT", (1, 16, 4), "'nope' is not a boundary-in port"
    )
    assert _env_error("round 1: offer a=zap", c) == (
        "UNKNOWN_TOKEN", (1, 18, 3), "'zap' is not in the data alphabet"
    )
    assert _env_error("round 1: ready a", c) == (
        "UNKNOWN_PORT", (1, 16, 1), "'a' is not a boundary-out port"
    )
    assert _env_error("round 1: offer a=ok; ready b, zz", c) == (
        "UNKNOWN_PORT", (1, 31, 2), "'zz' is not a boundary-out port"
    )


def test_parse_map_entries_and_precedence():
    m = _mini_map("a -> AmbulanceRequest\nb=ok -> Specific\nb -> General")
    assert m.lookup("a", "ok") == "AmbulanceRequest"
    assert m.lookup("b", "ok") == "Specific"
    assert m.lookup("b", "bad") == "General"
    assert m.lookup("other", "ok") is None


def test_map_lookup_agrees_with_a_scan_of_its_entries():
    rng = random.Random(20)
    ports, data = ("p0", "p1", "p2", "p3"), ("ok", "bad", "tick")
    circuit = dsl.parse_circuit(
        "circuit t { data { ok, bad, tick } ports { in p0; out p1; in p2; out p3; }"
        " sync(p0, p1) sync(p2, p3) }"
    )
    for _ in range(300):
        keys = rng.sample([(p, d) for p in ports for d in (None, *data)], rng.randint(0, 10))
        entries = [(p, d, f"A{i}") for i, (p, d) in enumerate(keys)]
        text = "\n".join(f"{p}{'' if d is None else '=' + d} -> {atom}" for p, d, atom in entries)
        m = dsl.parse_map(text, circuit)
        assert m.table == {(p, d): atom for p, d, atom in entries}
        # "p4" and "zap" are named by no entry
        for port in (*ports, "p4"):
            for datum in (*data, "zap"):
                assert m.lookup(port, datum) == scan_lookup(entries, port, datum), (text, port, datum)


def test_parse_map_duplicate_and_unknown_port():
    with pytest.raises(dsl.ParseFailure) as exc:
        _mini_map("a -> A\na -> B")
    assert exc.value.error.code == "DUP_MAP_ENTRY"
    with pytest.raises(dsl.ParseFailure) as exc:
        _mini_map("zz -> A")
    assert exc.value.error.code == "UNKNOWN_PORT"


def test_parse_map_data_must_be_in_the_alphabet():
    c = dsl.parse_circuit(MINIMAL_SYNC_TEXT)
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_map("b -> Y\n  a=zap -> X\n", c)
    err = exc.value.error
    assert (err.code, err.span) == ("UNKNOWN_TOKEN", dsl.SourceSpan(2, 5, 3))
    assert err.message == _env_error("round 1: offer a=zap", c)[2]
    table = dsl.parse_map("a=ok -> X\nb=bad -> Y", c).table
    assert list(table.items()) == [(("a", "ok"), "X"), (("b", "bad"), "Y")]


# str.splitlines breaks at each of these, str.strip drops \xa0; _lex does neither
ODD_CHARS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\xa0"]


@pytest.mark.parametrize("odd", ODD_CHARS, ids=lambda odd: f"U+{ord(odd):04X}")
@pytest.mark.parametrize(
    "parse, text",
    [
        (_mini_env, "round 1: offer a=ok{} ready b"),
        (_mini_env, "policy{}closed"),
        (dsl.parse_events, "A{}B"),
        (dsl.parse_events, "A{}"),
        (_mini_map, "a -> X{}b -> Y"),
    ],
    ids=["env-round", "env-policy", "events", "events-trailing", "map"],
)
def test_line_formats_split_lines_like_lex(parse, text, odd):
    with pytest.raises(dsl.ParseFailure) as exc:
        parse("# first\n" + text.format(odd))
    err = exc.value.error
    assert (err.code, err.span.line, err.span.column) == ("LEX_ERROR", 2, text.index("{") + 1)
    assert err.message == f"unknown character {odd!r}"


def test_line_formats_read_crlf():
    env = _mini_env("policy closed\r\nround 1: offer a=ok \r\n\r\nround 2: ready b\r\n")
    assert env.idle == frozenset() and len(env) == 2
    events = dsl.parse_events("A\r\n  B \r\n")
    assert events.terms() == [S.Atom("A"), S.Atom("B")]
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_events("A\r\n  B ?\r\n")
    err = exc.value.error
    assert (err.code, err.span.line, err.span.column) == ("LEX_ERROR", 2, 5)
    table = _mini_map("a -> X\r\nb=ok -> Y\r\n").table
    assert list(table.items()) == [(("a", None), "X"), (("b", "ok"), "Y")]


# -- env: the line grammar agrees with the token parser ------------------------

KEYWORD_PORTS_TEXT = (
    "circuit kw { data { ok, bad } ports { in a; in offer; out b; out ready; } "
    "sync(a, b) sync(offer, ready) }"
)
# (where, replacement) faults for _env_line, each spliced in at one match.
_ENV_FAULTS = tuple(
    (re.compile(where), replacement)
    for where, replacement in (
        (r"[ \t]+", ""),  # glue two words: round1, okready
        (r"(?<=offer|ready)[ \t]+", ""),  # offera=ok, readyb
        (r"[ \t]+", "\xa0"),
        (r"[ \t]+", "\r"),
        (r";", ";;"),
        (r";", ","),
        (r"[ \t]+|$", " @"),
        (r"[ \t]+|$", " ="),
        (r"\d+", "0"),
        (r"\d+", "007"),
        (r"\d+", "0000000000000000000004"),
        (r"\d+", "9999999999999999999"),  # above sys.maxsize, as long
        (r"\d+", "99999999999999999999999"),
        (r"\d+", r"\g<0>x"),
        (r"\ba\b", "ready"),  # not a boundary-in port
        (r"\bb\b", "nope"),
        (r"=[ \t]*(ok|bad)", "=zap"),
    )
)


_GAPS = ("", " ", "\t", " \t")
_WORD_GAPS = (" ", "\t", "  ")


@st.composite
def _env_clause(draw):
    """An offer or a ready clause for KEYWORD_PORTS_TEXT, without a separator."""
    gap = lambda: draw(st.sampled_from(_GAPS))
    if draw(st.booleans()):
        pairs = [
            f"{draw(st.sampled_from(('a', 'offer')))}{gap()}={gap()}"
            + draw(st.sampled_from(("ok", "bad")))
            for _ in range(draw(st.integers(1, 3)))
        ]
        return f"offer{draw(st.sampled_from(_WORD_GAPS))}" + f"{gap()},{gap()}".join(pairs)
    ports = [draw(st.sampled_from(("b", "ready"))) for _ in range(draw(st.integers(1, 3)))]
    return f"ready{draw(st.sampled_from(_WORD_GAPS))}" + f"{gap()},{gap()}".join(ports)


@st.composite
def _env_line(draw, clauses, faults=()):
    """A round line for KEYWORD_PORTS_TEXT whose clauses are drawn from
    ``clauses``, well-formed but for one of ``faults``, if given."""
    gap = lambda: draw(st.sampled_from(_GAPS))
    word_gap = lambda: draw(st.sampled_from(_WORD_GAPS))
    body = ""
    for _ in range(draw(st.integers(1 if faults else 0, 3))):
        body += draw(st.sampled_from(clauses))
        body += draw(st.sampled_from((" ", ";", "; ", " ;\t", "\t", "")))  # "": okready b
    line = f"round{word_gap()}{draw(st.integers(1, 12))}{gap()}:{gap()}{body}"
    if faults:
        where, replacement = draw(st.sampled_from(faults))
        spots = list(where.finditer(line))
        if spots:
            m = draw(st.sampled_from(spots))
            line = line[: m.start()] + m.expand(replacement) + line[m.end() :]
    return line


@st.composite
def _env_lines(draw):
    """Up to three round lines and one line with a fault, all drawing their
    clauses from one pool of up to four. A clause text thus recurs in
    different bodies, in different orders and beside different clauses, a
    body may hold two clauses of one kind, and a fault that falls in a
    clause makes a bad clause first met beside good ones."""
    clauses = draw(st.lists(_env_clause(), min_size=1, max_size=4))
    return draw(st.lists(_env_line(clauses), max_size=3)), draw(_env_line(clauses, _ENV_FAULTS))


def _env_outcome(text, circuit):
    try:
        return dsl.parse_env(text, circuit)
    except dsl.ParseFailure as exc:
        return exc.error


@given(
    script=_env_lines(),
    at=st.integers(0, 3),
    policy=st.sampled_from(("", "", "policy closed\n", "policy\tall-ready\n", "policyclosed\n")),
    late_policy=st.booleans(),
)
@example(([], "round 1: offer a=okready b"), 0, "", False)
@example((["round 1: offer offer=ok; ready ready"], "round 2x: ready b"), 1, "", False)
@example(([], "round 1: ready b; offer a=ok ready ready offer offer=bad;"), 0, "", False)
@example(
    (
        ["round 1: ready b; offer a=ok", "round 2: offer a=ok; ready ready; ready b"],
        "round 3: offer a=ok; ready b, nope; offer offer=bad",
    ),
    2, "", False,
)
@settings(max_examples=400, deadline=None)
def test_parse_env_line_grammar_agrees_with_token_parser(script, at, policy, late_policy):
    lines, odd_line = script
    lines = lines[:at] + [odd_line] + lines[at:]
    text = policy + "\n".join(lines) + ("\npolicy closed" if late_policy else "")
    circuit = dsl.parse_circuit(KEYWORD_PORTS_TEXT)
    with mock.patch.object(dsl, "_fast_round", lambda *args: None):
        expected = _env_outcome(text, circuit)
    got = _env_outcome(text, circuit)
    assert got == expected


# sha256 of run_rescue(...).to_json() on the rescue automaton for the
# perfbench busy env of each seed, 2,000 rounds, parsed by parse_env
BUSY_ENV_RESCUE_SHA256 = {
    1: "66b16b2142f38078c838d4fcdfbfdc033d9e546caa3fcd4a8ee99dc2f5417180",
    5: "87d619a172c6f08f689088d3e4ffa1f527946a4cbb66c05060d9a71665556b03",
}

_BUSY_ENV_DIGEST_SCRIPT = """
import hashlib
from reokit import automata, dsl, rescue
from util import perfbench_gen
circuit = rescue.builtin_circuit()
auto = automata.compile_circuit(circuit)
for seed in (1, 5):
    env = dsl.parse_env(perfbench_gen().busy_env(seed, 2000), circuit)
    report = rescue.run_rescue(seed=seed, env=env, automaton=auto)
    print(seed, hashlib.sha256(report.to_json().encode()).hexdigest())
"""


def test_parse_env_busy_env_results_stay_byte_identical(rescue_circuit, rescue_auto):
    for seed, digest in BUSY_ENV_RESCUE_SHA256.items():
        env = dsl.parse_env(perfbench_gen().busy_env(seed, 2000), rescue_circuit)
        report = rescue.run_rescue(seed=seed, env=env, automaton=rescue_auto)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest, seed
    # and in fresh processes, under two string hash seeds
    here = Path(__file__).resolve().parent
    expected = "".join(f"{seed} {digest}\n" for seed, digest in BUSY_ENV_RESCUE_SHA256.items())
    for hash_seed in ("0", "6"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
        result = subprocess.run(
            [sys.executable, "-c", _BUSY_ENV_DIGEST_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert result.stdout == expected, hash_seed


def _assert_same_env(got, expected):
    """``got`` equals ``expected``; the rounds that differ are listed, not the
    whole script."""
    assert got.idle == expected.idle and list(got.rounds) == list(expected.rounds)
    assert [n for n, r in got.rounds.items() if r != expected.rounds[n]] == []


def _varied_env(rng: random.Random, rounds: int) -> list[str]:
    """Well-formed lines for KEYWORD_PORTS_TEXT in every accepted clause form.

    Each body draws its clauses from a small pool, so the same clause text
    recurs in different bodies, in different orders and beside different
    clauses, and some bodies hold two offer or two ready clauses.
    """
    gap = lambda: rng.choice(("", " ", "\t", "  "))
    offers = [
        f"offer{rng.choice((' ', chr(9)))}"
        + f"{gap()},{gap()}".join(
            f"{p}{gap()}={gap()}{rng.choice(('ok', 'bad'))}"
            for p in rng.sample(("a", "offer"), rng.randint(1, 2))
        )
        for _ in range(6)
    ]
    readies = [
        f"ready{rng.choice((' ', '  '))}"
        + f"{gap()},{gap()}".join(rng.sample(("b", "ready"), rng.randint(1, 2)))
        for _ in range(4)
    ]
    lines = ["# seeded env", "policy closed"]
    for n in range(1, rounds + 1):
        kinds = rng.choice(("", "o", "r", "or", "ro", "oo", "rr", "rro", "oro"))
        clauses = [rng.choice(offers if kind == "o" else readies) for kind in kinds]
        sep = rng.choice((";", "; ", " ", " ;\t"))
        number = f"{n:0{rng.randint(1, 6)}d}"
        line = f"round{rng.choice((' ', chr(9), '  '))}{number}{gap()}:{gap()}" + sep.join(clauses)
        lines.append(line + rng.choice((";", "") if clauses else ("",)) + rng.choice(("", " # note")))
        if rng.random() < 0.05:
            lines.append("")
    return lines


def test_parse_env_fast_path_never_lexes_well_formed_lines():
    circuit = dsl.parse_circuit(KEYWORD_PORTS_TEXT)
    lines = _varied_env(random.Random(8), 2000)
    calls = []
    real_lex = dsl._lex

    def counting_lex(*args, **kwargs):
        calls.append(args)
        return real_lex(*args, **kwargs)

    broken_lines = (
        ("round 2001: offer a=", "SYNTAX"),
        ("round 2001: ready nope", "UNKNOWN_PORT"),
        ("round 2001: offer a=zap", "UNKNOWN_TOKEN"),
        # a bad clause first met beside clauses read before
        ("round 2001: offer a=ok; ready b, nope; ready ready", "UNKNOWN_PORT"),
        ("round 2001: ready b; offer offer=ok, a=zap; ready b", "UNKNOWN_TOKEN"),
    )
    errors = []
    with mock.patch.object(dsl, "_lex", counting_lex):
        env = dsl.parse_env("\n".join(lines), circuit)
        assert calls == []
        assert len(env.rounds) == 2000
        for broken, code in broken_lines:
            with pytest.raises(dsl.ParseFailure) as exc:
                dsl.parse_env("\n".join(lines[:1000] + [broken] + lines[1000:]), circuit)
            assert exc.value.error.code == code
            errors.append(exc.value.error)
            assert len(calls) == 1, broken
            calls.clear()
    with mock.patch.object(dsl, "_fast_round", lambda *args: None):
        _assert_same_env(dsl.parse_env("\n".join(lines), circuit), env)
        for (broken, _), error in zip(broken_lines, errors):
            text = "\n".join(lines[:1000] + [broken] + lines[1000:])
            assert _env_outcome(text, circuit) == error, broken


def test_parse_env_reads_each_distinct_clause_list_once(rescue_circuit):
    # the seed-5 busy-sim env: 12,000 rounds, 4,720 distinct bodies, built
    # from 287 distinct offer lists and 63 distinct ready lists
    text = perfbench_gen().busy_env(5, 12000)
    reads = []
    real_read = dsl._read_clause

    def counting_read(clause, *args):
        reads.append(clause)
        return real_read(clause, *args)

    with mock.patch.object(dsl, "_read_clause", counting_read):
        env = dsl.parse_env(text, rescue_circuit)
    assert len(set(reads)) == len(reads)
    offer_lists = [offer_list for offer_list, _ in reads if offer_list]
    assert (len(offer_lists), len(reads) - len(offer_lists)) == (287, 63)
    # every body here holds at most one clause of each kind, so rounds with
    # equal offers or equal ready sets share one tuple or one frozenset
    rounds = env.rounds.values()
    assert len({id(r) for r in rounds}) == 4720
    assert len({id(r.offers) for r in rounds}) == len({r.offers for r in rounds})
    assert len({id(r.ready) for r in rounds}) == len({r.ready for r in rounds})
    # and one string per distinct name, not one per clause list
    names = [n for r in rounds for pair in r.offers for n in pair]
    names += [n for r in rounds for n in r.ready]
    assert len({id(n) for n in names}) == len(set(names))
    with mock.patch.object(dsl, "_fast_round", lambda *args: None):
        _assert_same_env(dsl.parse_env(text, rescue_circuit), env)


@pytest.mark.parametrize(
    "circuit_text, text, equal_rounds",
    [
        pytest.param(
            KEYWORD_PORTS_TEXT,
            "policy closed\n"
            "round 1: offer offer=bad, a=ok; ready ready\n"
            "round 2: offer offer=ok\n"
            "round 03 :\t offer offer=bad, a=ok; ready ready  # a comment\n"
            "round 4: offer offer=ok\n"
            "round 5: ready ready, b\n"
            "round 6: offer offer = ok\n",
            ((1, 3), (2, 4)),
            id="keyword-ports",
        ),
        pytest.param(
            None,  # the rescue circuit
            resources.files("reokit").joinpath("data/rescue.env").read_text()
            + "round 13: offer citizens=bad, act1=tick; ready case1, fire_alarm\n"
            + "round 14: offer citizens=bad, act1=tick; ready case1, fire_alarm\n",
            ((1, 3), (5, 8, 11), (6, 9, 12), (13, 14)),
            id="rescue",
        ),
    ],
)
def test_parse_env_equal_bodies_share_one_round(
    circuit_text, text, equal_rounds, rescue_circuit
):
    circuit = rescue_circuit if circuit_text is None else dsl.parse_circuit(circuit_text)
    env = dsl.parse_env(text, circuit)
    for numbers in equal_rounds:
        first = env.rounds[numbers[0]]
        assert all(env.rounds[n] is first for n in numbers), numbers
    with mock.patch.object(dsl, "_fast_round", lambda *args: None):
        assert dsl.parse_env(text, circuit) == env


def test_parse_env_reads_each_body_against_the_circuit_of_its_call():
    body = "offer a=ok; ready b"
    text = f"round 1: {body}\nround 2: {body}"
    valid = MINI  # in a, out b, data { ok, bad }
    expected = Round((("a", "ok"),), frozenset({"b"}))
    for bad_text, code in (
        ("circuit p { data { ok, bad } ports { in c; out b; } sync(c, b) }", "UNKNOWN_PORT"),
        ("circuit t { data { yes, no } ports { in a; out b; } sync(a, b) }", "UNKNOWN_TOKEN"),
    ):
        bad = dsl.parse_circuit(bad_text)
        for first, second in ((valid, bad), (bad, valid)):
            for circuit in (first, second):
                if circuit is valid:
                    assert dsl.parse_env(text, circuit).rounds == {1: expected, 2: expected}
                else:
                    assert _env_error(text, circuit)[0] == code


def test_parse_env_keeps_a_port_offered_twice_in_order():
    for text in ("round 1: offer a=ok, a=bad", "round 1: offer a=ok; offer a=bad"):
        for fast_round in (dsl._fast_round, lambda *args: None):
            with mock.patch.object(dsl, "_fast_round", fast_round):
                env = _mini_env(text)
            (r,) = env.rounds.values()
            assert r.offers == (("a", "ok"), ("a", "bad"))
            assert (dict(r.offers), r.ready) == ({"a": "bad"}, frozenset({"b"}))
