"""Parsers and printers for the textual input formats.

Four languages plus one table: the circuit DSL, the rule DSL, event
scripts (one ground term per line), environment scripts (per-round
offers and readiness), and the event map (boundary firing -> atom).
All share one token grammar: the identifier, integer, symbol and blank
classes are spelled once, and the tokenizer ``_lex`` is one compiled
pattern over them. ``#`` comments run to end of line and whitespace is
insignificant except in the line-oriented formats. Every separated list
(``data``, ``accept``, ``map``, a protocol order, an env round's offers
and ready ports) is parsed by one rule, ``_Parser.sep_list``.
Env ``round`` lines, the bulk of a long script, first try two patterns
built from the same token classes, and each distinct round body is
parsed once per script. That path never raises: a line it does not take
goes through the token parser, so every error code, span and message
comes from there.
"""

from __future__ import annotations

import contextlib
import functools
import re
import sys
from typing import NamedTuple

from . import semlog
from .circuit import (
    CHANNEL_KINDS,
    CHANNEL_PARAMS,
    PORT_IN,
    PORT_OUT,
    Channel,
    Circuit,
    PortId,
)
from .semlog import (
    Atom,
    Count,
    Guard,
    Implies,
    Op,
    Rule,
    RuleBase,
    StandingFact,
    Term,
    UNARY_OPS,
    VAR,
    Var,
    VERY_OP,
)
from .sim import EnvScript, Round

# what an env round with no ready clause, and an unlisted round, readies:
POLICY_CLOSED = "closed"  # nothing
POLICY_ALL_READY = "all-ready"  # every boundary-out port


class SourceSpan(NamedTuple):
    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(NamedTuple):
    span: SourceSpan
    code: str
    message: str

    def render(self) -> str:
        return f"{self.span}: {self.code}: {self.message}"


class ParseFailure(Exception):
    def __init__(self, error: ParseError):
        self.error = error
        super().__init__(error.render())


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    span: SourceSpan


# The token classes, each spelled once: the scanner below and the env line
# grammar are both built from them. Whitespace is only ``_BLANK`` and lines
# break only at ``\n``, so ``\x0b``, ``\xa0`` or ``é`` is a LEX_ERROR.
_IDENT_CHAR = "[A-Za-z0-9_]"
_IDENT = f"[A-Za-z_]{_IDENT_CHAR}*"
_INT = "[0-9]+"
_SYMBOL = "=>|->|>>|[{}(),;:=>]"  # two-character symbols first
_BLANK = "[ \t\r]"
_BLANK_CHARS = _BLANK[1:-1]  # for str.strip

# One alternative per class; the group that matched is the token kind.
# A comment runs to the end of its line and does not move the column.
_TOKEN = re.compile(
    f"(?P<ident>{_IDENT})|(?P<int>{_INT})|(?P<sym>{_SYMBOL})"
    f"|(?P<blank>{_BLANK}+)|(?P<comment>#[^\n]*)|(?P<newline>\n)|(?P<other>.)"
)


def _lex(text: str, first_line: int = 1, first_column: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line = first_line
    col = first_column
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            col = 1
        elif kind == "other":
            message = f"unknown character {m.group()!r}"
            raise ParseFailure(ParseError(SourceSpan(line, col, 1), "LEX_ERROR", message))
        elif kind != "comment":
            word = m.group()
            if kind != "blank":
                tokens.append(Token(kind, word, SourceSpan(line, col, len(word))))
            col += len(word)
    tokens.append(Token("eof", "end of input", SourceSpan(line, col, 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    def fail(self, code: str, message: str) -> "ParseFailure":
        tok = self.peek()
        return ParseFailure(ParseError(tok.span, code, f"{message}, found {tok.text!r}"))

    def fail_at(self, tok: Token, code: str, message: str) -> "ParseFailure":
        return ParseFailure(ParseError(tok.span, code, message))

    def expect_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            raise self.fail("SYNTAX", f"expected {text!r}")
        return self.next()

    def expect_ident(self, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or (text is not None and tok.text != text):
            what = repr(text) if text else "identifier"
            raise self.fail("SYNTAX", f"expected {what}")
        return self.next()

    def expect_int(self) -> Token:
        if self.peek().kind != "int":
            raise self.fail("SYNTAX", "expected integer")
        return self.next()

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail("SYNTAX", "expected end of input")

    def sep_list(self, item, sep: str = ","):
        """``item (sep item)*``: what each ``item()`` call returns, in order.

        Each item is parsed, and its checks run, before the next separator is read.
        """
        items = [item()]
        while self.at_sym(sep):
            self.next()
            items.append(item())
        return items


# --------------------------------------------------------------------------
# circuit DSL


class _CircuitParser(_Parser):
    def parse(self) -> Circuit:
        self.expect_ident("circuit")
        name = self.expect_ident().text
        self.expect_sym("{")
        alphabet = self._data_block()
        ports = self._ports_block()
        channels = []
        while not self.at_sym("}"):
            channels.append(self._channel(len(channels) + 1))
        self.expect_sym("}")
        self.expect_eof()
        return Circuit(
            name=name,
            alphabet=frozenset(alphabet),
            ports=tuple(ports),
            channels=tuple(channels),
        )

    def _data_block(self) -> list[str]:
        self.expect_ident("data")
        self.expect_sym("{")
        items = [tok.text for tok in self.sep_list(self.expect_ident)]
        self.expect_sym("}")
        return items

    def _ports_block(self) -> list[PortId]:
        self.expect_ident("ports")
        self.expect_sym("{")
        ports: list[PortId] = []
        seen: set[str] = set()
        while not self.at_sym("}"):
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("in", "out"):
                kind = PORT_IN if self.next().text == "in" else PORT_OUT
            else:
                raise self.fail("SYNTAX", "expected 'in' or 'out'")
            name_tok = self.expect_ident()
            if name_tok.text in seen:
                raise self.fail_at(
                    name_tok, "DUPLICATE_PORT", f"port {name_tok.text!r} declared twice"
                )
            seen.add(name_tok.text)
            ports.append(PortId(name_tok.text, kind))
            self.expect_sym(";")
        self.expect_sym("}")
        return ports

    def _channel(self, number: int) -> Channel:
        kind_tok = self.expect_ident()
        if kind_tok.text not in CHANNEL_KINDS:
            raise self.fail_at(
                kind_tok,
                "UNKNOWN_KIND",
                f"unknown channel kind {kind_tok.text!r}",
            )
        kind = kind_tok.text
        self.expect_sym("(")
        end_a = self.expect_ident().text
        self.expect_sym(",")
        end_b = self.expect_ident().text
        params = {}
        while self.at_sym(","):
            self.next()
            param_tok = self.expect_ident()
            self.expect_sym("=")
            word = param_tok.text
            if word not in CHANNEL_PARAMS:
                raise self.fail_at(param_tok, "BAD_PARAM", f"unknown parameter {word!r}")
            field, param_kind = CHANNEL_PARAMS[word]
            if kind != param_kind or field in params:
                raise self.fail_at(param_tok, "BAD_PARAM", f"'{word}' not valid here on {kind}")
            if word == "init":
                params[field] = self.expect_ident().text
                continue
            self.expect_sym("{")
            if word == "accept":
                params[field] = frozenset(tok.text for tok in self.sep_list(self.expect_ident))
            else:
                params[field] = tuple(sorted(self.sep_list(self._map_pair)))
            self.expect_sym("}")
        self.expect_sym(")")
        if self.at_sym(";"):
            self.next()
        return Channel(f"c{number}", kind, end_a, end_b, **params)

    def _map_pair(self) -> tuple[str, str]:
        src = self.expect_ident().text
        self.expect_sym("->")
        dst = self.expect_ident().text
        return (src, dst)


def parse_circuit(text: str) -> Circuit:
    return _CircuitParser(_lex(text)).parse()


def print_circuit(c: Circuit) -> str:
    """Deterministic textual form; parse(print(c)) is isomorphic to c."""
    out = [f"circuit {c.name} {{"]
    out.append("  data { " + ", ".join(sorted(c.alphabet)) + " }")
    out.append("  ports {")
    for kind, names in ((PORT_IN, c.inputs), (PORT_OUT, c.outputs)):
        out.extend(f"    {kind} {name};" for name in sorted(names))
    out.append("  }")
    for ch in c.channels:
        params = ""
        if ch.init is not None:
            params = f", init={ch.init}"
        if ch.accept is not None:
            params = ", accept={" + ", ".join(sorted(ch.accept)) + "}"
        if ch.transform is not None:
            pairs = ", ".join(f"{a}->{b}" for a, b in sorted(ch.transform))
            params = ", map={" + pairs + "}"
        out.append(f"  {ch.kind}({ch.end_a}, {ch.end_b}{params});")
    out.append("}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# compliance terms


class _TermParser(_Parser):
    """Recursive-descent parser for the compliance term language.

    With ``allow_vars`` set, single uppercase letters (A, B, I) are
    pattern variables; otherwise every identifier is an atom and the
    result must be ground. An operator is written ``Op(X)``; the canonical
    form of Very is the prefix ``(Very)X``, and ``Very(X)`` is accepted too.
    """

    def __init__(self, tokens, allow_vars: bool):
        super().__init__(tokens)
        self.allow_vars = allow_vars
        self.var_spans: list[tuple[str, SourceSpan]] = []

    def _starts_term(self) -> bool:
        tok = self.peek()
        return tok.kind == "ident" or (tok.kind == "sym" and tok.text == "(")

    def _ident_term(self, tok: Token) -> Term:
        if self.allow_vars and len(tok.text) == 1 and tok.text.isupper():
            self.var_spans.append((tok.text, tok.span))
            return Var(tok.text)
        return Atom(tok.text)

    @contextlib.contextmanager
    def nesting_limit(self):
        """Report a term nested past Python's recursion limit as TOO_DEEP, at
        the token the descent had reached, rather than as a crash."""
        try:
            yield
        except RecursionError:
            raise self.fail_at(self.peek(), "TOO_DEEP", "the term nests too deeply") from None

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text in UNARY_OPS and self.peek(1).kind == "sym" and self.peek(1).text == "(":
                self.next()
                self.expect_sym("(")
                arg = self.parse_term()
                self.expect_sym(")")
                return Op(tok.text, arg)
            self.next()
            return self._ident_term(tok)
        if self.at_sym("("):
            self.next()
            if self.peek().kind == "int":
                count_tok = self.next()
                self.expect_sym(")")
                value = int(count_tok.text)
                if value < 1:
                    raise self.fail_at(count_tok, "BAD_COUNT", "counts start at 1")
                return Count(value, self.parse_term())
            inner = self.parse_term()
            if self.at_sym("=>"):
                self.next()
                rhs = self.parse_term()
                self.expect_sym(")")
                return Implies(inner, rhs)
            close = self.expect_sym(")")
            if self._starts_term():
                if inner == Atom("Very"):
                    return Op(VERY_OP, self.parse_term())
                if inner[0] == VAR:
                    return Count(inner, self.parse_term())
                raise self.fail_at(
                    close,
                    "BAD_PREFIX",
                    "only (Very) or a count variable may prefix a term",
                )
            return inner
        raise self.fail("SYNTAX", "expected a term")


def _read_term(tokens, allow_vars: bool) -> Term:
    """One whole term from ``tokens``, which must hold nothing else."""
    p = _TermParser(tokens, allow_vars)
    with p.nesting_limit():
        term = p.parse_term()
    p.expect_eof()
    return term


def parse_term(text: str, allow_vars: bool = False) -> Term:
    return _read_term(_lex(text), allow_vars)


# --------------------------------------------------------------------------
# rule DSL


class _RuleParser(_TermParser):
    def __init__(self, tokens):
        super().__init__(tokens, allow_vars=True)

    def parse(self) -> RuleBase:
        orders: list[tuple[str, ...]] = []
        facts: list[StandingFact] = []
        rules: list[Rule] = []
        while self.peek().kind != "eof":
            if self.at_ident("protocol"):
                orders.append(self._protocol())
            elif self.at_ident("fact"):
                facts.append(self._fact())
            elif self.at_ident("rule"):
                rules.append(self._rule())
            else:
                raise self.fail("SYNTAX", "expected 'protocol', 'fact' or 'rule'")
        return RuleBase(orders=tuple(orders), facts=tuple(facts), rules=tuple(rules))

    def _protocol(self) -> tuple[str, ...]:
        self.expect_ident("protocol")
        self.expect_sym("{")
        first = self.expect_ident()
        self.expect_sym(">>")  # an order names at least two atoms
        atoms = [first, *self.sep_list(self.expect_ident, ">>")]
        self.expect_sym("}")
        return tuple(tok.text for tok in atoms)

    def _fact(self) -> StandingFact:
        self.expect_ident("fact")
        name = None
        if self.peek().kind == "ident" and self.peek(1).kind == "sym" and self.peek(1).text == ":":
            name = self.next().text
            self.next()
        self.allow_vars = False  # standing facts are ground
        try:
            term = self.parse_term()
        finally:
            self.allow_vars = True
        return StandingFact(name, term)

    def _rule(self) -> Rule:
        self.expect_ident("rule")
        name_tok = self.expect_ident()
        if name_tok.text in semlog.BUILTIN_RULE_NAMES:
            raise self.fail_at(
                name_tok,
                "BUILTIN_OVERRIDE",
                f"rule {name_tok.text!r} is an engine built-in and cannot be redefined",
            )
        self.expect_sym(":")
        premises: list[Term] = []
        guards: list[Guard] = []
        self.var_spans = []
        while True:
            if self._at_guard():
                guards.append(self._guard())
            else:
                premises.append(self.parse_term())
            if self.at_ident("AND"):
                self.next()
                continue
            break
        if self.at_ident("WHERE"):
            self.next()
            guards.append(self._guard())
        bound = set()
        for p in premises:
            bound |= semlog.variables(p)
        self.expect_sym("=>")
        self.var_spans = []
        conclusion = self.parse_term()
        for var, span in self.var_spans:
            if var not in bound:
                message = f"conclusion variable {var!r} is not bound by any premise"
                raise ParseFailure(ParseError(span, "UNBOUND_VAR", message))
        for g in guards:
            if g.var not in bound:
                raise self.fail_at(
                    name_tok,
                    "UNBOUND_VAR",
                    f"guard variable {g.var!r} is not bound by any premise",
                )
        return Rule(
            name=name_tok.text,
            premises=tuple(premises),
            guards=tuple(guards),
            conclusion=conclusion,
        )

    def _at_guard(self) -> bool:
        return (
            self.peek().kind == "ident"
            and self.peek(1).kind == "sym"
            and self.peek(1).text == ">"
        )

    def _guard(self) -> Guard:
        var = self.expect_ident().text
        self.expect_sym(">")
        bound = int(self.expect_int().text)
        return Guard(var, bound)


def parse_rulebase(text: str) -> RuleBase:
    p = _RuleParser(_lex(text))
    with p.nesting_limit():
        return p.parse()


# --------------------------------------------------------------------------
# event script


class ScriptedEvent(NamedTuple):
    term: Term
    span: SourceSpan


class EventScript(NamedTuple):
    entries: tuple[ScriptedEvent, ...]

    def terms(self) -> list[Term]:
        return [e.term for e in self.entries]


def _content_lines(text: str):
    """``(line_no, column, stripped)`` of each line not blank once its ``#`` comment is cut.

    ``column`` is where ``stripped`` starts. As in ``_lex``, lines break only at
    ``\\n`` and only ``_BLANK`` is whitespace, so any other control or separator
    character reaches ``_lex`` and is a ``LEX_ERROR`` where it stands.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].rstrip(_BLANK_CHARS)
        stripped = body.lstrip(_BLANK_CHARS)
        if stripped:
            yield line_no, len(body) - len(stripped) + 1, stripped


def parse_events(text: str) -> EventScript:
    """One ground term per line; blank lines and # comments are skipped.

    Each distinct line is parsed once per call, so equal lines share one
    term, and every entry keeps its own span. A bad line raises at its
    first occurrence, with that line's span.
    """
    entries = []
    terms: dict[str, Term] = {}
    for line_no, column, stripped in _content_lines(text):
        term = terms.get(stripped)
        if term is None:
            term = terms[stripped] = _read_term(_lex(stripped, line_no, column), False)
        entries.append(ScriptedEvent(term, SourceSpan(line_no, column, len(stripped))))
    return EventScript(tuple(entries))


# --------------------------------------------------------------------------
# environment script


# The common case of an env round line, as two patterns built from
# ``_lex``'s token classes: the ``round N:`` prefix and the clauses after
# it. They read the same lines as one full-line pattern would, since a
# clause cannot start with a blank. A word must not be followed by an
# identifier character (``_END``), which gives the scanner's maximal munch:
# ``okready`` stays one identifier rather than backtracking into ``ok``
# plus the keyword ``ready``. ``offer`` and ``ready`` may also be port names.
_W = f"{_BLANK}*"
_END = f"(?!{_IDENT_CHAR})"
_NAME = f"{_IDENT}{_END}"
_PAIR = rf"{_NAME}{_W}={_W}{_NAME}"
_CLAUSE = (
    rf"(?:offer{_END}{_W}({_PAIR}(?:{_W},{_W}{_PAIR})*)"
    rf"|ready{_END}{_W}({_NAME}(?:{_W},{_W}{_NAME})*))"
    rf"{_W}(?:;{_W})?"
)
_ROUND_DIGITS = len(str(sys.maxsize))


@functools.cache
def _round_grammar() -> tuple[re.Pattern, re.Pattern, re.Pattern, re.Pattern, re.Pattern]:
    """The compiled patterns of a round prefix, a round body, a clause, an
    offer pair and a name.

    Compiled on first use, not at import: they take a few milliseconds,
    which every command would pay otherwise.
    """
    return (
        re.compile(rf"round{_END}{_W}([0-9]+){_W}:{_W}"),
        re.compile(rf"(?:{_CLAUSE})*"),
        re.compile(_CLAUSE),
        re.compile(rf"({_NAME}){_W}={_W}({_NAME})"),
        re.compile(_NAME),
    )


def _fast_round(stripped, seen_rounds, bodies, clauses, checks) -> tuple[int, Round] | None:
    """``_token_round`` for a line the round patterns match that passes every check.

    The round number is checked on every line. The body after ``round N:``
    goes through ``_fast_body`` once per distinct text: ``bodies``, one dict
    per ``parse_env`` call, keeps its ``Round``, or None when the token
    parser must decide, so equal bodies share one ``Round``. ``clauses`` is
    ``_fast_body``'s memo of clause lists, also one dict per call. Never
    raises: any other line gives None, and ``_token_round`` then parses it
    again and reports the error.
    """
    m = _round_grammar()[0].match(stripped)
    if m is None or len(m[1]) > _ROUND_DIGITS:
        return None
    number = int(m[1])
    if not 1 <= number <= sys.maxsize or number in seen_rounds:
        return None
    body = stripped[m.end() :]
    if body not in bodies:
        bodies[body] = _fast_body(body, clauses, *checks)
    parsed = bodies[body]
    return None if parsed is None else (number, parsed)


def _fast_body(body, clauses, ins, outs, alphabet, idle) -> Round | None:
    """The ``Round`` of a round body the body pattern matches and every name
    passes; None otherwise. ``idle`` is what a body with no ready clause
    readies.

    Each clause is the clause pattern's ``(offer list, ready list)`` pair,
    one of them empty. ``clauses`` maps each distinct pair to what
    ``_read_clause`` made of it, so a clause list is read once per
    ``parse_env`` call, and rounds share what it built: a body with one
    offer clause uses that clause's tuple, and one with one ready clause
    its frozenset. Several offer clauses are joined in text order, several
    ready clauses by union.
    """
    _, body_re, clause_re, _, _ = _round_grammar()
    if body_re.fullmatch(body) is None:
        return None
    offers: tuple[tuple[str, str], ...] = ()
    ready: frozenset[str] | None = None
    for clause in clause_re.findall(body):
        if clause not in clauses:
            clauses[clause] = _read_clause(clause, ins, outs, alphabet)
        read = clauses[clause]
        if read is None:
            return None
        if clause[0]:
            offers = offers + read if offers else read
        else:
            ready = read if ready is None else ready | read
    return Round(offers, idle if ready is None else ready)


def _read_clause(clause, ins, outs, alphabet) -> tuple | frozenset | None:
    """One clause list, read once: an offer list's ``(port, tok)`` pairs, or a
    ready list's frozenset of ports; None if a port or token fails its check.

    Names are interned, so a long script holds one string per distinct name,
    not one per clause list that names it.
    """
    _, _, _, pair_re, name_re = _round_grammar()
    offer_list, ready_list = clause
    if offer_list:
        pairs = pair_re.findall(offer_list)
        if not all(port in ins and tok in alphabet for port, tok in pairs):
            return None
        return tuple((sys.intern(port), sys.intern(tok)) for port, tok in pairs)
    ports = name_re.findall(ready_list)
    return frozenset(map(sys.intern, ports)) if outs.issuperset(ports) else None


def _check_port(p: _Parser, tok: Token, ports, kind: str) -> None:
    """Raise UNKNOWN_PORT at ``tok`` unless it is one of ``ports``, the ``kind`` ports."""
    if tok.text not in ports:
        raise p.fail_at(tok, "UNKNOWN_PORT", f"{tok.text!r} is not a {kind} port")


def _check_datum(p: _Parser, tok: Token, alphabet) -> None:
    """Raise UNKNOWN_TOKEN at ``tok`` unless it is in ``alphabet``."""
    if tok.text not in alphabet:
        raise p.fail_at(tok, "UNKNOWN_TOKEN", f"{tok.text!r} is not in the data alphabet")


def _token_round(tokens, seen_rounds, ins, outs, alphabet, idle) -> tuple[int, Round]:
    """One ``round`` line's tokens through the token parser; raises its ParseFailure."""
    p = _Parser(tokens)
    p.expect_ident("round")
    number_tok = p.expect_int()
    digits = number_tok.text.lstrip("0") or "0"
    if len(digits) > _ROUND_DIGITS or int(digits) > sys.maxsize:
        raise p.fail_at(number_tok, "BAD_ROUND", f"round numbers stop at {sys.maxsize}")
    number = int(digits)
    if number < 1:
        raise p.fail_at(number_tok, "BAD_ROUND", "rounds are numbered from 1")
    if number in seen_rounds:
        raise p.fail_at(number_tok, "DUP_ROUND", f"round {number} defined twice")
    p.expect_sym(":")

    def offer() -> tuple[str, str]:
        port_tok = p.expect_ident()
        p.expect_sym("=")
        tok = p.expect_ident()
        _check_port(p, port_tok, ins, "boundary-in")
        _check_datum(p, tok, alphabet)
        return port_tok.text, tok.text

    def ready_port() -> str:
        port_tok = p.expect_ident()
        _check_port(p, port_tok, outs, "boundary-out")
        return port_tok.text

    offers: list[tuple[str, str]] = []
    ready: set[str] = set()
    explicit_ready = False
    while p.peek().kind != "eof":
        if p.at_ident("offer"):
            p.next()
            offers += p.sep_list(offer)
        elif p.at_ident("ready"):
            p.next()
            explicit_ready = True
            ready.update(p.sep_list(ready_port))
        else:
            raise p.fail("SYNTAX", "expected 'offer' or 'ready'")
        if p.at_sym(";"):
            p.next()
    return number, Round(tuple(offers), frozenset(ready) if explicit_ready else idle)


def parse_env(text: str, circuit: Circuit) -> EnvScript:
    """Per-round offers and readiness on ``circuit``'s boundary.

    Lines: ``policy closed|all-ready`` (at most once, before any round),
    then ``round N: offer p=tok[, ...]; ready p[, ...]`` with both clauses
    optional, in any order, and repeatable. ``N`` runs from 1 to
    ``sys.maxsize``. Each offered port must be one of the circuit's
    boundary-in ports, each ready port a boundary-out port, and each
    offered token in its data alphabet.

    The policy is applied here, once: a round with no ready clause, and
    every round the script does not list (``idle``), readies nothing under
    ``closed`` and the circuit's boundary-out ports under ``all-ready``,
    the default.

    Each round line tries the round patterns first (``_fast_round``); that
    path never raises. It parses each distinct round body once per call, so
    rounds with equal bodies share one ``Round``, and each distinct offer
    or ready clause list once per call, so rounds share the offer tuples
    and ready frozensets built from those. A line it does not take
    goes to the token parser (``_token_round``), the one place a round
    line's ParseError comes from.
    """
    rounds: dict[int, Round] = {}
    bodies: dict[str, Round | None] = {}
    clauses: dict[tuple[str, str], tuple | frozenset | None] = {}
    ins, outs, alphabet = circuit.inputs, circuit.outputs, circuit.alphabet
    idle = outs
    for index, (line_no, column, stripped) in enumerate(_content_lines(text)):
        checks = (ins, outs, alphabet, idle)
        entry = _fast_round(stripped, rounds, bodies, clauses, checks)
        if entry is None:
            words = re.split(f"{_BLANK}+", stripped, maxsplit=1)
            if words[0] == "policy":
                value = words[1] if len(words) > 1 else ""
                if value not in (POLICY_CLOSED, POLICY_ALL_READY):
                    message = f"policy must be 'closed' or 'all-ready', found {value!r}"
                    # the value, which ends the line, or the word when it is missing
                    start = len(stripped) - len(value) if value else 0
                    span = SourceSpan(line_no, column + start, len(value or words[0]))
                elif index > 0:
                    message = "policy may be given once, before the first round"
                    span = SourceSpan(line_no, column, len(stripped))
                else:
                    idle = outs if value == POLICY_ALL_READY else frozenset()
                    continue
                raise ParseFailure(ParseError(span, "BAD_POLICY", message))
            entry = _token_round(_lex(stripped, line_no, column), rounds, *checks)
        number, r = entry
        rounds[number] = r
    return EnvScript(rounds, idle)


# --------------------------------------------------------------------------
# event map


class EventMap(NamedTuple):
    """Boundary firings to atom names: ``table[(port, datum)]`` for an entry
    that names its datum, ``table[(port, None)]`` for a port-only one."""

    table: dict[tuple[str, str | None], str]

    def lookup(self, port: str, datum: str) -> str | None:
        """The atom for ``port`` carrying ``datum``: the specific entry if
        there is one, else the port-only entry, else None."""
        atom = self.table.get((port, datum))
        return atom if atom is not None else self.table.get((port, None))


def parse_map(text: str, circuit: Circuit) -> EventMap:
    """Lines of ``port[=tok] -> Atom``, each ``(port, tok)`` at most once.

    Each port must be one of ``circuit``'s boundary ports and each ``tok`` in
    its data alphabet, since an entry for any other can never fire.
    """
    ports = circuit.inputs | circuit.outputs
    table: dict[tuple[str, str | None], str] = {}
    for line_no, column, stripped in _content_lines(text):
        p = _Parser(_lex(stripped, line_no, column))
        port_tok = p.expect_ident()
        datum_tok = None
        if p.at_sym("="):
            p.next()
            datum_tok = p.expect_ident()
        p.expect_sym("->")
        atom = p.expect_ident().text
        p.expect_eof()
        _check_port(p, port_tok, ports, "boundary")
        if datum_tok is not None:
            _check_datum(p, datum_tok, circuit.alphabet)
        key = (port_tok.text, datum_tok.text if datum_tok else None)
        if key in table:
            raise p.fail_at(
                port_tok, "DUP_MAP_ENTRY", f"duplicate mapping for {key!r}"
            )
        table[key] = atom
    return EventMap(table)
