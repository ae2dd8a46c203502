"""The library's records: immutable values are named tuples, stateful ones
plain classes, and importing reokit loads neither ``dataclasses`` nor
``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from reokit import analysis, circuit, dsl, semlog, sim

SRC = Path(__file__).resolve().parent.parent / "src"

_SPAN = dsl.SourceSpan(2, 5, 3)
_TERM = semlog.Atom("FireRequest")
_PORT = circuit.PortId("a", circuit.PORT_IN)
_CHANNEL = circuit.Channel("c1", circuit.FIFO1, "a", "b", "ok", None, None)
_GUARD = semlog.Guard("I", 2)
_RULE = semlog.Rule("r1", (_TERM,), (_GUARD,), semlog.Op(semlog.P_OP, _TERM))
_FACT = semlog.StandingFact("f1", _TERM)
_SCRIPTED = dsl.ScriptedEvent(_TERM, _SPAN)

# each immutable value with the tuple of its fields, in declaration order
VALUES = [
    (_PORT, ("a", "in")),
    (_CHANNEL, ("c1", "fifo1", "a", "b", "ok", None, None)),
    (
        circuit.Node("a", frozenset(), frozenset({"c1.a"}), _PORT),
        ("a", frozenset(), frozenset({"c1.a"}), _PORT),
    ),
    (
        circuit.Circuit("t", frozenset({"ok"}), (_PORT,), (_CHANNEL,)),
        ("t", frozenset({"ok"}), (_PORT,), (_CHANNEL,)),
    ),
    (circuit.Finding("UNKNOWN_KIND", "c1", "bad"), ("UNKNOWN_KIND", "c1", "bad")),
    (_SPAN, (2, 5, 3)),
    (
        dsl.ParseError(_SPAN, "SYNTAX", "expected ';'", frozenset({";"})),
        (_SPAN, "SYNTAX", "expected ';'", frozenset({";"})),
    ),
    (dsl.Token("ident", "a", _SPAN), ("ident", "a", _SPAN)),
    (_SCRIPTED, (_TERM, _SPAN)),
    (dsl.EventScript((_SCRIPTED,)), ((_SCRIPTED,),)),
    (dsl.EventMap({("a", None): "Fire"}), ({("a", None): "Fire"},)),
    (_GUARD, ("I", 2)),
    (_RULE, ("r1", (_TERM,), (_GUARD,), semlog.Op(semlog.P_OP, _TERM))),
    (_FACT, ("f1", _TERM)),
    (semlog.RuleBase((("A", "B"),), (_FACT,), (_RULE,)), ((("A", "B"),), (_FACT,), (_RULE,))),
    (semlog.Event(1, _TERM, semlog.ORIGIN_SCRIPT), (1, _TERM, "script")),
    (semlog.Derivation("r1", (_TERM,)), ("r1", (_TERM,))),
    (semlog.OrderViolation(("A", "B"), 3, "B", ("A",)), (("A", "B"), 3, "B", ("A",))),
    (sim.Round((("a", "ok"),), frozenset({"b"})), ((("a", "ok"),), frozenset({"b"}))),
    (
        sim.Firing(4, frozenset({"a"}), (("a", "ok"),), 0, 1),
        (4, frozenset({"a"}), (("a", "ok"),), 0, 1),
    ),
    (sim.Stall(5), (5,)),
]


@pytest.mark.parametrize("value, fields", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_hashes_and_compares_as_its_field_tuple(value, fields):
    # a frozen dataclass hashed as this tuple too, so set and dict orders,
    # and every output built from them, do not depend on the record type
    assert value == fields and tuple(value) == fields
    assert value._replace() == value
    try:
        expected = hash(fields)
    except TypeError:  # an EventMap holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


def test_value_replace_changes_only_the_named_field():
    assert _PORT._replace(kind=circuit.PORT_OUT) == circuit.PortId("a", "out")
    assert hash(_PORT._replace(kind="out")) == hash(("a", "out"))


@pytest.mark.parametrize(
    "make, names",
    [
        (lambda: sim.Trace("t", 0), ("steps",)),
        (circuit.ValidationReport, ("errors", "warnings")),
        (lambda: analysis.AnalysisReport(1, []), ("notes",)),
        (lambda: semlog.Verdict([], [], [], [], 0), ("diagnostics",)),
    ],
    ids=["Trace", "ValidationReport", "AnalysisReport", "Verdict"],
)
def test_records_built_with_defaults_share_no_list(make, names):
    first, second = make(), make()
    for name in names:
        getattr(first, name).append("x")
        assert getattr(second, name) == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # ``dataclasses`` imports ``inspect`` (and ``ast``, ``dis``, ``tokenize``),
    # and building its classes cost most of ``import reokit.cli``; only the
    # modules the import itself adds count, not those the interpreter loaded
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import reokit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
