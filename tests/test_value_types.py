"""The library's records are named tuples, values and run records alike;
only a stateful type stays a plain class. Importing reokit
loads neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from reokit import analysis, automata, circuit, dsl, semlog, sim

SRC = Path(__file__).resolve().parent.parent / "src"

_SPAN = dsl.SourceSpan(2, 5, 3)
_TERM = semlog.Atom("FireRequest")
_PORT = circuit.PortId("a", circuit.PORT_IN)
_CHANNEL = circuit.Channel("c1", circuit.FIFO1, "a", "b", "ok", None, None)
_GUARD = semlog.Guard("I", 2)
_RULE = semlog.Rule("r1", (_TERM,), (_GUARD,), semlog.Op(semlog.P_OP, _TERM))
_FACT = semlog.StandingFact("f1", _TERM)
_SCRIPTED = dsl.ScriptedEvent(_TERM, _SPAN)
_AUTOMATON_FIELDS = (
    frozenset({"a", "b"}),
    ((automata.Transition(frozenset({"a", "b"}), automata.TRUE, 0),),),
    0,
    frozenset({"ok"}),
    frozenset({"a"}),
)

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
        dsl.ParseError(_SPAN, "SYNTAX", "expected ';'"),
        (_SPAN, "SYNTAX", "expected ';'"),
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
    (sim.Trace("t", 0, [sim.Stall(1)]), ("t", 0, [sim.Stall(1)])),
    (
        semlog.Verdict([], [], [], [semlog.OrderViolation(("A",), 0, "B", ("A",))], 3, ["cut"]),
        ([], [], [], [(("A",), 0, "B", ("A",))], 3, ["cut"]),
    ),
    (analysis.AnalysisReport(96, ["s3"], ["o0"]), (96, ["s3"], ["o0"])),
    (
        circuit.ValidationReport([circuit.Finding("UNKNOWN_KIND", "c1", "bad")], []),
        ([("UNKNOWN_KIND", "c1", "bad")], []),
    ),
    (automata.ConstraintAutomaton(*_AUTOMATON_FIELDS), _AUTOMATON_FIELDS),
]


@pytest.mark.parametrize("value, fields", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_hashes_and_compares_as_its_field_tuple(value, fields):
    # a frozen dataclass hashed as this tuple too, so set and dict orders,
    # and every output built from them, do not depend on the record type
    assert value == fields and tuple(value) == fields
    assert value._replace() == value
    try:
        expected = hash(fields)
    except TypeError:  # an EventMap holds a dict, a run record holds lists
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


def test_value_replace_changes_only_the_named_field():
    assert _PORT._replace(kind=circuit.PORT_OUT) == circuit.PortId("a", "out")
    assert hash(_PORT._replace(kind="out")) == hash(("a", "out"))


def test_automaton_caches_take_no_part_in_its_value():
    # ``transitions`` and ``moves`` cache in the instance dict, which
    # neither equality nor hashing reads, and a ``_replace`` copy starts
    # with none of it
    a = automata.ConstraintAutomaton(*_AUTOMATON_FIELDS)
    assert isinstance(a, tuple)
    assert a._fields == ("names", "rows", "initial", "alphabet", "inputs")
    assert a.moves[0] and a.transitions == a.rows[0]
    assert vars(a)
    copy = a._replace()
    assert a == copy and hash(a) == hash(copy) == hash(_AUTOMATON_FIELDS)
    assert vars(copy) == {}
    assert automata.ConstraintAutomaton(*_AUTOMATON_FIELDS[:4]).inputs == frozenset()


def test_env_script_compares_as_its_field_tuple_and_does_not_hash():
    # like an EventMap it holds a dict, so it compares but does not hash;
    # ``len`` is its last listed round, not its field count
    rounds, idle = {3: sim.Round((("a", "ok"),), frozenset({"b"}))}, frozenset({"b"})
    env = sim.EnvScript(rounds, idle)
    assert env == (rounds, idle) and tuple(env) == (rounds, idle)
    assert env != sim.EnvScript(rounds, frozenset())
    assert (env.rounds, env.idle) == (rounds, idle)
    assert len(env) == 3 and len(sim.EnvScript({}, idle)) == 0
    with pytest.raises(TypeError):
        hash(env)


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
