import random

import pytest

from reokit import automata as A
from reokit import circuit as C
from reokit.dsl import parse_circuit

from util import MINIMAL_SYNC_TEXT, boundary_ports, random_circuit


def make(channels, ports=(), alphabet=("ok", "bad"), name="t"):
    return C.Circuit(name, frozenset(alphabet), tuple(ports), tuple(channels))


def test_minimal_sync_validates():
    c = parse_circuit(MINIMAL_SYNC_TEXT)
    report = C.validate_circuit(c)
    assert report.ok
    assert report.warnings == []


def test_fifo_init_outside_alphabet_is_error():
    c = make(
        [C.Channel("c1", C.FIFO1, "a", "b", init="zap")],
        [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)],
    )
    report = C.validate_circuit(c)
    assert [f.code for f in report.errors] == ["INIT_NOT_IN_ALPHABET"]


def test_undeclared_node_is_auto_created_and_disconnection_warned():
    # two channels, second one dangling off to an otherwise unused pair
    c = make(
        [
            C.Channel("c1", C.SYNC, "a", "b"),
            C.Channel("c2", C.SYNC, "x", "y"),
        ],
        [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)],
    )
    names = {n.name for n in c.nodes()}
    assert {"x", "y"} <= names
    report = C.validate_circuit(c)
    assert report.ok
    assert any(w.code == "DISCONNECTED" for w in report.warnings)


def test_boundary_in_with_incoming_is_error():
    c = make(
        [C.Channel("c1", C.SYNC, "b", "a"), C.Channel("c2", C.SYNC, "a", "b")],
        [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)],
    )
    codes = {f.code for f in C.validate_circuit(c).errors}
    assert "BOUNDARY_IN_HAS_INCOMING" in codes


def test_boundary_out_with_outgoing_warns_only():
    c = make(
        [
            C.Channel("c1", C.SYNC, "a", "b"),
            C.Channel("c2", C.SYNC_DRAIN, "b", "x"),
        ],
        [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)],
    )
    report = C.validate_circuit(c)
    assert report.ok
    assert any(w.code == "BOUNDARY_OUT_HAS_OUTGOING" for w in report.warnings)


def test_filter_accept_and_transform_checked():
    c = make(
        [
            C.Channel("c1", C.FILTER, "a", "b", accept=frozenset({"nope"})),
            C.Channel("c2", C.TRANSFORM, "a", "b", transform=(("ok", "ok"),)),
        ],
        [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)],
    )
    codes = {f.code for f in C.validate_circuit(c).errors}
    assert "ACCEPT_NOT_IN_ALPHABET" in codes
    assert "TRANSFORM_NOT_TOTAL" in codes


def test_transform_map_must_be_a_function():
    c = parse_circuit(
        "circuit t { data { ok, bad } ports { in a; out b; } "
        "transform(a, b, map={ok->bad, ok->ok, bad->bad}) }"
    )
    report = C.validate_circuit(c)
    assert [(f.code, f.element, f.message) for f in report.errors] == [
        (
            "TRANSFORM_NOT_FUNCTION",
            "c1",
            "transform map sends 'ok' to more than one item: ['bad', 'ok']",
        )
    ]
    with pytest.raises(C.InvalidCircuitError):
        A.compile_circuit(c)
    # a pair written twice is still a function
    c = parse_circuit(
        "circuit t { data { ok, bad } ports { in a; out b; } "
        "transform(a, b, map={ok->bad, ok->bad, bad->bad}) }"
    )
    assert C.validate_circuit(c).ok


def test_params_on_wrong_kind_rejected():
    c = make(
        [C.Channel("c1", C.SYNC, "a", "b", init="ok")],
        [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)],
    )
    assert [f.code for f in C.validate_circuit(c).errors] == ["BAD_PARAM"]


# each Channel parameter field: its DSL word, the one kind that takes it, and
# a value valid on the alphabet { ok, bad }
_PARAM_FIELDS = {
    "init": ("init", C.FIFO1, "ok"),
    "accept": ("accept", C.FILTER, frozenset({"ok"})),
    "transform": ("map", C.TRANSFORM, (("bad", "ok"), ("ok", "bad"))),
}
_BOUNDARY = [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)]


def _bad_params(channel):
    report = C.validate_circuit(make([channel], _BOUNDARY))
    return [f for f in report.errors if f.code == "BAD_PARAM"]


@pytest.mark.parametrize("kind", sorted(C.CHANNEL_KINDS))
@pytest.mark.parametrize("field", sorted(_PARAM_FIELDS))
def test_validator_bad_param_per_kind(field, kind):
    word, owner, value = _PARAM_FIELDS[field]
    found = _bad_params(C.Channel("c1", kind, "a", "b", **{field: value}))
    if kind == owner:
        assert found == []
    else:
        assert found == [C.Finding("BAD_PARAM", "c1", f"'{word}' is not a {kind} parameter")]


@pytest.mark.parametrize(
    "kind, fields, words",
    [
        (C.SYNC, ("transform", "accept", "init"), ["init", "accept", "map"]),
        (C.SYNC_DRAIN, ("transform", "init"), ["init", "map"]),
        (C.FIFO1, ("transform", "accept"), ["accept", "map"]),
        (C.FILTER, ("transform", "init"), ["init", "map"]),
        (C.TRANSFORM, ("accept", "init"), ["init", "accept"]),
    ],
)
def test_validator_bad_params_come_in_field_order(kind, fields, words):
    # one finding per wrong parameter, always in the order init, accept, map
    values = {field: _PARAM_FIELDS[field][2] for field in fields}
    assert _bad_params(C.Channel("c1", kind, "a", "b", **values)) == [
        C.Finding("BAD_PARAM", "c1", f"'{word}' is not a {kind} parameter") for word in words
    ]


def _findings(c):
    return [(f.code, f.element, f.message) for f in C.validate_circuit(c).errors]


@pytest.mark.parametrize(
    "ports, body, finding",
    [
        (
            "in a; out b;",
            "transform(a, b, map={ok->ok, zz->ok})",
            ("TRANSFORM_BAD_DOMAIN", "c1", "transform map keys outside alphabet: ['zz']"),
        ),
        (
            "in a; out b;",
            "transform(a, b, map={ok->zz})",
            ("TRANSFORM_BAD_VALUE", "c1", "transform map values outside alphabet: ['zz']"),
        ),
        (
            "in a; in p; out b;",  # no channel uses p
            "sync(a, b)",
            ("BOUNDARY_IN_NO_OUTGOING", "p", "boundary-in node needs at least one outgoing end"),
        ),
    ],
)
def test_validator_findings_on_parsed_circuits(ports, body, finding):
    c = parse_circuit(f"circuit t {{ data {{ ok }} ports {{ {ports} }} {body} }}")
    assert _findings(c) == [finding]


def test_validator_findings_on_built_circuits():
    sync = C.Channel("c1", C.SYNC, "a", "b")
    assert _findings(make([sync], _BOUNDARY, alphabet=())) == [
        ("EMPTY_ALPHABET", "t", "data alphabet must be non-empty")
    ]
    ports = [C.PortId("a", C.PORT_IN), C.PortId("b", "inout")]
    assert _findings(make([sync], ports)) == [
        ("BAD_PORT_KIND", "b", "port kind 'inout' is not in/out")
    ]
    assert _findings(make([sync, sync], _BOUNDARY)) == [
        ("DUPLICATE_CHANNEL_ID", "c1", "channel id reused")
    ]


def test_boundary_ports_requires_valid_circuit():
    c = make([C.Channel("c1", C.FIFO1, "a", "b", init="zap")],
             [C.PortId("a", C.PORT_IN), C.PortId("b", C.PORT_OUT)])
    with pytest.raises(C.InvalidCircuitError):
        boundary_ports(c)


def test_boundary_ports_partitions():
    c = parse_circuit(MINIMAL_SYNC_TEXT)
    ins, outs = boundary_ports(c)
    assert ins == {C.PortId("a", C.PORT_IN)}
    assert outs == {C.PortId("b", C.PORT_OUT)}
    assert (c.inputs, c.outputs) == ({"a"}, {"b"})


def test_boundary_ports_empty():
    c = make([C.Channel("c1", C.SYNC, "a", "b")])
    ins, outs = boundary_ports(c)
    assert ins == frozenset() and outs == frozenset()


def test_export_dot_deterministic_and_minimal():
    c = parse_circuit(MINIMAL_SYNC_TEXT)
    d1, d2 = C.export_dot(c), C.export_dot(c)
    assert d1 == d2
    assert d1.count("->") == 1
    assert 'label="sync"' in d1
    empty = make([], name="void")
    dot = C.export_dot(empty)
    assert "->" not in dot
    assert dot.startswith("digraph")


def test_export_dot_labels_channel_parameters():
    c = parse_circuit(
        "circuit t { data { ok, bad } ports { in a; out o; }"
        " filter(a, x, accept={ok}); transform(x, y, map={ok->bad, bad->ok});"
        " fifo1(y, o, init=ok); fifo1(a, o) }"
    )
    assert C.export_dot(c).splitlines()[-5:] == [
        '  "a" -> "x" [label="filter{ok}"];',
        '  "x" -> "y" [label="transform{bad->ok,ok->bad}"];',
        '  "y" -> "o" [label="fifo1(init=ok)"];',
        '  "a" -> "o" [label="fifo1"];',
        "}",
    ]


def test_export_dot_distinguishes_structures():
    a = make([C.Channel("c1", C.SYNC, "a", "b")])
    b = make([C.Channel("c1", C.LOSSY_SYNC, "a", "b")])
    c = make([C.Channel("c1", C.SYNC, "a", "x")])
    texts = {C.export_dot(x) for x in (a, b, c)}
    assert len(texts) == 3


def test_fuzz_validated_circuits_compile():
    # soundness of validation: anything it passes must compile cleanly
    rng = random.Random(20260808)
    for _ in range(500):
        c = random_circuit(rng)
        report = C.validate_circuit(c)
        assert report.ok, report.render()
        auto = A.compile_circuit(c)
        assert auto.names == frozenset(p.name for p in c.ports)


def test_value_domains_of_rescue(rescue_circuit):
    domains = C.value_domains(rescue_circuit)
    for ring in ("s1", "s2", "s3"):
        assert domains[ring] == {"tick"}
    behind_filter = ["cc", "ea", "pp", "ff"] + [f"{n}{k}" for n in "dg" for k in (1, 2, 3)]
    for name in behind_filter:
        assert domains[name] == {"ok"}, name
    for name in rescue_circuit.inputs | {"intake"}:
        assert domains[name] == rescue_circuit.alphabet, name


def test_value_domains_transform_init_and_drain():
    c = parse_circuit(
        "circuit t { data { ok, bad } ports { in a; out o; }"
        " filter(a, x, accept={ok}); transform(x, y, map={ok->bad, bad->ok});"
        " fifo1(y, z, init=ok); syncdrain(x, w); sync(z, o); }"
    )
    domains = C.value_domains(c)
    assert domains["x"] == {"ok"}
    assert domains["y"] == {"bad"}
    assert domains["z"] == domains["o"] == {"ok", "bad"}
    assert domains["w"] == frozenset()
