"""In-memory model of coordination circuits.

A circuit is a mesh of two-ended channels meeting at nodes. Nodes are
implicit: any identifier used as a channel end denotes a node and is
created on demand; only boundary ports need declaring. Each channel end
gets a globally unique internal name ``<channel_id>.a`` / ``<channel_id>.b``
so parallel channels between the same node pair stay distinguishable.
"""

from __future__ import annotations

from typing import NamedTuple

SYNC = "sync"
LOSSY_SYNC = "lossysync"
FIFO1 = "fifo1"
SYNC_DRAIN = "syncdrain"
ASYNC_DRAIN = "asyncdrain"
FILTER = "filter"
TRANSFORM = "transform"

CHANNEL_KINDS = frozenset(
    {SYNC, LOSSY_SYNC, FIFO1, SYNC_DRAIN, ASYNC_DRAIN, FILTER, TRANSFORM}
)

# Each channel parameter by its DSL word: the Channel field it fills and
# the one kind that takes it. Every other kind takes no parameter.
CHANNEL_PARAMS = {
    "init": ("init", FIFO1),
    "accept": ("accept", FILTER),
    "map": ("transform", TRANSFORM),
}

# Drains take data in at both ends; every other kind flows a -> b.
DRAIN_KINDS = frozenset({SYNC_DRAIN, ASYNC_DRAIN})

PORT_IN = "in"
PORT_OUT = "out"


class PortId(NamedTuple):
    """A named port; boundary ports are the circuit's environment surface."""

    name: str
    kind: str  # PORT_IN | PORT_OUT


class Channel(NamedTuple):
    """A two-ended channel primitive.

    ``end_a``/``end_b`` are node names. For directed kinds data flows from
    the a-end into the b-end; for drains both ends consume data.
    ``transform`` is stored as a sorted tuple of (src, dst) pairs so the
    value stays hashable.
    """

    id: str
    kind: str
    end_a: str
    end_b: str
    init: str | None = None
    accept: frozenset[str] | None = None
    transform: tuple[tuple[str, str], ...] | None = None

    @property
    def name_a(self) -> str:
        return f"{self.id}.a"

    @property
    def name_b(self) -> str:
        return f"{self.id}.b"

    def transform_map(self) -> dict[str, str]:
        return dict(self.transform or ())


class Node(NamedTuple):
    """A meeting point of channel ends.

    ``incoming`` holds end names that write data into the node,
    ``outgoing`` end names the node writes into. A node behaves as a
    nondeterministic merger over its inputs and an atomic replicator to
    all its outputs.
    """

    name: str
    incoming: frozenset[str]
    outgoing: frozenset[str]
    port: PortId | None = None


class Circuit(NamedTuple):
    name: str
    alphabet: frozenset[str]
    ports: tuple[PortId, ...]
    channels: tuple[Channel, ...]

    @property
    def inputs(self) -> frozenset[str]:
        """Names of the boundary-in ports."""
        return frozenset(p.name for p in self.ports if p.kind == PORT_IN)

    @property
    def outputs(self) -> frozenset[str]:
        """Names of the boundary-out ports."""
        return frozenset(p.name for p in self.ports if p.kind == PORT_OUT)

    def nodes(self) -> tuple[Node, ...]:
        """All nodes, auto-created from channel ends and port declarations."""
        incoming: dict[str, set[str]] = {}
        outgoing: dict[str, set[str]] = {}
        names: set[str] = set()
        for ch in self.channels:
            names.update((ch.end_a, ch.end_b))
            outgoing.setdefault(ch.end_a, set()).add(ch.name_a)
            if ch.kind in DRAIN_KINDS:
                outgoing.setdefault(ch.end_b, set()).add(ch.name_b)
            else:
                incoming.setdefault(ch.end_b, set()).add(ch.name_b)
        by_name = {p.name: p for p in self.ports}
        names.update(by_name)
        return tuple(
            Node(
                name=n,
                incoming=frozenset(incoming.get(n, ())),
                outgoing=frozenset(outgoing.get(n, ())),
                port=by_name.get(n),
            )
            for n in sorted(names)
        )


class Finding(NamedTuple):
    code: str
    element: str
    message: str


class ValidationReport(NamedTuple):
    errors: list[Finding]
    warnings: list[Finding]

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, element: str, message: str) -> None:
        self.errors.append(Finding(code, element, message))

    def warn(self, code: str, element: str, message: str) -> None:
        self.warnings.append(Finding(code, element, message))

    def render(self) -> str:
        lines = [
            f"error {f.code} [{f.element}]: {f.message}" for f in self.errors
        ] + [
            f"warning {f.code} [{f.element}]: {f.message}" for f in self.warnings
        ]
        if not lines:
            lines = ["ok"]
        return "\n".join(lines)


class InvalidCircuitError(ValueError):
    """Raised when an operation requires a circuit that failed validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(report.render())


def validate_circuit(c: Circuit) -> ValidationReport:
    """Check every structural invariant; errors and warnings are data."""
    rep = ValidationReport([], [])
    if not c.alphabet:
        rep.error("EMPTY_ALPHABET", c.name, "data alphabet must be non-empty")

    seen_ports: set[str] = set()
    for p in c.ports:
        if p.kind not in (PORT_IN, PORT_OUT):
            rep.error("BAD_PORT_KIND", p.name, f"port kind {p.kind!r} is not in/out")
        if p.name in seen_ports:
            rep.error("DUPLICATE_PORT", p.name, "port declared more than once")
        seen_ports.add(p.name)

    seen_ids: set[str] = set()
    for ch in c.channels:
        if ch.id in seen_ids:
            rep.error("DUPLICATE_CHANNEL_ID", ch.id, "channel id reused")
        seen_ids.add(ch.id)
        if ch.kind not in CHANNEL_KINDS:
            rep.error("UNKNOWN_KIND", ch.id, f"unknown channel kind {ch.kind!r}")
            continue
        for word, (field, kind) in CHANNEL_PARAMS.items():
            if getattr(ch, field) is not None and ch.kind != kind:
                rep.error("BAD_PARAM", ch.id, f"'{word}' is not a {ch.kind} parameter")
        if ch.kind == FIFO1 and ch.init is not None and ch.init not in c.alphabet:
            rep.error(
                "INIT_NOT_IN_ALPHABET",
                ch.id,
                f"fifo1 initial item {ch.init!r} not in the data alphabet",
            )
        if ch.kind == FILTER:
            if ch.accept is None:
                rep.error("MISSING_PARAM", ch.id, "filter requires an accept set")
            elif not ch.accept <= c.alphabet:
                bad = sorted(ch.accept - c.alphabet)
                rep.error(
                    "ACCEPT_NOT_IN_ALPHABET",
                    ch.id,
                    f"filter accept set contains non-alphabet items {bad}",
                )
        if ch.kind == TRANSFORM:
            mapping = ch.transform_map()
            if not mapping:
                rep.error("MISSING_PARAM", ch.id, "transform requires a map")
            else:
                for key in sorted(mapping):
                    images = sorted({b for a, b in ch.transform if a == key})
                    if len(images) > 1:
                        rep.error(
                            "TRANSFORM_NOT_FUNCTION",
                            ch.id,
                            f"transform map sends {key!r} to more than one item: {images}",
                        )
                missing = sorted(c.alphabet - mapping.keys())
                if missing:
                    rep.error(
                        "TRANSFORM_NOT_TOTAL",
                        ch.id,
                        f"transform map undefined on {missing}",
                    )
                extra = sorted(set(mapping) - c.alphabet)
                if extra:
                    rep.error(
                        "TRANSFORM_BAD_DOMAIN",
                        ch.id,
                        f"transform map keys outside alphabet: {extra}",
                    )
                bad_vals = sorted(set(mapping.values()) - c.alphabet)
                if bad_vals:
                    rep.error(
                        "TRANSFORM_BAD_VALUE",
                        ch.id,
                        f"transform map values outside alphabet: {bad_vals}",
                    )

    for node in c.nodes():
        if node.port is None:
            continue
        if node.port.kind == PORT_IN:
            if node.incoming:
                rep.error(
                    "BOUNDARY_IN_HAS_INCOMING",
                    node.name,
                    "boundary-in node may not receive channel data",
                )
            if not node.outgoing:
                rep.error(
                    "BOUNDARY_IN_NO_OUTGOING",
                    node.name,
                    "boundary-in node needs at least one outgoing end",
                )
        elif node.port.kind == PORT_OUT:
            if not node.incoming:
                rep.error(
                    "BOUNDARY_OUT_NO_INCOMING",
                    node.name,
                    "boundary-out node needs at least one incoming end",
                )
            if node.outgoing:
                rep.warn(
                    "BOUNDARY_OUT_HAS_OUTGOING",
                    node.name,
                    "boundary-out node also feeds channels",
                )

    _check_connectivity(c, rep)
    return rep


def partition(items, pairs) -> dict:
    """Union-find: map each item to one representative of its class.

    Items joined by a pair, directly or through other pairs, share a
    representative. It serves circuit-level work that runs once per
    circuit, the connectivity check over a circuit's nodes. The per-guard equality classes that ``automata.project`` and
    ``automata.sat_assignments`` need, thousands of times per compile,
    come from ``automata._classes`` instead, which is cheaper on the few
    names one guard mentions.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {x: find(x) for x in parent}


# Channels whose b-end fires only together with their a-end.
SYNCHRONOUS_KINDS = frozenset({SYNC, LOSSY_SYNC, FILTER, TRANSFORM})


def value_domains(c: Circuit) -> dict[str, frozenset[str]]:
    """The values each node can ever hold: a least fixpoint over the channels.

    A boundary-in port holds the whole alphabet. ``sync`` and ``lossysync``
    copy their a-end's values to their b-end, ``filter`` keeps the accepted
    ones, ``transform`` maps them through its table, ``fifo1`` adds its
    ``init``, and drains pass nothing on. A node holds the union of what
    flows into it.

    Constraint automata have no causality: a cycle of synchronous channels
    can carry any value its equalities allow, with nothing feeding it. So
    every node on such a cycle starts with the whole alphabet; seeded from
    the boundary-in ports alone, the fixpoint would be unsound.
    """
    flows = [ch for ch in c.channels if ch.kind not in DRAIN_KINDS]
    held: dict[str, set[str]] = {n.name: set() for n in c.nodes()}
    for name in c.inputs | _on_synchronous_cycle(c.channels):
        held[name] = set(c.alphabet)
    changed = True
    while changed:
        changed = False
        for ch in flows:
            values = held[ch.end_a]
            if ch.kind == FILTER:
                values = values & (ch.accept or frozenset())
            elif ch.kind == TRANSFORM:
                mapping = ch.transform_map()
                values = {mapping[v] for v in values}
            elif ch.kind == FIFO1 and ch.init is not None:
                values = values | {ch.init}
            if not values <= held[ch.end_b]:
                held[ch.end_b] |= values
                changed = True
    return {name: frozenset(values) for name, values in held.items()}


def _on_synchronous_cycle(channels) -> set[str]:
    """Nodes that reach themselves along synchronous channels, a-end to b-end."""
    succ: dict[str, set[str]] = {}
    for ch in channels:
        if ch.kind in SYNCHRONOUS_KINDS:
            succ.setdefault(ch.end_a, set()).add(ch.end_b)
    cyclic = set()
    for start in succ:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(succ.get(n, ()))
        if start in seen:
            cyclic.add(start)
    return cyclic


def _check_connectivity(c: Circuit, rep: ValidationReport) -> None:
    nodes = [n.name for n in c.nodes()]
    if len(nodes) <= 1:
        return
    root = partition(nodes, ((ch.end_a, ch.end_b) for ch in c.channels))
    components: dict[str, list[str]] = {}
    for n in nodes:
        components.setdefault(root[n], []).append(n)
    if len(components) > 1:
        groups = sorted(components.values(), key=len, reverse=True)
        for group in groups[1:]:
            rep.warn(
                "DISCONNECTED",
                ",".join(sorted(group)),
                "nodes are disconnected from the main component",
            )


def dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def channel_label(ch: Channel) -> str:
    if ch.kind == FIFO1 and ch.init is not None:
        return f"fifo1(init={ch.init})"
    if ch.kind == FILTER and ch.accept is not None:
        return "filter{" + ",".join(sorted(ch.accept)) + "}"
    if ch.kind == TRANSFORM and ch.transform is not None:
        pairs = ",".join(f"{a}->{b}" for a, b in sorted(ch.transform))
        return "transform{" + pairs + "}"
    return ch.kind


def export_dot(c: Circuit) -> str:
    """Render the circuit as a deterministic DOT graph.

    Boundary-in nodes come out as house shapes, boundary-out as inverted
    houses, internal nodes as points; output is sorted so equal circuits
    produce byte-identical text.
    """
    out = [f"digraph {dot_quote(c.name)} {{"]
    out.append("  rankdir=LR;")
    for node in c.nodes():  # already sorted by name
        if node.port is not None and node.port.kind == PORT_IN:
            shape = "house"
        elif node.port is not None and node.port.kind == PORT_OUT:
            shape = "invhouse"
        else:
            shape = "circle"
        out.append(f"  {dot_quote(node.name)} [shape={shape}];")
    for ch in sorted(c.channels, key=lambda ch: ch.id):
        style = " style=dashed" if ch.kind in DRAIN_KINDS else ""
        out.append(
            f"  {dot_quote(ch.end_a)} -> {dot_quote(ch.end_b)}"
            f" [label={dot_quote(channel_label(ch))}{style}];"
        )
    out.append("}")
    return "\n".join(out) + "\n"
