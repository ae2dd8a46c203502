"""Seeded, deterministic execution of a compiled automaton.

The environment is scripted per round: offers pin data on boundary-in
ports, readiness enables boundary-out ports. One automaton transition
fires per round (or the round stalls); ties between enabled steps are
broken uniformly by a pick that is a function of (seed, round) alone, a
sha256 of the two, so the same (automaton, script, seed) always yields a
byte-identical trace. The pick is made only in a round with a choice,
two or more enabled steps. Unconsumed offers do not persist into the
next round.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import NamedTuple

from .automata import ConstraintAutomaton, Transition, state_index, state_name


class EnvMismatchError(ValueError):
    pass


class Round(NamedTuple):
    offers: tuple[tuple[str, str], ...]
    ready: frozenset[str]


class EnvScript(NamedTuple):
    """Each listed round by number, and ``idle``, the readiness of every
    round the script does not list (which offers nothing).

    ``len(env)`` is the last listed round, not the field count, so a changed
    script is built with the constructor: ``_replace`` checks that count.
    """

    rounds: dict[int, Round]
    idle: frozenset[str]

    def __len__(self) -> int:
        return max(self.rounds, default=0)

    def round(self, n: int) -> Round:
        r = self.rounds.get(n)
        return Round((), self.idle) if r is None else r


class Firing(NamedTuple):
    round: int
    sync: frozenset[str]
    assignment: tuple[tuple[str, str], ...]
    state_before: int
    state_after: int


class Stall(NamedTuple):
    round: int


# Firing and Stall from a field tuple, without the named tuple's
# Python-level __new__: a simulation builds one per round
_firing = functools.partial(tuple.__new__, Firing)
_stall = functools.partial(tuple.__new__, Stall)


class Trace(NamedTuple):
    circuit: str
    seed: int
    steps: list[Firing | Stall]  # one per round

    def firings(self) -> list[Firing]:
        return [s for s in self.steps if isinstance(s, Firing)]

    def to_dict(self) -> dict:
        rounds = []
        for s in self.steps:
            if isinstance(s, Stall):
                rounds.append({"round": s.round, "kind": "stall"})
            else:
                rounds.append(
                    {
                        "round": s.round,
                        "kind": "firing",
                        "sync": sorted(s.sync),
                        "data": dict(s.assignment),
                        "from": state_name(s.state_before),
                        "to": state_name(s.state_after),
                    }
                )
        return {"circuit": self.circuit, "seed": self.seed, "rounds": rounds}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def trace_from_json(text: str, a: ConstraintAutomaton) -> Trace:
    """Rebuild a run of ``a`` from its JSON form, exactly: state ``sN`` is
    ``N``. The run starts at ``a.initial`` and a stall keeps its state.

    Raises ValueError for a document that is not an object or that nests
    past the recursion limit, a missing key, a ``circuit`` that is not a
    string, a ``seed`` that is not an int, a ``rounds`` entry that is not
    an object, a step whose ``round`` is not an int, is below 1 or is not
    greater than the round of the step before it, a ``kind`` other than
    ``stall`` and ``firing``, a firing whose ``sync`` is not a list or
    whose ``data`` is not an object, a state reference that ``state_name``
    does not write (``s<int>`` with no leading zero), or a firing that is
    not a move of the run's state with its sorted ``sync``, its ``to`` and
    its sorted ``data``, which holds no port outside ``a``, no datum
    outside its alphabet and no name twice. The error is the first in
    round order.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("trace JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("trace JSON must be an object")
    state = a.initial
    try:
        trace = Trace(doc["circuit"], doc["seed"], [])
        if not isinstance(trace.circuit, str):
            raise ValueError(f"trace circuit {trace.circuit!r} is not a string")
        if type(trace.seed) is not int:
            raise ValueError(f"trace seed {trace.seed!r} is not an int")
        for entry in doc["rounds"]:
            number = entry["round"]
            if type(number) is not int:
                raise ValueError(f"round {number!r} is not an int")
            if number < 1:
                raise ValueError(f"round {number} is below 1")
            if trace.steps and number <= trace.steps[-1].round:
                raise ValueError(f"round {number} does not follow round {trace.steps[-1].round}")
            kind = entry["kind"]
            if kind == "stall":
                trace.steps.append(Stall(round=number))
                continue
            if kind != "firing":
                raise ValueError(f"round {number} has kind {kind!r}, not 'stall' or 'firing'")
            sync, data = entry["sync"], entry["data"]
            if not isinstance(sync, list):  # "ab" would sort to ports a, b
                raise ValueError(f"firing sync {sync!r} is not a list of names")
            if not isinstance(data, dict):
                raise ValueError(f"firing data {data!r} is not an object")
            before, after = state_index(entry["from"]), state_index(entry["to"])
            # key=str: a sync with a name that is no string sorts, then matches no move
            ports = tuple(sorted(sync, key=str))
            assignment = tuple(sorted(data.items()))
            if before != state or not any(
                p == ports and t.dst == after and assignment in assignments
                for t, p, assignments, _ in a.moves[state]
            ):
                label = "{" + ", ".join(f"{port}={datum}" for port, datum in assignment) + "}"
                # a sync that the data's ports do not show is written out too
                if ports != tuple(port for port, _ in assignment):
                    label += f" on sync {json.dumps(sync)}"
                raise ValueError(
                    f"round {number}: firing {label} from {state_name(before)}"
                    f" to {state_name(after)} is not a move from the run's state"
                    f" {state_name(state)}"
                )
            trace.steps.append(Firing(number, frozenset(ports), assignment, before, after))
            state = after
    except KeyError as exc:
        raise ValueError(f"trace JSON lacks key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed trace JSON: {exc}") from None
    return trace


def enabled(
    a: ConstraintAutomaton,
    state: int,
    offers: dict[str, str],
    ready: frozenset[str],
) -> list[tuple[Transition, tuple[tuple[str, str], ...]]]:
    """The (transition, assignment) pairs of ``a.moves[state]``, in that
    order, whose sync-set names are all offered or ready and whose offered
    names all carry the offered value. An assignment is the sorted
    ``(name, value)`` tuple the move holds, shared, not copied.

    A move is a candidate when its sync-set is a subset of the offered and
    ready names. Which of its assignments match then depends only on the
    values offered on its sync-set, so that filter is memoized in the
    move's memo, keyed on those values (None where a name is only ready).
    The offered values are taken from ``a.alphabet``, as ``simulate``
    checks and ``parse_env`` ensures; any other value matches no
    assignment, and each one adds a key to the memo.
    """
    avail = ready | offers.keys()
    options = []
    for t, ports, assignments, memo in a.moves[state]:
        if t.sync <= avail:
            key = tuple(map(offers.get, ports))
            matches = memo.get(key)
            if matches is None:
                matches = memo[key] = tuple(
                    assignment
                    for assignment in assignments
                    if all(v is None or v == w for v, (_, w) in zip(key, assignment))
                )
            for assignment in matches:
                options.append((t, assignment))
    return options


def round_pick(seed: int, round_no: int, k: int) -> int:
    """The pick among ``k`` options in round ``round_no``: the first 8 bytes
    of the sha256 of ``"seed:round_no"``, big-endian, modulo ``k``.

    Stable across platforms and string hash seeds. The 64-bit value is
    uniform, so the modulo bias is below k/2**64.
    """
    digest = hashlib.sha256(f"{seed}:{round_no}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % k


def step(
    a: ConstraintAutomaton,
    state: int,
    round_no: int,
    offers: dict[str, str],
    ready: frozenset[str],
    seed: int,
) -> Firing | Stall:
    """One round: uniform choice over the enabled pairs, or a stall.

    The choice is ``round_pick(seed, round_no, len(options))``. With one
    option that is always 0, so the pick is made only when there are two
    or more.
    """
    options = enabled(a, state, offers, ready)
    if not options:
        return _stall((round_no,))
    k = len(options)
    transition, assignment = options[round_pick(seed, round_no, k) if k > 1 else 0]
    return _firing((round_no, transition.sync, assignment, state, transition.dst))


def simulate(
    a: ConstraintAutomaton,
    env: EnvScript,
    seed: int = 0,
    rounds: int | None = None,
    circuit_name: str = "",
) -> Trace:
    """Fold step over rounds 1..len(env), or up to ``rounds`` when that is
    smaller; None runs the whole script, and a negative cap raises
    ValueError before round 1.

    Port direction comes from the automaton: offers must name its
    ``inputs`` with values of its ``alphabet``, and readiness, ``idle``'s
    too, its boundary-out names, ``names - inputs``. The whole script is
    checked against them before round 1, and EnvMismatchError names the
    first offer or readiness that does not fit.

    Every round the script does not list has the same offers (none) and
    readiness, so a state that stalls in one stalls in all of them: an
    unlisted round in a state that has stalled in one is recorded unstepped.
    """
    if rounds is not None and rounds < 0:
        raise ValueError(f"round cap must be >= 0, got {rounds}")
    inputs, outputs = a.inputs, a.names - a.inputs
    for r in (Round((), env.idle), *env.rounds.values()):
        for port, tok in r.offers:
            if port not in inputs:
                raise EnvMismatchError(f"offer on {port!r}: not a boundary-in port")
            if tok not in a.alphabet:
                raise EnvMismatchError(f"offer {tok!r} on {port!r}: not in the data alphabet")
        for port in r.ready:
            if port not in outputs:
                raise EnvMismatchError(f"ready on {port!r}: not a boundary-out port")

    trace = Trace(circuit_name, seed, [])
    state = a.initial
    stalled = None  # the state that last stalled in an unlisted round
    last = len(env) if rounds is None else min(len(env), rounds)
    for n in range(1, last + 1):
        listed = n in env.rounds
        if not listed and state == stalled:
            trace.steps.append(_stall((n,)))
            continue
        r = env.round(n)
        outcome = step(a, state, n, dict(r.offers), r.ready, seed)
        trace.steps.append(outcome)
        if isinstance(outcome, Firing):
            state = outcome.state_after
        elif not listed:
            stalled = state
    return trace
