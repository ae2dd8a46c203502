"""Seeded, deterministic execution of a compiled automaton.

The environment is scripted per round: offers pin data on boundary-in
ports, readiness enables boundary-out ports. One automaton transition
fires per round (or the round stalls); ties between enabled steps are
broken uniformly by a deterministic per-round generator, so the same
(automaton, script, seed) always yields a byte-identical trace. The
generator is built only in a round with a choice, two or more enabled
steps, since it is used for nothing else.
Unconsumed offers do not persist into the next round.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import random
from typing import NamedTuple

from .automata import ConstraintAutomaton, Transition, state_index, state_name

POLICY_CLOSED = "closed"
POLICY_ALL_READY = "all-ready"


class EnvMismatchError(ValueError):
    pass


class Round(NamedTuple):
    offers: tuple[tuple[str, str], ...] = ()
    ready: frozenset[str] | None = None  # None: the script lists no ready clause


class EnvScript:
    def __init__(
        self, rounds: tuple[tuple[int, Round], ...] = (), default_policy: str = POLICY_ALL_READY
    ):
        self.rounds = rounds
        self.default_policy = default_policy

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rounds, self.default_policy) == (other.rounds, other.default_policy)

    def __repr__(self) -> str:
        return f"EnvScript(rounds={self.rounds!r}, default_policy={self.default_policy!r})"

    def __len__(self) -> int:
        return max((n for n, _ in self.rounds), default=0)

    @functools.cached_property
    def _by_number(self) -> dict[int, Round]:
        # reversed, so the first listing of a round number wins
        return dict(reversed(self.rounds))

    @functools.cached_property
    def _numbers(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_number))

    def next_listed(self, n: int) -> int:
        """The first round from ``n`` on that the script lists; ``len(self) + 1``
        when there is none."""
        if n in self._by_number:
            return n
        i = bisect.bisect_left(self._numbers, n)
        return self._numbers[i] if i < len(self._numbers) else len(self) + 1

    def round(self, n: int, all_outs: frozenset[str]) -> tuple[dict[str, str], frozenset[str]]:
        """Offers and effective readiness for round n."""
        default_ready = all_outs if self.default_policy == POLICY_ALL_READY else frozenset()
        r = self._by_number.get(n)
        if r is None:
            return {}, default_ready
        return dict(r.offers), default_ready if r.ready is None else r.ready


class SimConfig:
    def __init__(self, seed: int = 0, max_rounds: int = 2**31):
        if max_rounds < 0:
            raise ValueError(f"round cap must be >= 0, got {max_rounds}")
        self.seed = seed
        self.max_rounds = max_rounds


class Firing(NamedTuple):
    round: int
    sync: frozenset[str]
    assignment: tuple[tuple[str, str], ...]
    state_before: int
    state_after: int


class Stall(NamedTuple):
    round: int


class Trace:
    def __init__(self, circuit: str, seed: int, steps: list | None = None):
        self.circuit = circuit
        self.seed = seed
        self.steps = [] if steps is None else steps  # Firing | Stall per round

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.circuit, self.seed, self.steps) == (other.circuit, other.seed, other.steps)

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


def trace_from_json(text: str) -> Trace:
    """Rebuild a Trace from its JSON form, exactly: state ``sN`` is ``N``.

    Raises ValueError for a document that is not an object or that nests
    past the recursion limit, a missing key, a ``rounds`` entry that is not
    an object, a step whose ``round`` is not an int or is not greater than
    the round of the step before it, a firing whose ``sync`` is not a list
    of names or whose ``data`` does not map exactly those names to strings,
    or a state reference that is not ``s<int>``.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("trace JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("trace JSON must be an object")
    try:
        trace = Trace(circuit=doc["circuit"], seed=doc["seed"])
        for entry in doc["rounds"]:
            number = entry["round"]
            if isinstance(number, bool) or not isinstance(number, int):
                raise ValueError(f"round {number!r} is not an int")
            if trace.steps and number <= trace.steps[-1].round:
                raise ValueError(f"round {number} does not follow round {trace.steps[-1].round}")
            if entry["kind"] == "stall":
                trace.steps.append(Stall(round=number))
                continue
            sync, data = entry["sync"], entry["data"]
            if not (isinstance(sync, list) and all(isinstance(n, str) for n in sync)):
                raise ValueError(f"firing sync {sync!r} is not a list of names")
            if not (isinstance(data, dict) and data.keys() == set(sync)):
                raise ValueError(f"firing data {data!r} does not name exactly {sorted(set(sync))}")
            if not all(isinstance(v, str) for v in data.values()):
                raise ValueError(f"firing data {data!r} has a value that is not a string")
            trace.steps.append(
                Firing(
                    round=number,
                    sync=frozenset(sync),
                    assignment=tuple(sorted(data.items())),
                    state_before=state_index(entry["from"]),
                    state_after=state_index(entry["to"]),
                )
            )
    except KeyError as exc:
        raise ValueError(f"trace JSON lacks key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed trace JSON: {exc}") from None
    return trace


# stands for every offered value outside the alphabet in a memo key: no
# assignment carries one, so they all admit the same (no) assignments
_OUTSIDE = object()


def enabled(
    a: ConstraintAutomaton,
    state: int,
    offers: dict[str, str],
    ready: frozenset[str],
) -> list[tuple[Transition, tuple[tuple[str, str], ...]]]:
    """The (transition, assignment) pairs of ``a.moves(state)``, in that
    order, whose sync-set names are all offered or ready and whose offered
    names all carry the offered value. An assignment is the sorted
    ``(name, value)`` tuple the move holds, shared, not copied.

    A move is a candidate when its sync-set is a subset of the offered and
    ready names. Which of its assignments match then depends only on the
    values offered on its sync-set, so that filter is memoized in the
    move's memo, keyed on those values (None where a name is only ready).
    """
    avail = ready | offers.keys()
    options = []
    for t, ports, assignments, memo in a.moves(state):
        if t.sync <= avail:
            key = tuple(map(offers.get, ports))
            matches = memo.get(key)
            if matches is None:
                matches = _admitted(key, assignments, memo, a.alphabet)
            for assignment in matches:
                options.append((t, assignment))
    return options


def _admitted(key: tuple, assignments: tuple, memo: dict, alphabet: frozenset[str]) -> tuple:
    """The assignments that agree with every offered value in ``key``, stored
    in ``memo`` under ``key`` with each value outside the alphabet replaced
    by ``_OUTSIDE``, so such values add at most one key per pattern."""
    key = tuple(v if v is None or v in alphabet else _OUTSIDE for v in key)
    matches = memo.get(key)
    if matches is None:
        matches = memo[key] = tuple(
            assignment
            for assignment in assignments
            if all(v is None or v == w for v, (_, w) in zip(key, assignment))
        )
    return matches


def round_rng(seed: int, round_no: int) -> random.Random:
    """Deterministic per-round generator, stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{round_no}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def step(
    a: ConstraintAutomaton,
    state: int,
    round_no: int,
    offers: dict[str, str],
    ready: frozenset[str],
    seed: int,
) -> Firing | Stall:
    """One round: uniform choice over the enabled pairs, or a stall.

    The choice is ``round_rng(seed, round_no).randrange(len(options))``.
    That generator serves this one draw, and ``randrange(1)`` is always 0,
    so it is built only when there are two or more options.
    """
    options = enabled(a, state, offers, ready)
    if not options:
        return Stall(round_no)
    pick = round_rng(seed, round_no).randrange(len(options)) if len(options) > 1 else 0
    transition, assignment = options[pick]
    return Firing(
        round=round_no,
        sync=transition.sync,
        assignment=assignment,
        state_before=state,
        state_after=transition.dst,
    )


def simulate(
    a: ConstraintAutomaton,
    env: EnvScript,
    cfg: SimConfig,
    circuit_name: str = "",
) -> Trace:
    """Fold step over rounds 1..min(len(env), max_rounds).

    Port direction comes from the automaton: offers must name its
    ``inputs`` and readiness its boundary-out names, ``names - inputs``;
    the script is checked against them before round 1.

    Every round the script does not list has the same offers (none) and
    readiness, so a state that stalls in one stalls in each until the next
    listed round: those rounds are recorded as stalls without stepping.
    """
    inputs, outputs = a.inputs, a.names - a.inputs
    for _, r in env.rounds:
        for port, _tok in r.offers:
            if port not in inputs:
                raise EnvMismatchError(f"offer on {port!r}: not a boundary-in port")
        for port in r.ready or ():
            if port not in outputs:
                raise EnvMismatchError(f"ready on {port!r}: not a boundary-out port")

    trace = Trace(circuit=circuit_name, seed=cfg.seed)
    state = a.initial
    last = min(len(env), cfg.max_rounds)
    n = 1
    while n <= last:
        offers, ready = env.round(n, outputs)
        outcome = step(a, state, n, offers, ready, cfg.seed)
        trace.steps.append(outcome)
        if isinstance(outcome, Firing):
            state = outcome.state_after
        else:
            resume = min(env.next_listed(n), last + 1)
            if resume > n:
                trace.steps.extend(Stall(m) for m in range(n + 1, resume))
                n = resume - 1
        n += 1
    return trace
