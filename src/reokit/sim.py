"""Seeded, deterministic execution of a compiled automaton.

The environment is scripted per round: offers pin data on boundary-in
ports, readiness enables boundary-out ports. One automaton transition
fires per round (or the round stalls); ties between enabled steps are
broken uniformly by a deterministic per-round generator, so the same
(automaton, script, seed) always yields a byte-identical trace.
Unconsumed offers do not persist into the next round.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field

from .automata import ConstraintAutomaton, Transition, const, sat_assignments

POLICY_CLOSED = "closed"
POLICY_ALL_READY = "all-ready"


class EnvMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Round:
    offers: tuple[tuple[str, str], ...] = ()
    ready: frozenset[str] = frozenset()
    explicit_ready: bool = False  # whether the script listed a ready clause

    def offer_map(self) -> dict[str, str]:
        return dict(self.offers)


@dataclass(frozen=True)
class EnvScript:
    rounds: tuple[tuple[int, Round], ...] = ()
    default_policy: str = POLICY_ALL_READY

    def __len__(self) -> int:
        return max((n for n, _ in self.rounds), default=0)

    @functools.cached_property
    def _by_number(self) -> dict[int, Round]:
        # reversed, so the first listing of a round number wins
        return dict(reversed(self.rounds))

    def round(self, n: int, all_outs: frozenset[str]) -> tuple[dict[str, str], frozenset[str]]:
        """Offers and effective readiness for round n."""
        default_ready = all_outs if self.default_policy == POLICY_ALL_READY else frozenset()
        r = self._by_number.get(n)
        if r is None:
            return {}, default_ready
        return r.offer_map(), r.ready if r.explicit_ready else default_ready

    def mentioned_ports(self) -> set[str]:
        out = set()
        for _, r in self.rounds:
            out.update(p for p, _ in r.offers)
            out.update(r.ready)
        return out


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    max_rounds: int = 2**31


@dataclass(frozen=True)
class Firing:
    round: int
    sync: frozenset[str]
    assignment: tuple[tuple[str, str], ...]
    state_before: int
    state_after: int

    def data(self) -> dict[str, str]:
        return dict(self.assignment)


@dataclass(frozen=True)
class Stall:
    round: int


@dataclass
class Trace:
    circuit: str
    seed: int
    steps: list = field(default_factory=list)  # Firing | Stall per round

    def firings(self) -> list[Firing]:
        return [s for s in self.steps if isinstance(s, Firing)]

    def to_json(self, automaton: ConstraintAutomaton | None = None) -> str:
        rounds = []
        for s in self.steps:
            if isinstance(s, Stall):
                rounds.append({"round": s.round, "kind": "stall"})
            else:
                entry = {
                    "round": s.round,
                    "kind": "firing",
                    "sync": sorted(s.sync),
                    "data": dict(s.assignment),
                }
                if automaton is not None:
                    entry["from"] = automaton.labels[s.state_before]
                    entry["to"] = automaton.labels[s.state_after]
                else:
                    entry["from"] = s.state_before
                    entry["to"] = s.state_after
                rounds.append(entry)
        doc = {"circuit": self.circuit, "seed": self.seed, "rounds": rounds}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def trace_from_json(text: str) -> Trace:
    """Rebuild a Trace from its JSON form.

    State references that were serialized as labels come back as -1;
    the firing data (sync-set and assignment) is what downstream
    consumers such as the event mapper rely on.
    """
    doc = json.loads(text)
    trace = Trace(circuit=doc.get("circuit", ""), seed=doc.get("seed", 0))
    for entry in doc.get("rounds", []):
        if entry.get("kind") == "firing":
            def state_of(key: str) -> int:
                value = entry.get(key, -1)
                return value if isinstance(value, int) else -1

            trace.steps.append(
                Firing(
                    round=entry["round"],
                    sync=frozenset(entry["sync"]),
                    assignment=tuple(sorted(entry["data"].items())),
                    state_before=state_of("from"),
                    state_after=state_of("to"),
                )
            )
        else:
            trace.steps.append(Stall(round=entry["round"]))
    return trace


def enabled(
    a: ConstraintAutomaton,
    state: int,
    offers: dict[str, str],
    ready: frozenset[str],
) -> list[tuple[Transition, dict[str, str]]]:
    """The (transition, assignment) pairs fireable under this environment.

    Every sync-set name must be either offered (with agreeing data) or
    ready; the assignment must satisfy the transition's constraint.
    Offered values are pinned into the constraint before enumeration.
    Deterministically sorted.
    """
    out = []
    for t in a.outgoing(state):
        if any(n not in offers and n not in ready for n in t.sync):
            continue
        pinned = t.guard
        for n in sorted(t.sync):
            if n in offers:
                pinned = pinned.conj(const(n, offers[n]))
        for assignment in sat_assignments(pinned, t.sync, a.alphabet):
            out.append((t, assignment))
    out.sort(key=lambda pair: (pair[0].sort_key(), tuple(sorted(pair[1].items()))))
    return out


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
    rng: random.Random,
) -> Firing | Stall:
    """One round: uniform choice over the enabled pairs, or a stall."""
    options = enabled(a, state, offers, ready)
    if not options:
        return Stall(round_no)
    transition, assignment = options[rng.randrange(len(options))]
    return Firing(
        round=round_no,
        sync=transition.sync,
        assignment=tuple(sorted(assignment.items())),
        state_before=state,
        state_after=transition.dst,
    )


def simulate(
    a: ConstraintAutomaton,
    env: EnvScript,
    cfg: SimConfig,
    inputs: frozenset[str],
    outputs: frozenset[str],
    circuit_name: str = "",
) -> Trace:
    """Fold step over rounds 1..min(len(env), max_rounds).

    ``inputs``/``outputs`` partition the automaton's boundary names; the
    script is cross-checked against them before round 1.
    """
    for _, r in env.rounds:
        for port, _tok in r.offers:
            if port not in inputs:
                raise EnvMismatchError(f"offer on {port!r}: not a boundary-in port")
        for port in r.ready:
            if port not in outputs:
                raise EnvMismatchError(f"ready on {port!r}: not a boundary-out port")
    unknown = env.mentioned_ports() - set(a.names)
    if unknown:
        raise EnvMismatchError(f"env references unknown ports {sorted(unknown)}")

    trace = Trace(circuit=circuit_name, seed=cfg.seed)
    state = a.initial
    for n in range(1, min(len(env), cfg.max_rounds) + 1):
        offers, ready = env.round(n, outputs)
        outcome = step(a, state, n, offers, ready, round_rng(cfg.seed, n))
        trace.steps.append(outcome)
        if isinstance(outcome, Firing):
            state = outcome.state_after
    return trace
