"""Verification passes over constraint automata.

Everything here works by finite-domain expansion: a step label is the
pair (sync-set, total data assignment on it), so trace comparison and
bisimulation are exact without any symbolic reasoning.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .automata import ConstraintAutomaton, state_name

# A step is (sorted sync tuple, sorted (name, item) pairs). Plain tuples
# keep everything orderable and hashable.
Step = tuple[tuple[str, ...], tuple[tuple[str, str], ...]]


def expanded_steps(a: ConstraintAutomaton, state: int) -> list[tuple[Step, int]]:
    """All (label, successor) pairs from a state, fully expanded and sorted."""
    return sorted(
        ((ports, assignment), t.dst)
        for t, ports, assignments, _ in a.moves[state]
        for assignment in assignments
    )


def reachable(a: ConstraintAutomaton) -> set[int]:
    """States reachable from the initial over satisfiable transitions."""
    seen = {a.initial}
    stack = [a.initial]
    while stack:
        s = stack.pop()
        for t, _, assignments, _ in a.moves[s]:
            if assignments and t.dst not in seen:
                seen.add(t.dst)
                stack.append(t.dst)
    return seen


def bisimilar(a: ConstraintAutomaton, b: ConstraintAutomaton) -> bool:
    """Strong bisimilarity of the initial states.

    Labels are fully expanded (sync-set, assignment) pairs; the check is
    plain partition refinement on the disjoint union of the state sets.
    """
    if a.names != b.names:
        raise ValueError(
            f"name sets differ: {sorted(a.names)} vs {sorted(b.names)}"
        )
    states = [(0, s) for s in range(a.n_states)] + [(1, s) for s in range(b.n_states)]
    succ: dict[tuple[int, int], list[tuple[Step, tuple[int, int]]]] = {}
    for side, auto in ((0, a), (1, b)):
        for s in range(auto.n_states):
            succ[(side, s)] = [
                (step, (side, dst)) for step, dst in expanded_steps(auto, s)
            ]
    block = {s: 0 for s in states}
    while True:
        signatures = {}
        for s in states:
            signatures[s] = (
                block[s],
                frozenset((step, block[dst]) for step, dst in succ[s]),
            )
        remap: dict = {}
        new_block = {}
        for s in states:  # deterministic: states list order fixes ids
            sig = signatures[s]
            if sig not in remap:
                remap[sig] = len(remap)
            new_block[s] = remap[sig]
        if new_block == block:
            break
        block = new_block
    return block[(0, a.initial)] == block[(1, b.initial)]


class AnalysisReport(NamedTuple):
    reachable_count: int
    deadlock_states: list[str]
    dead_ports: list[str]  # the names no satisfiable reachable move fires

    def to_dict(self) -> dict:
        # "notes" is always empty; the key stays so the JSON form is stable
        doc = {
            "reachable": self.reachable_count,
            "deadlocks": self.deadlock_states,
            "notes": [],
        }
        if self.dead_ports:
            doc["dead_ports"] = self.dead_ports
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = [f"reachable states: {self.reachable_count}"]
        if self.deadlock_states:
            lines.append(f"deadlock states: {', '.join(self.deadlock_states)}")
        else:
            lines.append("no deadlocks")
        if self.dead_ports:
            lines.append(f"dead ports: {', '.join(self.dead_ports)}")
        return "\n".join(lines)


def analyze(a: ConstraintAutomaton) -> AnalysisReport:
    """One reachability walk, read for its deadlocks (reachable states with
    no satisfiable outgoing move) and dead ports (names of ``a`` that no
    satisfiable move from a reachable state fires)."""
    reach = reachable(a)
    deadlocks = []
    fired: set[str] = set()
    for s in sorted(reach):
        live = [ports for _, ports, assignments, _ in a.moves[s] if assignments]
        if not live:
            deadlocks.append(state_name(s))
        fired.update(*live)
    return AnalysisReport(len(reach), deadlocks, sorted(a.names - fired))
