"""The built-in rescue scenario: circuit, rulebase, event map, end-to-end run.

This module wires the two halves of the toolkit together: a compiled
coordination circuit is simulated against an environment script, the
boundary firings are mapped to compliance atoms, and the compliance
engine judges the resulting event stream. The circuit, rulebase,
environment and map all ship as DSL text under ``reokit/data/``.
"""

from __future__ import annotations

import functools
import json
import os
from typing import NamedTuple

from . import dsl
from .analysis import AnalysisReport, analyze
from .automata import ConstraintAutomaton, compile_circuit
from .circuit import Circuit
from .dsl import EventMap, EventScript
from .semlog import (
    Atom,
    ComplianceEngine,
    Event,
    ORIGIN_SCRIPT,
    ORIGIN_TRACE,
    RuleBase,
    Term,
    Verdict,
    pretty,
)
from .sim import EnvScript, SimConfig, Trace, simulate


_DATA = os.path.join(os.path.dirname(__file__), "data")


def _data(name: str) -> str:
    # read beside this module, not through ``importlib.resources``, which
    # imports ``inspect`` on Python 3.12 and later
    with open(os.path.join(_DATA, name), encoding="utf-8") as f:
        return f.read()


@functools.cache
def builtin_circuit() -> Circuit:
    """The rescue circuit, parsed from the shipped DSL text once per process."""
    return dsl.parse_circuit(_data("rescue.circuit"))


def builtin_rules() -> RuleBase:
    """The compliance program; counting rules r10/r11 are engine built-ins."""
    return dsl.parse_rulebase(_data("rescue.rules"))


def builtin_env() -> EnvScript:
    return dsl.parse_env(_data("rescue.env"), builtin_circuit())


def builtin_map() -> EventMap:
    return dsl.parse_map(_data("rescue.map"), builtin_circuit())


def map_trace(trace: Trace, mapping: EventMap) -> list[Term]:
    """The atoms that ``mapping`` gives the trace's boundary firings, in round order.

    Within one firing, its ``(port, datum)`` pairs are read in sorted port
    order; a specific (port, datum) entry wins over a port-only one; a pair
    with no entry gives nothing. The compliance engine numbers the atoms
    as it ingests them.
    """
    atoms = []
    for firing in trace.firings():
        for port, datum in sorted(firing.assignment):
            atom = mapping.lookup(port, datum)
            if atom is not None:
                atoms.append(Atom(atom))
    return atoms


class ScenarioReport(NamedTuple):
    trace: Trace
    events: list[Event]
    verdict: Verdict
    analysis: AnalysisReport

    def to_json(self) -> str:
        doc = {
            "trace": self.trace.to_dict(),
            "events": [
                {"index": e.index, "term": pretty(e.term), "origin": e.origin}
                for e in self.events
            ],
            "verdict": self.verdict.to_dict(),
            "analysis": self.analysis.to_dict(),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_rescue(
    seed: int = 0,
    rounds: int = 12,
    env: EnvScript | None = None,
    extra_events: EventScript | None = None,
    max_depth: int = 8,
    automaton: ConstraintAutomaton | None = None,
) -> ScenarioReport:
    """compile -> simulate -> map -> ingest+saturate -> verdict.

    Runs the shipped circuit and map, by default against the canned
    12-round environment. ``extra_events`` are scripted compliance events
    ingested after the trace-mapped ones (the helicopter-mission demo uses
    this hook). ``automaton``, the compiled shipped circuit, can be passed
    to skip recompilation.
    """
    cfg = SimConfig(seed=seed, max_rounds=rounds)
    engine = ComplianceEngine(builtin_rules(), max_depth=max_depth)
    c = builtin_circuit()
    auto = automaton if automaton is not None else compile_circuit(c)
    env = env if env is not None else builtin_env()
    trace = simulate(auto, env, cfg, circuit_name=c.name)
    for term in map_trace(trace, builtin_map()):
        engine.ingest(term, origin=ORIGIN_TRACE)
    if extra_events is not None:
        for term in extra_events.terms():
            engine.ingest(term, origin=ORIGIN_SCRIPT)
    verdict = engine.verdict()
    return ScenarioReport(
        trace=trace,
        events=engine.events,
        verdict=verdict,
        analysis=analyze(auto),
    )
