#!/usr/bin/env python3
"""End-to-end rescue walkthrough: compile, simulate, map, judge.

Runs the canned 12-round environment, then the same trace with three
scripted helicopter missions (the budget warning chain) and the
double-check that resolves the warning.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reokit import dsl, rescue
from reokit.automata import compile_circuit
from reokit.semlog import pretty


def describe(report, title):
    print(f"--- {title}")
    for step in report.trace.steps:
        if hasattr(step, "sync"):
            data = ", ".join(f"{k}={v}" for k, v in sorted(step.assignment))
            print(f"  round {step.round:>2}: fire {{{', '.join(sorted(step.sync))}}} [{data}]")
        else:
            print(f"  round {step.round:>2}: stall")
    print(f"  events: {[pretty(e.term) for e in report.events]}")
    verdict = report.verdict
    print(f"  warnings:   {[pretty(t) for t in verdict.warnings]}")
    print(f"  resolved:   {[pretty(t) for t in verdict.resolved]}")
    print(f"  failures:   {[pretty(t) for t in verdict.failures]}")
    print(f"  violations: {len(verdict.order_violations)}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    circuit = rescue.builtin_circuit()
    print(f"compiling {circuit.name} ({len(circuit.channels)} channels) ...")
    auto = compile_circuit(circuit)
    print(f"automaton: {auto.n_states} states, {len(auto.transitions)} transitions\n")

    base = rescue.run_rescue(seed=args.seed, automaton=auto)
    describe(base, "canned environment (protocol-compliant)")

    missions = dsl.parse_events("HelicopterMission\n" * 3)
    warned = rescue.run_rescue(seed=args.seed, automaton=auto, extra_events=missions)
    describe(warned, "same trace + three helicopter missions (budget warning)")

    checked = rescue.run_rescue(
        seed=args.seed,
        automaton=auto,
        extra_events=dsl.parse_events(
            "HelicopterMission\n" * 3 + "DoubleCheck(P((Very)BudgetConsuming))\n"
        ),
    )
    describe(checked, "with the double-check (warning resolved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
