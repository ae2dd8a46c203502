#!/usr/bin/env python3
"""Seed sweep over a saturated environment.

Every round offers requests, consents and enables simultaneously, so the
scheduler has real choices; the sweep checks that the round-robin and
alarm-gating laws hold for every seed and reports how often the
independent alarm considerations came out in each order.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reokit import dsl, rescue
from reokit.automata import compile_circuit
from reokit.sim import simulate


def busy_env(circuit, rounds):
    lines = ["policy all-ready"]
    for n in range(1, rounds + 1):
        token = "ok" if n % 4 else "bad"
        lines.append(
            f"round {n}: offer citizens={token}, sensors=ok, act1=tick, act2=tick,"
            " act3=tick, ps_enable=tick, fs_enable=tick"
        )
    return dsl.parse_env("\n".join(lines), circuit)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=24)
    args = parser.parse_args()
    if args.seeds < 0:
        parser.error(f"seed count must be >= 0, got {args.seeds}")
    if args.rounds < 0:
        parser.error(f"round cap must be >= 0, got {args.rounds}")

    circuit = rescue.builtin_circuit()
    auto = compile_circuit(circuit)
    env = busy_env(circuit, args.rounds)

    alarm_orders = Counter()
    dispatch_total = 0
    for seed in range(args.seeds):
        trace = simulate(auto, env, seed, args.rounds, circuit.name)
        dispatched = []
        ea = police = fire = 0
        first = {}  # each alarm's first firing, by index
        for i, f in enumerate(trace.firings()):
            cases = [n for n in sorted(f.sync) if n.startswith("case")]
            dispatched.extend(cases)
            if "police_alarm" in f.sync:
                if ea <= police:
                    raise SystemExit(f"police alarm gating violated at seed {seed}")
                police += 1
            if "fire_alarm" in f.sync:
                if ea <= fire:
                    raise SystemExit(f"fire alarm gating violated at seed {seed}")
                fire += 1
            if "emergency_alarm" in f.sync:
                ea += 1
            for alarm in ("police_alarm", "fire_alarm"):
                if alarm in f.sync:
                    first.setdefault(alarm, i)
        cycle = ["case1", "case2", "case3"] * (len(dispatched) // 3 + 1)
        if dispatched != cycle[: len(dispatched)]:
            raise SystemExit(f"round-robin broken at seed {seed}")
        dispatch_total += len(dispatched)
        if len(first) == 2:
            if first["police_alarm"] < first["fire_alarm"]:
                alarm_orders["police_alarm before fire_alarm"] += 1
            elif first["fire_alarm"] < first["police_alarm"]:
                alarm_orders["fire_alarm before police_alarm"] += 1
            else:
                alarm_orders["police_alarm and fire_alarm in one firing"] += 1

    print(f"seeds: {args.seeds}, rounds each: {args.rounds}")
    print(f"total dispatches: {dispatch_total} (round-robin law held for every seed)")
    print("first-alarm orders observed:")
    for order, count in sorted(alarm_orders.items()):
        print(f"  {order}: {count}")
    print("alarm gating (pending notification required) held for every seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
