"""Seeded input generators for the benchmark workloads.

Every generator returns DSL text; the program under test only ever sees
that text. The same arguments give byte-identical text, because all
randomness comes from a ``random.Random`` seeded with the workload seed.
"""

from __future__ import annotations

import random

IN_FIXED = ("citizens", "sensors")
ALARMS = ("emergency_alarm", "police_alarm", "fire_alarm")
PROTOCOL = ("AmbulanceRequest", "FireRequest", "PoliceRequest")
HELICOPTER = "HelicopterMission"
DOUBLE_CHECK = "DoubleCheck(P((Very)BudgetConsuming))"


def dispatch_circuit(k: int) -> str:
    """The rescue protocol with ``k`` staff branches instead of three.

    The text follows ``reokit/data/rescue.circuit`` line for line, so at
    k = 3 it compiles to an automaton bisimilar to the shipped circuit.
    The circuit has no random part: the workload seed reaches the
    rescue-compile workload through the simulation seed instead, which
    keeps the compile counts identical across seeds.
    """
    if k < 2:
        raise ValueError("dispatch needs at least two branches")
    br = range(1, k + 1)
    ins = [*IN_FIXED, *(f"act{i}" for i in br), "ps_enable", "fs_enable"]
    outs = [*(f"case{i}" for i in br), *ALARMS]
    lines = [f"circuit dispatch_{k} {{", "  data { ok, bad, tick }", "  ports {"]
    lines += [f"    in {p};" for p in ins] + [f"    out {p};" for p in outs]
    lines += ["  }", "  sync(citizens, intake);", "  sync(sensors, intake);"]
    lines.append("  filter(intake, cc, accept={ok});")
    lines += [f"  lossysync(cc, d{i});" for i in br]
    lines.append("  syncdrain(cc, m);")
    lines += [f"  sync(d{i}, m);" for i in br]
    lines.append(f"  fifo1(s{k}, s1, init=tick);")
    lines += [f"  fifo1(s{i}, s{i + 1});" for i in range(1, k)]
    lines += [f"  syncdrain(d{i}, s{i});" for i in br]
    lines += [f"  sync(d{i}, case{i});" for i in br]
    lines += [f"  fifo1(d{i}, g{i});" for i in br]
    lines += [f"  syncdrain(g{i}, act{i});" for i in br]
    lines += [f"  sync(g{i}, ea);" for i in br]
    lines += [
        "  sync(ea, emergency_alarm);",
        "  fifo1(ea, pp);",
        "  fifo1(ea, ff);",
        "  sync(pp, police_alarm);",
        "  syncdrain(pp, ps_enable);",
        "  sync(ff, fire_alarm);",
        "  syncdrain(ff, fs_enable);",
        "}",
    ]
    return "\n".join(lines) + "\n"


def busy_env(seed: int, rounds: int) -> str:
    """A random environment for the rescue circuit, ``rounds`` rounds long.

    Each round offers a random subset of the boundary-in ports, with
    ``bad`` requests mixed in, and makes a random subset of the
    boundary-out ports ready (policy ``closed``, so a round without a
    ``ready`` clause has nothing ready). The scheduler therefore has real
    choices, and some rounds stall.
    """
    rng = random.Random(seed)
    acts = [f"act{i}" for i in (1, 2, 3)]
    outs = [f"case{i}" for i in (1, 2, 3)] + list(ALARMS)
    lines = ["policy closed"]
    for n in range(1, rounds + 1):
        offers = [
            f"{p}={'bad' if rng.random() < 0.25 else 'ok'}"
            for p in IN_FIXED
            if rng.random() < 0.6
        ]
        offers += [f"{p}=tick" for p in acts + ["ps_enable", "fs_enable"] if rng.random() < 0.5]
        ready = [p for p in outs if rng.random() < 0.8]
        clauses = []
        if offers:
            clauses.append("offer " + ", ".join(offers))
        if ready:
            clauses.append("ready " + ", ".join(ready))
        lines.append(f"round {n}: " + "; ".join(clauses))
    return "\n".join(lines) + "\n"


def event_stream(seed: int, n: int) -> str:
    """``n`` ground compliance events, one per line, for the rescue rules.

    Mostly the protocol atoms in protocol order, with some adjacent pairs
    swapped (order violations), helicopter missions (which make budget
    warnings derivable) and double checks (which resolve them).
    """
    rng = random.Random(seed)
    events: list[str] = []
    cursor = 0
    while len(events) < n:
        roll = rng.random()
        if roll < 0.04:
            events.append(HELICOPTER)
        elif roll < 0.05:
            events.append(DOUBLE_CHECK)
        else:
            events.append(PROTOCOL[cursor % 3])
            cursor += 1
            if rng.random() < 0.03 and len(events) >= 2:
                events[-1], events[-2] = events[-2], events[-1]
    return "\n".join(events) + "\n"
