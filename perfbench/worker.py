"""One timed repetition of a benchmark job, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
begins with reokit's module-level caches empty, as a user's ``reokit``
process does. Usage: ``worker.py SPEC_JSON``. The spec names the job, the
checkout root, the input files and whether to trace. The last line of
standard output is a JSON object: set-up and job wall time, peak resident
memory, the output checks made, and with tracing the span summary.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

CASES = ("case1", "case2", "case3")


def import_reokit(root: Path) -> None:
    """Import reokit, CLI included, from the checkout's ``src``."""
    sys.path.insert(0, str(root / "src"))
    import reokit
    import reokit.cli  # noqa: F401

    where = Path(reokit.__file__).resolve()
    if root / "src" not in where.parents:
        raise RuntimeError(f"imported reokit from {where}, not from the checkout")


def scenario_digest(text: str, seed: int) -> str:
    """sha256 of the scenario report with the seed field zeroed.

    The canned environment offers one choice per round, so the report is
    the same for every simulation seed apart from that field.
    """
    doc = json.loads(text)
    if doc["trace"]["seed"] != seed:
        raise ValueError(f"report carries seed {doc['trace']['seed']}, not {seed}")
    doc["trace"]["seed"] = 0
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def trace_laws(trace) -> list[tuple[str, bool, str]]:
    """The rescue circuit's laws, as ``scripts/seed_sweep.py`` states them.

    Dispatches go round-robin case1, case2, case3, ...; a police or fire
    alarm fires only while a notification from an earlier emergency alarm
    is pending for it.
    """
    dispatched: list[str] = []
    ea = police = fire = 0
    gated = True
    for f in trace.firings():
        dispatched.extend(n for n in sorted(f.sync) if n in CASES)
        if "police_alarm" in f.sync:
            gated = gated and ea > police
            police += 1
        if "fire_alarm" in f.sync:
            gated = gated and ea > fire
            fire += 1
        if "emergency_alarm" in f.sync:
            ea += 1
    cycle = list(CASES) * (len(dispatched) // 3 + 1)
    return [
        ("round-robin dispatch", dispatched == cycle[: len(dispatched)], f"{len(dispatched)} dispatches"),
        ("alarm gating", gated, f"{ea} emergency, {police} police, {fire} fire alarms"),
    ]


def section(tracer, name: str):
    return tracer.section(name) if tracer is not None else nullcontext()


def job_scenario(spec, tracer, _state):
    """The shipped rescue scenario through the CLI, circuit text to JSON verdict."""
    from reokit import cli

    out = spec["out"]
    with section(tracer, "job"):
        t = time.perf_counter()
        rc = cli.main(["scenario", "--seed", str(spec["seed"]), "--json", out, "--quiet"])
        job_s = time.perf_counter() - t
    digest = scenario_digest(Path(out).read_text(), spec["seed"])
    checks = [
        ("scenario exit code", rc == spec["ref"]["exit_code"], f"exit {rc}"),
        ("scenario digest", digest == spec["ref"]["digest"], digest[:16]),
    ]
    return job_s, checks, {}


def job_compile(spec, tracer, _state):
    """Compile and analyze one generated circuit (dispatch-k)."""
    from reokit import analysis, automata, dsl

    text = Path(spec["circuit"]).read_text()
    with section(tracer, "job"):
        t = time.perf_counter()
        auto = automata.compile_circuit(dsl.parse_circuit(text))
        report = analysis.analyze(auto)
        job_s = time.perf_counter() - t
    got = [auto.n_states, len(auto.transitions), report.reachable_count, len(report.deadlock_states)]
    checks = [("dispatch-k counts", got == spec["ref"], f"states/transitions/reachable/deadlocks {got}")]
    return job_s, checks, {}


def job_rescue_checks(spec, _tracer, _state):
    """Counts and analysis of the shipped rescue automaton; dispatch-3 bisimilar to it."""
    from reokit import analysis, automata, dsl, rescue

    t = time.perf_counter()
    auto = automata.compile_circuit(rescue.builtin_circuit())
    report = analysis.analyze(auto)
    d3 = automata.compile_circuit(dsl.parse_circuit(Path(spec["circuit3"]).read_text()))
    same = analysis.bisimilar(d3, auto)
    job_s = time.perf_counter() - t
    sizes = (auto.n_states, len(auto.transitions))
    checks = [
        ("rescue states/transitions", sizes == (96, 900), f"{sizes[0]}/{sizes[1]}"),
        (
            "rescue reachable, no deadlocks",
            report.reachable_count == 96 and not report.deadlock_states,
            f"{report.reachable_count} reachable, {len(report.deadlock_states)} deadlocks",
        ),
        ("dispatch-3 bisimilar to rescue", same, str(same)),
    ]
    return job_s, checks, {}


def setup_busy():
    from reokit import automata, rescue

    return automata.compile_circuit(rescue.builtin_circuit())


def setup_monitor():
    from reokit import rescue

    return rescue.builtin_rules()


def _busy_pipeline(text, seed, auto):
    from reokit import dsl, rescue

    env = dsl.parse_env(text, rescue.builtin_circuit())
    return rescue.run_rescue(seed=seed, rounds=len(env), env=env, automaton=auto)


def job_busy(spec, tracer, auto):
    """Environment text to verdict: parse, simulate, map, batch ingest, one verdict."""
    text = Path(spec["env"]).read_text()
    with section(tracer, "job"):
        t = time.perf_counter()
        report = _busy_pipeline(text, spec["seed"], auto)
        job_s = time.perf_counter() - t
    extra = {"rounds": len(report.trace.steps)}
    if spec.get("short_env"):
        short_text = Path(spec["short_env"]).read_text()
        with section(tracer, "short"):
            _busy_pipeline(short_text, spec["seed"], auto)
    alarms = ("emergency_alarm", "police_alarm", "fire_alarm")
    own = sum(1 for f in report.trace.firings() for p in f.sync if p in alarms)
    mapped = sum(1 for e in report.events if e.origin == "trace-mapped")
    checks = trace_laws(report.trace) + [
        ("rounds simulated", extra["rounds"] == spec["rounds"], f"{extra['rounds']} rounds"),
        ("mapped events = alarm firings", mapped == own, f"{mapped} events, {own} alarm firings"),
    ]
    return job_s, checks, extra


def job_monitor(spec, tracer, rules):
    """Streaming compliance: ingest each event, then ask for the verdict."""
    from reokit import dsl, semlog

    text = Path(spec["events"]).read_text()
    latencies = []
    clock = time.perf_counter
    with section(tracer, "job"):
        t = clock()
        engine = semlog.ComplianceEngine(rules)
        for term in dsl.parse_events(text).terms():
            t0 = clock()
            engine.ingest(term, origin=semlog.ORIGIN_SCRIPT)
            verdict = engine.verdict()
            latencies.append(clock() - t0)
        job_s = clock() - t
    batch = semlog.ComplianceEngine(rules)
    for term in dsl.parse_events(text).terms():
        batch.ingest(term, origin=semlog.ORIGIN_SCRIPT)
    same = batch.verdict().to_json() == verdict.to_json()
    checks = [
        ("events judged", len(latencies) == spec["n_events"], f"{len(latencies)} events"),
        ("online verdict = batch verdict", same, str(same)),
    ]
    return job_s, checks, {"latencies": latencies}


JOBS = {
    "scenario": (None, job_scenario),
    "compile": (None, job_compile),
    "rescue-checks": (None, job_rescue_checks),
    "busy": (setup_busy, job_busy),
    "monitor": (setup_monitor, job_monitor),
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    setup, job = JOBS[spec["job"]]
    t = time.perf_counter()
    import_reokit(Path(spec["root"]))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with section(tracer, "setup"):
        state = setup() if setup is not None else None
    setup_s = time.perf_counter() - t
    job_s, checks, extra = job(spec, tracer, state)
    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        **extra,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
