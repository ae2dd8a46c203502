#!/usr/bin/env python3
"""reokit benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rescue-compile --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see perfbench/README.md for why each was chosen):
  rescue-compile  the shipped rescue circuit through ``reokit scenario``;
                  compile dominates. dispatch-2 is compiled for the
                  compile size ratio.
  busy-sim        a random 12,000-round environment from text to verdict
                  on the precompiled rescue automaton; simulation dominates.
  online-monitor  1,000 compliance events, each ingested and followed by a
                  verdict; semlog saturation dominates.

Every workload is a closed loop with one caller: one job at a time, each
in a fresh interpreter (``worker.py``), started until ``--seconds`` have
passed. With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` each repetition is a traced job plus an
untraced one, and the last line holds the per-layer metrics. Output
checks run in both modes and feed ``attempted``/``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUSY_ROUNDS = 12_000
SHORT_ROUNDS = BUSY_ROUNDS // 10
N_EVENTS = 1_000
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_JOBS = 3  # set-up is timed once per job; medians need at least three


class Run:
    """One benchmark run: input files, the workers it starts, its checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}")

    def worker(self, job: str, trace: bool = False, **spec) -> dict | None:
        """Run one job in a fresh interpreter and wait for it to end."""
        spec.update(job=job, trace=trace, root=str(ROOT), seed=self.seed)
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.check(f"{job} job", False, f"timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            self.check(f"{job} job", False, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        for name, ok, detail in result["checks"]:
            self.check(name, ok, detail)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


# -- workloads: inputs and jobs ----------------------------------------------


def prepare(run: Run, trace: bool) -> dict:
    """Write the workload's generated inputs; return the job spec."""
    if run.workload == "rescue-compile":
        run.write("dispatch-2.circuit", gen.dispatch_circuit(2))
        run.write("dispatch-3.circuit", gen.dispatch_circuit(3))
        return {"job": "scenario", "out": str(run.work / "scenario.json"), "ref": run.reference["scenario"]}
    if run.workload == "busy-sim":
        spec = {
            "job": "busy",
            "env": run.write("busy.env", gen.busy_env(run.seed, BUSY_ROUNDS)),
            "rounds": BUSY_ROUNDS,
        }
        if trace:
            spec["short_env"] = run.write("short.env", gen.busy_env(run.seed, SHORT_ROUNDS))
        return spec
    return {
        "job": "monitor",
        "events": run.write("stream.events", gen.event_stream(run.seed, N_EVENTS)),
        "n_events": N_EVENTS,
    }


def finish_checks(run: Run) -> None:
    """Checks made once per run, outside the timed jobs."""
    if run.workload == "rescue-compile":
        run.worker("rescue-checks", circuit3=str(run.work / "dispatch-3.circuit"))


def dispatch2(run: Run, trace: bool) -> dict | None:
    return run.worker(
        "compile", trace, circuit=str(run.work / "dispatch-2.circuit"), ref=run.reference["dispatch-2"]
    )


# -- metrics -------------------------------------------------------------------


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(run: Run, spec: dict, seconds: float) -> tuple[dict, list[str]]:
    jobs = []
    while len(jobs) < MIN_JOBS or run.elapsed() < seconds:
        result = run.worker(**spec)
        if result is None:
            break
        jobs.append(result)
    d2 = dispatch2(run, False) if run.workload == "rescue-compile" else None
    if not jobs:
        return {}, []
    job_s = statistics.median(j["job_s"] for j in jobs)
    metrics = {
        "setup_s": (statistics.median(j["setup_s"] for j in jobs), "s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (max(j["rss_mb"] for j in jobs), "MB"),
    }
    notes = [
        f"jobs: {len(jobs)} (one fresh interpreter each); job_s samples: "
        + " ".join(f"{j['job_s']:.4f}" for j in jobs)
    ]
    if run.workload == "rescue-compile":
        notes.append(f"scenario_s: {job_s:.4f} s (median of {len(jobs)})")
        if d2 is not None:
            notes.append(f"dispatch-2 compile + analyze: {d2['job_s']:.4f} s (one job)")
    elif run.workload == "busy-sim":
        notes.append(f"rounds_per_s: {BUSY_ROUNDS / job_s:.1f} 1/s ({BUSY_ROUNDS} rounds per job)")
    else:
        lat = [x for j in jobs for x in j["latencies"]]
        p99 = percentile(lat, 99)
        notes += [
            f"verdict_p50_ms: {statistics.median(lat) * 1e3:.3f} ms",
            f"verdict_p99_ms: {p99 * 1e3:.3f} ms ({len(lat)} samples, "
            f"{sum(x > p99 for x in lat)} beyond p99)",
            f"events_per_s: {N_EVENTS / job_s:.1f} 1/s",
        ]
    return metrics, notes


def _section(result: dict, name: str) -> dict:
    return result["trace"].get(name, {"spans": {}, "counts": {}})


def _total(sec: dict, span: str) -> float:
    return sec["spans"].get(span, {}).get("total_s", 0.0)


def _calls(sec: dict, span: str) -> int:
    return sec["spans"].get(span, {}).get("calls", 0)


def layer_metrics(workload: str, traced: dict, plain: dict, d2: dict | None) -> dict:
    """Per-layer metrics of one traced job; 0 where the workload skips a layer."""
    job = _section(traced, "job")
    # the rescue compile is set-up on busy-sim and part of the job elsewhere
    comp = _section(traced, "setup" if workload == "busy-sim" else "job")
    cc = comp["counts"]
    jc = job["counts"]
    m: dict[str, tuple[float, str]] = {}
    m["dsl.parse_circuit_ms"] = (_total(job, "dsl.parse_circuit") * 1e3, "ms")
    m["dsl.parse_env_s"] = (_total(job, "dsl.parse_env"), "s")
    m["dsl.parse_events_ms"] = (_total(job, "dsl.parse_events") * 1e3, "ms")
    rescue_s = cc.get("compile_s:rescue", 0.0)
    d2_s = _section(d2, "job")["counts"].get("compile_s:dispatch_2", 0.0) if d2 else 0.0
    m["automata.compile_s.rescue"] = (rescue_s, "s")
    m["automata.compile_s.dispatch-2"] = (d2_s, "s")
    m["automata.compile_ratio"] = (rescue_s / d2_s if d2_s else 0.0, "ratio")
    for op in ("join", "hide"):
        m[f"automata.{op}_s"] = (_total(comp, f"automata.{op}"), "s")
        m[f"automata.{op}_calls"] = (_calls(comp, f"automata.{op}"), "count")
    for key in ("project_calls", "project_distinct", "peak_states", "peak_transitions", "final_states", "final_transitions"):
        m[f"automata.{key}"] = (cc.get(key, 0), "count")
    m["analysis.analyze_ms"] = (_total(job, "analysis.analyze") * 1e3, "ms")
    m["analysis.reachable_states"] = (jc.get("reachable_states", 0), "count")
    enabled_calls = _calls(job, "sim.enabled")
    m["sim.simulate_s"] = (_total(job, "sim.simulate"), "s")
    m["sim.enabled_s"] = (_total(job, "sim.enabled"), "s")
    m["sim.enabled_calls"] = (enabled_calls, "count")
    m["sim.enabled_mean"] = (jc.get("enabled_options", 0) / enabled_calls if enabled_calls else 0.0, "options")
    m["sim.env_round_s"] = (_total(job, "sim.env_round"), "s")
    m["sim.firings"] = (jc.get("firings", 0), "count")
    m["sim.stalls"] = (jc.get("stalls", 0), "count")
    short = _section(traced, "short")
    if short["counts"].get("rounds"):
        per_round_long = _total(job, "sim.simulate") / jc["rounds"]
        per_round_short = _total(short, "sim.simulate") / short["counts"]["rounds"]
        m["sim.scale_ratio"] = (per_round_long / per_round_short, "ratio")
    else:
        m["sim.scale_ratio"] = (0.0, "ratio")
    m["rescue.map_trace_s"] = (_total(job, "rescue.map_trace"), "s")
    m["rescue.events_mapped"] = (jc.get("events_mapped", 0), "count")
    m["rescue.run_rescue_ms"] = (_total(job, "rescue.run_rescue") * 1e3, "ms")
    for op in ("ingest", "saturate"):
        m[f"semlog.{op}_s"] = (_total(job, f"semlog.{op}"), "s")
        m[f"semlog.{op}_calls"] = (_calls(job, f"semlog.{op}"), "count")
    m["semlog.passes"] = (jc.get("passes", 0), "count")
    m["semlog.verdict_s"] = (_total(job, "semlog.verdict"), "s")
    m["semlog.facts"] = (jc.get("facts", 0), "count")
    lat = traced.get("latencies")
    if lat:
        tenth = len(lat) // 10
        m["semlog.late_early_ratio"] = (statistics.mean(lat[-tenth:]) / statistics.mean(lat[:tenth]), "ratio")
    else:
        m["semlog.late_early_ratio"] = (0.0, "ratio")
    m["cli.emit_ms"] = (_total(job, "cli.emit") * 1e3, "ms")
    m["trace.overhead"] = (traced["job_s"] - plain["job_s"], "s")
    return m


def span_table(result: dict) -> list[str]:
    rows = []
    for sec, data in sorted(result["trace"].items()):
        for name, row in sorted(data["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
            rows.append(
                f"  [{sec or '-'}] {name}: {row['calls']} calls, "
                f"{row['total_s']:.4f} s total, {row['self_s']:.4f} s self"
            )
    return rows


def per_layer(run: Run, spec: dict, seconds: float) -> tuple[dict, list[str]]:
    sets = []
    first_traced = None
    while not sets or run.elapsed() < seconds:
        traced = run.worker(**spec, trace=True)
        d2 = dispatch2(run, True) if run.workload == "rescue-compile" else None
        plain = run.worker(**spec)
        if traced is None or plain is None:
            break
        first_traced = first_traced or traced
        sets.append(layer_metrics(run.workload, traced, plain, d2))
    if not sets:
        return {}, []
    counts = [name for name, (_, unit) in sets[0].items() if unit == "count"]
    drift = [c for c in counts if any(s[c][0] != sets[0][c][0] for s in sets)]
    run.check("count metrics repeat across traced jobs", not drift, ", ".join(drift) or "all equal")
    metrics = {
        name: (value if unit == "count" else statistics.median(s[name][0] for s in sets), unit)
        for name, (value, unit) in sets[0].items()
    }
    notes = [f"traced jobs: {len(sets)}; spans of the first:"] + span_table(first_traced)
    return metrics, notes


# -- entry point ----------------------------------------------------------------


def machine_facts() -> dict:
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        run = Run(workload, seed, work)
        spec = prepare(run, trace)
        measure = per_layer if trace else end_to_end
        metrics, notes = measure(run, spec, seconds)
        finish_checks(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(f"== {workload} seed={seed} trace={int(trace)} machine={json.dumps(machine_facts())}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if run.attempted:
        print(f"failed_share: {run.failed / run.attempted:.4g} ({run.failed} of {run.attempted} checks)")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    if not metrics:
        print(f"{workload}: no job completed", file=sys.stderr)
        return None
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


WORKLOADS = ("rescue-compile", "busy-sim", "online-monitor")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "reokit" / "__init__.py").is_file():
        print(f"no reokit sources under {ROOT / 'src'}; run from a reokit checkout", file=sys.stderr)
        return 2
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        results[workload] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
