"""Spans around calls into reokit's public functions, recorded from outside.

``Tracer.install`` replaces functions by module attribute (and methods by
class attribute) with wrappers that record a span: name, start, end and
the span that was open when the call began. Where a module re-imported a
function by name (``reokit.rescue.compile_circuit``), that binding is
wrapped too, because calls through it never reach the home module's
attribute. The program itself is not changed, and nothing is wrapped
unless ``install`` is called, so untraced runs execute the plain code.

Spans stay in memory, in flat arrays, until ``summary`` folds them into
per-name calls, total time and self time (total minus the time covered by
child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name). Every name reokit calls through is
# listed, so a call is traced whichever binding it goes through.
FUNCTIONS = [
    ("reokit.dsl", "parse_circuit", "dsl.parse_circuit"),
    ("reokit.dsl", "parse_env", "dsl.parse_env"),
    ("reokit.dsl", "parse_events", "dsl.parse_events"),
    ("reokit.dsl", "parse_rulebase", "dsl.parse_rulebase"),
    ("reokit.dsl", "parse_map", "dsl.parse_map"),
    ("reokit.automata", "compile_circuit", "automata.compile_circuit"),
    ("reokit.rescue", "compile_circuit", "automata.compile_circuit"),
    ("reokit.cli", "compile_circuit", "automata.compile_circuit"),
    ("reokit.automata", "join", "automata.join"),
    ("reokit.automata", "hide", "automata.hide"),
    ("reokit.analysis", "analyze", "analysis.analyze"),
    ("reokit.rescue", "analyze", "analysis.analyze"),
    ("reokit.cli", "analyze", "analysis.analyze"),
    ("reokit.analysis", "bisimilar", "analysis.bisimilar"),
    ("reokit.sim", "simulate", "sim.simulate"),
    ("reokit.rescue", "simulate", "sim.simulate"),
    ("reokit.cli", "simulate", "sim.simulate"),
    ("reokit.sim", "enabled", "sim.enabled"),
    ("reokit.cli", "enabled", "sim.enabled"),
    ("reokit.rescue", "run_rescue", "rescue.run_rescue"),
    ("reokit.rescue", "map_trace", "rescue.map_trace"),
    ("reokit.cli", "main", "cli.main"),
    ("reokit.cli", "_emit", "cli.emit"),
]

METHODS = [
    ("reokit.sim", "EnvScript", "round", "sim.env_round"),
    ("reokit.semlog", "ComplianceEngine", "ingest", "semlog.ingest"),
    ("reokit.semlog", "ComplianceEngine", "saturate", "semlog.saturate"),
    ("reokit.semlog", "ComplianceEngine", "verdict", "semlog.verdict"),
    ("reokit.rescue", "ScenarioReport", "to_json", "cli.emit"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open = [-1]
        self._sections = [""]
        # counts observed at the same boundaries as the spans, per section
        self.counts: dict[tuple[str, str], float] = {}
        self.project_calls: dict[str, int] = {}
        self.project_keys: dict[str, set] = {}
        self.missing: list[str] = []

    def _begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def section(self, name: str):
        """A span opened by the benchmark itself, grouping the calls inside."""
        i = self._begin("section:" + name)
        self._sections.append(name)
        try:
            yield
        finally:
            self._sections.pop()
            self._finish(i)

    def add(self, key: str, n: float = 1) -> None:
        k = (self._sections[-1], key)
        self.counts[k] = self.counts.get(k, 0) + n

    def put(self, key: str, value: float) -> None:
        self.counts[(self._sections[-1], key)] = value

    def peak(self, key: str, value: float) -> None:
        k = (self._sections[-1], key)
        self.counts[k] = max(self.counts.get(k, 0), value)

    def _wrap(self, name: str, fn, observe=None):
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if observe is not None:
                observe(i, args, result)
            return result

        return wrapper

    # -- observers: counts read from arguments and results ---------------

    def _observe_product(self, _i, _args, result) -> None:
        self.peak("peak_states", result.n_states)
        self.peak("peak_transitions", len(result.transitions))

    def _observe_compile(self, i, args, result) -> None:
        self.add(f"compile_s:{args[0].name}", self.end[i] - self.start[i])
        self.put("final_states", result.n_states)
        self.put("final_transitions", len(result.transitions))

    def _observe_enabled(self, _i, _args, result) -> None:
        self.add("enabled_options", len(result))

    def _observe_simulate(self, _i, _args, result) -> None:
        fired = len(result.firings())
        self.add("rounds", len(result.steps))
        self.add("firings", fired)
        self.add("stalls", len(result.steps) - fired)

    def _observe_saturate(self, _i, _args, result) -> None:
        self.add("passes", result.passes)

    def _observe_analyze(self, _i, _args, result) -> None:
        self.put("reachable_states", result.reachable_count)

    def _observe_map(self, _i, _args, result) -> None:
        self.add("events_mapped", len(result))

    def _observe_verdict(self, _i, _args, result) -> None:
        self.put("facts", result.facts_total)

    def install(self) -> None:
        observers = {
            "automata.join": self._observe_product,
            "automata.hide": self._observe_product,
            "automata.compile_circuit": self._observe_compile,
            "sim.simulate": self._observe_simulate,
            "sim.enabled": self._observe_enabled,
            "semlog.saturate": self._observe_saturate,
            "semlog.verdict": self._observe_verdict,
            "analysis.analyze": self._observe_analyze,
            "rescue.map_trace": self._observe_map,
        }
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, observers.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap(name, fn, observers.get(name)))
        self._count_project()
        if self.missing:
            print("tracer: not found, not traced: " + ", ".join(self.missing), file=sys.stderr)

    def _count_project(self) -> None:
        """Count ``automata.project`` calls and distinct arguments, without spans.

        A rescue compile makes about 300k projections; a span for each
        would double the compile's traced time.
        """
        from reokit import automata

        project = getattr(automata, "project", None)
        if project is None:
            self.missing.append("reokit.automata.project")
            return
        calls, keys, sections = self.project_calls, self.project_keys, self._sections

        @functools.wraps(project)
        def wrapper(*args):
            section = sections[-1]
            calls[section] = calls.get(section, 0) + 1
            keys.setdefault(section, set()).add(args)
            return project(*args)

        automata.project = wrapper

    def summary(self) -> dict[str, dict]:
        """Per section: span rows (calls, total and self seconds) and counts.

        A span belongs to the innermost section that encloses it; spans
        outside every section belong to section "".
        """
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        section = [""] * n
        out: dict[str, dict] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                section[i] = section[p]
            label = self.names[self.name[i]]
            if label.startswith("section:"):
                section[i] = label[len("section:"):]
        for i in range(n):
            label = self.names[self.name[i]]
            if label.startswith("section:"):
                continue
            spans = out.setdefault(section[i], {"spans": {}, "counts": {}})["spans"]
            row = spans.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for (sec, key), value in self.counts.items():
            out.setdefault(sec, {"spans": {}, "counts": {}})["counts"][key] = value
        for sec, calls in self.project_calls.items():
            counts = out.setdefault(sec, {"spans": {}, "counts": {}})["counts"]
            counts["project_calls"] = calls
            counts["project_distinct"] = len(self.project_keys[sec])
        return out
