"""Command-line front end.

Exit codes are part of the contract: 0 means success with no findings,
1 means the tool ran fine but found something (deadlocks, dead ports,
failures, warnings, order violations, or derivations dropped at a limit),
2 means usage, parse or I/O errors and saturation that found no
fixpoint. Structured output is JSON with sorted keys; human-readable
notes go to stderr so scripts can consume stdout directly.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl, rescue
from .analysis import analyze
from .automata import automaton_to_dot, automaton_to_json, compile_circuit, state_name
from .circuit import export_dot, validate_circuit
from .semlog import ComplianceEngine, NotConvergedError, ORIGIN_SCRIPT, ORIGIN_TRACE
from .sim import Firing, enabled, replay, simulate, step, trace_from_json

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class ToolError(Exception):
    """Tool-level failure: reported on stderr, exit status 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ToolError(f"cannot read {path}: {exc.strerror}")


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ToolError(f"cannot write {out_path}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def cmd_parse(args) -> int:
    c = dsl.parse_circuit(_read(args.path))
    report = validate_circuit(c)
    print(report.render())
    if args.dot:
        sys.stdout.write(export_dot(c))
    return EXIT_OK if report.ok else EXIT_USAGE


def cmd_compile(args) -> int:
    c = dsl.parse_circuit(_read(args.path))
    auto = compile_circuit(c)
    if args.stats:
        # when stdout carries the automaton, the counts go beside it on stderr
        out = sys.stderr if args.json or args.dot else sys.stdout
        print(f"states: {auto.n_states}", file=out)
        print(f"transitions: {len(auto.transitions)}", file=out)
        print(f"names: {', '.join(sorted(auto.names))}", file=out)
    if args.dot:
        sys.stdout.write(automaton_to_dot(auto))
    elif args.json or not args.stats:
        sys.stdout.write(automaton_to_json(auto))
    return EXIT_OK


def cmd_simulate(args) -> int:
    c = dsl.parse_circuit(_read(args.path))
    env = dsl.parse_env(_read(args.env), c)
    auto = compile_circuit(c)
    trace = simulate(auto, env, args.seed, args.rounds, circuit_name=c.name)
    _emit(trace.to_json(), args.trace)
    fired = len(trace.firings())
    _note(args, f"{len(trace.steps)} rounds, {fired} firings")
    return EXIT_OK


def cmd_check(args) -> int:
    c = dsl.parse_circuit(_read(args.path))
    auto = compile_circuit(c)
    report = analyze(auto)
    if args.json:
        sys.stdout.write(report.to_json())
        _note(args, report.render())
    else:
        print(report.render())
    return EXIT_FINDINGS if report.deadlock_states or report.dead_ports else EXIT_OK


def cmd_comply(args) -> int:
    rules = dsl.parse_rulebase(_read(args.rules))
    if bool(args.events) == bool(args.trace):
        raise ToolError("exactly one of --events or --trace is required")
    if args.trace and not (args.map and args.circuit):
        raise ToolError("--trace requires --map and --circuit")
    if not args.trace and (args.map or args.circuit):
        raise ToolError("--map and --circuit require --trace")
    engine = ComplianceEngine(rules, max_depth=args.max_depth)
    if args.events:
        script = dsl.parse_events(_read(args.events))
        for term in script.terms():
            engine.ingest(term, origin=ORIGIN_SCRIPT)
    else:
        circuit = dsl.parse_circuit(_read(args.circuit))
        trace = trace_from_json(_read(args.trace), circuit)
        replay(compile_circuit(circuit), trace)
        mapping = dsl.parse_map(_read(args.map), circuit)
        for term in rescue.map_trace(trace, mapping):
            engine.ingest(term, origin=ORIGIN_TRACE)
    verdict = engine.verdict()
    sys.stdout.write(verdict.to_json())
    if args.explain:
        for term in verdict.failures + verdict.warnings:
            _note(args, engine.explain(term))
    return EXIT_OK if verdict.clean else EXIT_FINDINGS


def cmd_scenario(args) -> int:
    env = dsl.parse_env(_read(args.env), rescue.builtin_circuit()) if args.env else None
    extra = dsl.parse_events(_read(args.events)) if args.events else None
    report = rescue.run_rescue(
        seed=args.seed,
        rounds=args.rounds,
        env=env,
        extra_events=extra,
        max_depth=args.max_depth,
    )
    _emit(report.to_json(), args.json_out)
    _note(
        args,
        f"{len(report.trace.firings())} firings, "
        f"{len(report.events)} events, "
        f"{'clean' if report.verdict.clean else 'findings'}",
    )
    return EXIT_OK if report.verdict.clean else EXIT_FINDINGS


def cmd_repl(args) -> int:
    c = dsl.parse_circuit(_read(args.path))
    auto = compile_circuit(c)
    state = auto.initial
    round_no = 1
    offers: dict[str, str] = {}
    ready: set[str] = set()
    print(f"circuit {c.name}: {auto.n_states} states; commands: "
          "offer p=tok | ready p[,p]* | enabled | state | fire | quit")
    # an offer or ready line is read as the clauses of one env-script round,
    # under policy closed, so a line with no ready clause readies nothing
    policy, prefix = "policy closed\n", "round 1: "
    for line_no, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            cmd = line.split(None, 1)[0]
            if cmd == "quit":
                break
            elif cmd in ("offer", "ready"):
                parsed = dsl.parse_env(policy + prefix + raw.rstrip("\n"), c).rounds[1]
                offers.update(parsed.offers)
                ready.update(parsed.ready)
            elif cmd == "state":
                print(f"state {state_name(state)} (round {round_no})")
            elif cmd == "enabled":
                options = enabled(auto, state, offers, frozenset(ready))
                if not options:
                    print("nothing enabled")
                for t, assignment in options:
                    data = ",".join(f"{k}={v}" for k, v in assignment)
                    print(f"{{{','.join(sorted(t.sync))}}} {data}")
            elif cmd == "fire":
                outcome = step(auto, state, round_no, offers, frozenset(ready), args.seed)
                if isinstance(outcome, Firing):
                    data = ",".join(f"{k}={v}" for k, v in outcome.assignment)
                    print(f"fired {{{','.join(sorted(outcome.sync))}}} {data}")
                    state = outcome.state_after
                else:
                    print("stall")
                round_no += 1
                offers.clear()
                ready.clear()
            else:
                print(f"unknown command {cmd!r}")
        except dsl.ParseFailure as exc:  # at the column of the line typed
            err = exc.error
            column = err.span.column - len(prefix)
            print(f"error: {line_no}:{column}: {err.code}: {err.message}")
        except Exception as exc:  # keep the session alive
            print(f"error: {exc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the flags its cmd_* reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="simulation seed")
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--max-depth", type=int, default=8, dest="max_depth",
                       help="maximum stored fact depth")
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress notes on stderr")

    parser = argparse.ArgumentParser(
        prog="reokit",
        description="coordination circuits: parse, compile, analyze, simulate, comply",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate a circuit")
    p.add_argument("path")
    p.add_argument("--dot", action="store_true", help="also print the circuit as DOT")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("compile", help="compile a circuit to an automaton")
    p.add_argument("path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit automaton JSON (default)")
    fmt.add_argument("--dot", action="store_true", help="emit automaton DOT")
    p.add_argument("--stats", action="store_true",
                   help="print state/transition counts (to stderr with --json or --dot)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("simulate", parents=[seed, quiet],
                       help="run a circuit against an env script")
    p.add_argument("path")
    p.add_argument("--env", required=True, help="environment script")
    p.add_argument("--rounds", type=int, help="round cap (default: the whole script)")
    p.add_argument("--trace", help="write trace JSON here instead of stdout")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("check", parents=[quiet], help="reachability, deadlock and dead-port analysis")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("comply", parents=[depth, quiet],
                       help="judge an event stream against rules")
    p.add_argument("--rules", required=True)
    p.add_argument("--events", help="event script (one ground term per line)")
    p.add_argument("--trace", help="trace JSON (needs --map and --circuit)")
    p.add_argument("--map", help="event map for --trace")
    p.add_argument("--circuit",
                   help="the trace's circuit: the trace must be a run of it, "
                   "and the --map is checked against it")
    p.add_argument("--explain", action="store_true",
                   help="print derivation trees for findings on stderr")
    p.set_defaults(fn=cmd_comply)

    p = sub.add_parser("scenario", parents=[seed, depth, quiet],
                       help="run the built-in rescue scenario")
    p.add_argument("--env", help="override the canned environment")
    p.add_argument("--events", help="extra scripted compliance events")
    p.add_argument("--rounds", type=int, help="round cap (default: the whole script)")
    p.add_argument("--json", dest="json_out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("repl", parents=[seed], help="interactive stepper for a circuit")
    p.add_argument("path")
    p.set_defaults(fn=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except dsl.ParseFailure as exc:
        print(exc.error.render(), file=sys.stderr)
        return EXIT_USAGE
    except (ToolError, NotConvergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
