"""reokit: Reo-style coordination circuits with a compliance checker.

The pipeline: a circuit (channels meeting at nodes) compiles to a
constraint automaton, which simulates against scripted environments;
boundary firings map to compliance events that a rule engine judges.
"""

from .analysis import AnalysisReport, analyze, bisimilar, reachable
from .automata import (
    ConstraintAutomaton,
    ca_of_channel,
    ca_of_node,
    compile_circuit,
    hide,
    join,
    sat_assignments,
)
from .circuit import Channel, Circuit, Node, PortId, validate_circuit
from .dsl import (
    EventMap,
    EventScript,
    ParseError,
    ParseFailure,
    parse_circuit,
    parse_env,
    parse_events,
    parse_map,
    parse_rulebase,
    parse_term,
    print_circuit,
)
from .rescue import ScenarioReport, builtin_circuit, builtin_rules, map_trace, run_rescue
from .semlog import ComplianceEngine, RuleBase, Verdict
from .sim import EnvScript, Firing, Stall, Trace, enabled, simulate, step

__version__ = "0.1.0"
