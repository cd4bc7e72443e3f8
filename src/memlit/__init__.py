"""memlit: an operational weak-memory model with exhaustive litmus-test
exploration, functional coverage and model-based test generation."""

from .kernel import (
    EventDescriptor,
    GuardFailed,
    MachineState,
    ahead_of,
    check_state_invariants,
    enabled_events,
    fire,
    init_state,
    load_return_value,
)
from .litmus import LitmusTest, OutcomeMode, ParseError, ValidationError, format_test, parse
from .model import Instruction, InstrKind, InvalidConfig, SystemConfig
from .explorer import (
    ExplorationResult,
    ReplayError,
    StateLimitExceeded,
    Verdict,
    check_outcome,
    check_trace_orderings,
    explore,
    explore_test,
    replay,
)

__version__ = "0.1.0"

__all__ = [
    "EventDescriptor",
    "ExplorationResult",
    "GuardFailed",
    "Instruction",
    "InstrKind",
    "InvalidConfig",
    "LitmusTest",
    "MachineState",
    "OutcomeMode",
    "ParseError",
    "ReplayError",
    "StateLimitExceeded",
    "SystemConfig",
    "ValidationError",
    "Verdict",
    "ahead_of",
    "check_outcome",
    "check_state_invariants",
    "check_trace_orderings",
    "enabled_events",
    "explore",
    "explore_test",
    "fire",
    "format_test",
    "init_state",
    "load_return_value",
    "parse",
    "replay",
]
