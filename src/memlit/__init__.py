"""memlit: an operational weak-memory model with exhaustive litmus-test
exploration, functional coverage and model-based test generation."""

from .kernel import EventDescriptor, GuardFailed, MachineState
from .litmus import LitmusTest, OutcomeMode, ParseError, ValidationError, format_test, parse
from .model import Instruction, InstrKind, InvalidConfig, SystemConfig
from .explorer import (
    ExplorationResult,
    ReplayError,
    StateLimitExceeded,
    Verdict,
    check_outcome,
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
    "check_outcome",
    "explore",
    "explore_test",
    "format_test",
    "parse",
    "replay",
]
