"""Exhaustive interleaving exploration, outcome verdicts and replay.

``_explore_full`` is the package's one breadth-first search: ``explore``,
``check_outcome`` and ``testgen.find_trace`` each run it once.  It dedupes
packed states, so every trace is shortest, and expands each layer with the
configuration's generated ``kernel.search_layer``.  ``check_outcome``
evaluates a litmus test's outcome invariant at every reachable state; it
triggers once every load has been observed.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from . import kernel
from .kernel import (
    EventDescriptor,
    InternalEvent,
    MachineState,
    register_file,
    registers,
    successors,
    to_descriptor,
    unpack,
)
from .litmus import LitmusTest, OutcomeMode
from .model import CompiledConfig, SystemConfig, compile_config

# At about 85 B of search memory per state (the parent map; ``tracemalloc``
# on the benchmark's 131,752-state input), 10M states take about 0.85 GB.
DEFAULT_MAX_STATES = 10_000_000

Trace = tuple[EventDescriptor, ...]

RegisterMap = dict[str, dict[str, int]]


class StateLimitExceeded(Exception):
    """More than ``max_states`` states reached while expanding the BFS layer
    at ``depth`` (the root is depth 0), which held ``frontier`` states."""

    def __init__(self, max_states: int, depth: int, frontier: int):
        self.max_states = max_states
        self.depth = depth
        self.frontier = frontier
        super().__init__(
            f"exploration exceeded {max_states} states "
            f"while expanding depth {depth} ({frontier} frontier states)"
        )


class ReplayError(Exception):
    def __init__(self, step: int, cause: kernel.GuardFailed):
        self.step = step
        self.cause = cause
        super().__init__(f"step {step}: {cause}")


def _rf_snapshot(cc: CompiledConfig, rf: tuple[tuple[int, ...], ...]) -> RegisterMap:
    return {
        m: {r: rf[mi][ri] for ri, r in enumerate(cc.reg_names)}
        for mi, m in enumerate(cc.masters)
    }


@dataclass
class ExplorationResult:
    """Aggregate facts about the reachable state space of one config."""

    name: str
    state_count: int
    transition_count: int
    final_register_maps: frozenset[tuple[tuple[int, ...], ...]]
    event_tally: dict[str, int]
    # Register files of the states in which every load is observed.
    trigger_register_maps: frozenset[tuple[tuple[int, ...], ...]]
    compiled: CompiledConfig = field(repr=False)
    # Shortest trace to the state a stop predicate stopped the search at or,
    # without one, to the first trigger state found; None when there is none.
    witness: Trace | None = None

    def _sorted_maps(self, rfs) -> list[RegisterMap]:
        return sorted(
            (_rf_snapshot(self.compiled, rf) for rf in rfs),
            key=lambda d: sorted((m, sorted(v.items())) for m, v in d.items()),
        )

    def final_maps(self) -> list[RegisterMap]:
        return self._sorted_maps(self.final_register_maps)

    def trigger_maps(self) -> list[RegisterMap]:
        return self._sorted_maps(self.trigger_register_maps)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "stateCount": self.state_count,
            "transitions": self.transition_count,
            "finalRegisterMaps": self.final_maps(),
            "eventTally": dict(sorted(self.event_tally.items())),
        }


def explore(
    config: SystemConfig,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    name: str = "",
) -> ExplorationResult:
    """Breadth-first closure of the transition system, collecting the
    registers of every reachable state in which every load is observed,
    and a shortest witness trace to the first such state."""
    return _explore_full(config, max_states=max_states, name=name, stop_predicate=None)[0]


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector, turning it back on only if it was on.

    A search allocates only acyclic tuples, yet a running collector keeps
    rescanning the growing visited set; that took about a third of a
    large search."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class _Space:
    """What a breadth-first search reached: each node with the node that
    first reached it, so paths back to the root are shortest.

    Only parents are stored.  The search keeps the first edge in
    ``expand(parent)`` order that reaches a new node, so ``events_to``
    recovers each step's event as the first edge of the re-expanded parent
    whose successor is the child: the event the search took."""

    parents: dict  # node -> the node that first reached it, root -> None
    expand: Callable  # the search's edges as (event, successor) pairs, for ``events_to``
    finals: list  # nodes without successors, in discovery order
    triggers: dict  # trigger key -> the first node with it, in discovery order
    stop: int | None  # the node the stop predicate stopped the search at

    def events_to(self, node) -> list[InternalEvent]:
        steps: list[InternalEvent] = []
        with _gc_paused():
            while (parent := self.parents[node]) is not None:
                steps.append(next(ev for ev, nxt in self.expand(parent) if nxt == node))
                node = parent
        return steps[::-1]

    def trace_to(self, cc: CompiledConfig, node) -> Trace:
        return tuple(to_descriptor(cc, ev) for ev in self.events_to(node))


def _explore_full(
    config: SystemConfig,
    *,
    max_states: int,
    name: str,
    stop_predicate,
    expand=None,
    cover: tuple[tuple[int, int], ...] = (),
    only: bool = False,
) -> tuple[ExplorationResult, _Space]:
    """The one breadth-first search: exploration, verdicts and trace
    generation all run it.

    Each BFS layer is one call of ``kernel.search_layer(cc, cover, only)``,
    whose nodes carry ``cover``'s bits (``find_trace``'s fired mustCover
    events) above the state.  ``expand(node)``, None meaning ``partial(
    successors, cc)``, lists the same edges for traces.  A trigger node has
    every load observed; its key is its rf field with the bits above the
    state above that.  ``stop_predicate``, if given, sees each new trigger
    key and stops the search at the first for which it returns True; the
    witness then leads there.  Raises ``StateLimitExceeded`` once more than
    ``max_states`` nodes are reached.
    """
    cc = compile_config(config)
    expand = expand or partial(successors, cc)
    layer = kernel.search_layer(cc, cover, only)
    stop_at = stop_predicate or (lambda key: False)

    root = cc.initial_state
    triggers: dict[int, int] = {}
    if root & cc.loads_observed == cc.loads_observed:
        triggers[registers(cc, root)] = root
    stop = root if triggers and stop_at(registers(cc, root)) else None
    parents: dict = {root: None}
    finals: list = []
    tally = [0] * len(kernel.EVENT_NAMES)
    depth = 0
    frontier = [root]
    with _gc_paused():
        while frontier and stop is None:
            frontier, halt = layer(frontier, parents, finals, triggers, stop_at, max_states,
                                   StateLimitExceeded, depth, tally, cc)
            stop = halt or None
            depth += 1
        transitions = sum(tally)
        if stop is not None and parents[stop] is not None:
            # The layer stopped inside the parent's edges; count the rest.
            reached = [nxt for _, nxt in expand(parents[stop])]
            transitions += len(reached) - 1 - reached.index(stop)
    space = _Space(parents, expand, finals, triggers, stop)
    end = stop if stop_predicate is not None else next(iter(triggers.values()), None)

    result = ExplorationResult(
        name=name,
        state_count=len(parents),
        transition_count=transitions,
        final_register_maps=frozenset(register_file(cc, registers(cc, p)) for p in finals),
        event_tally={kernel.EVENT_NAMES[i]: n for i, n in enumerate(tally)},
        trigger_register_maps=frozenset(register_file(cc, key & cc.rf_mask) for key in triggers),
        compiled=cc,
        witness=space.trace_to(cc, end) if end is not None else None,
    )
    return result, space


def explore_test(
    test: LitmusTest,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExplorationResult:
    """Explore a litmus test's configuration under the test's name."""
    return explore(test.config, max_states=max_states, name=test.name)


# ---------------------------------------------------------------------------
# Outcome verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a litmus test.

    ``kind`` is Holds/Violated for forbidden and required tests, and
    Reachable/Unreachable for allowed tests.  ``ok`` is True when the test
    behaves as its mode demands.  ``state_count`` covers the states
    explored: the whole reachable space for Holds/Unreachable, or up to
    the first witness otherwise (counterexamples are shortest).
    """

    kind: str
    ok: bool
    state_count: int
    transition_count: int
    counterexample: Trace | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.kind,
            "stateCount": self.state_count,
            "transitions": self.transition_count,
            "counterexample": (
                [ev.to_json() for ev in self.counterexample]
                if self.counterexample is not None
                else None
            ),
        }


def _compiled_predicate(cc: CompiledConfig, test: LitmusTest):
    """The outcome predicate as a function of an rf field."""
    pred = test.outcome

    def evaluate(rf: int) -> bool:
        return pred.evaluate(_rf_snapshot(cc, register_file(cc, rf)))

    return evaluate


def check_outcome(
    test: LitmusTest,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> Verdict:
    """Evaluate the outcome invariant at every reachable state.

    forbidden: the predicate must be unsatisfiable at trigger states.
    required: the predicate must hold at every trigger state.
    allowed:  report whether some trigger state satisfies it.

    The predicate runs once per distinct register file at trigger states.
    """
    evaluate = _compiled_predicate(compile_config(test.config), test)
    mode = test.outcome_mode
    if mode is OutcomeMode.REQUIRED:
        stop = lambda rf: not evaluate(rf)  # noqa: E731 - search for a refutation
    else:
        stop = evaluate

    result = _explore_full(
        test.config,
        max_states=max_states,
        name=test.name,
        stop_predicate=stop,
    )[0]
    witness = result.witness

    if mode is not OutcomeMode.ALLOWED:
        if witness is None:
            return Verdict("Holds", True, result.state_count, result.transition_count)
        return Verdict("Violated", False, result.state_count, result.transition_count, witness)
    if witness is None:
        return Verdict("Unreachable", False, result.state_count, result.transition_count)
    return Verdict("Reachable", True, result.state_count, result.transition_count, witness)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay(config: SystemConfig, trace: Trace) -> MachineState:
    """The state a trace leads to from the initial state, as a
    ``MachineState`` view.  A step that names no event instance, or whose
    guard fails, raises ReplayError."""
    cc, p = _replay(config, trace)
    return unpack(cc, p)


def _replay(config: SystemConfig, trace: Trace) -> tuple[CompiledConfig, int]:
    """Fold ``kernel.step`` over the trace from the initial packed state."""
    cc = compile_config(config)
    p = cc.initial_state
    for i, ev in enumerate(trace):
        try:
            p = kernel.step(cc, p, ev)
        except kernel.GuardFailed as e:
            raise ReplayError(i, e) from None
    return cc, p
