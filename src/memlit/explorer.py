"""Exhaustive interleaving exploration and trace-level checking.

``explore`` runs a breadth-first closure over the kernel transition
relation with canonical-state deduplication, so counterexample traces are
shortest.  ``check_outcome`` evaluates a litmus test's outcome invariant
at every reachable state; the invariant triggers once all watched loads
have been observed.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from . import kernel
from .kernel import (
    EventDescriptor,
    InternalEvent,
    MachineState,
    Violation,
    apply_event,
    check_state_invariants,
    register_file,
    successors,
    to_descriptor,
    to_internal,
    unpack,
)
from .litmus import LitmusTest, OutcomeMode
from .model import CompiledConfig, InstrKind, SystemConfig, compile_config

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


class InvariantViolated(Exception):
    def __init__(self, violations: list[Violation], trace: Trace):
        self.violations = violations
        self.trace = trace
        super().__init__("; ".join(f"{v.invariant}: {v.message}" for v in violations))


def canonical_key(state: MachineState) -> bytes:
    """Order-independent serialization; equal states give equal keys."""
    return repr(tuple(state)).encode()


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
    final_states: list[MachineState]
    final_register_maps: frozenset[tuple[tuple[int, ...], ...]]
    event_tally: dict[str, int]
    trigger_register_maps: frozenset[tuple[tuple[int, ...], ...]] | None
    watched_loads: frozenset[str] | None
    compiled: CompiledConfig = field(repr=False)
    # Shortest trace to the first trigger state found; None without
    # watched loads or when no trigger state is reachable.
    witness: Trace | None = None

    def final_maps(self) -> list[RegisterMap]:
        return sorted(
            (_rf_snapshot(self.compiled, rf) for rf in self.final_register_maps),
            key=lambda d: sorted((m, sorted(v.items())) for m, v in d.items()),
        )

    def trigger_maps(self) -> list[RegisterMap]:
        if self.trigger_register_maps is None:
            return []
        return sorted(
            (_rf_snapshot(self.compiled, rf) for rf in self.trigger_register_maps),
            key=lambda d: sorted((m, sorted(v.items())) for m, v in d.items()),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "stateCount": self.state_count,
            "transitions": self.transition_count,
            "finalRegisterMaps": self.final_maps(),
            "eventTally": dict(sorted(self.event_tally.items())),
        }


def _watched_mask(cc: CompiledConfig, watched_loads: frozenset[str] | None) -> int:
    if not watched_loads:
        return 0
    mask = 0
    for lid in watched_loads:
        slot = cc.slot(lid)
        if cc.kind[slot] not in (InstrKind.LOAD, InstrKind.SC_ACQ_LOAD):
            raise ValueError(f"watched instruction {lid} is not a load")
        mask |= 1 << slot
    return mask


def _watched_observers(cc: CompiledConfig, watched_loads: frozenset[str] | None) -> int:
    """Observer bits of packed states in which every watched load is
    observed: only its issuer observes a load."""
    slots = _watched_mask(cc, watched_loads)
    return sum(cc.obs_bit[x][cc.issuer_ix[x]] for x in range(cc.n_instr) if (slots >> x) & 1)


def explore(
    config: SystemConfig,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    check_invariants: bool = False,
    watched_loads: frozenset[str] | None = None,
    workers: int = 1,
    name: str = "",
) -> ExplorationResult:
    """Breadth-first closure of the transition system.

    Passing ``watched_loads`` (possibly empty) enables trigger-state
    register collection: the registers of every reachable state in which
    all watched loads have been observed, and a shortest witness trace to
    the first such state.  The search runs in one thread; ``workers`` is
    accepted and does not change the result.
    """
    result, _, _ = _explore_full(
        config,
        max_states=max_states,
        check_invariants=check_invariants,
        watched_loads=watched_loads,
        name=name,
        stop_predicate=None,
    )
    return result


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
    """What a breadth-first search reached: each node with the edge that
    first reached it, so paths back to the root are shortest."""

    parents: dict  # node -> (parent node, internal event), root -> None
    finals: list  # nodes without successors, in discovery order
    tally: list[int]  # transitions per event code
    transitions: int
    stop: object | None  # the node ``visit`` stopped at

    def events_to(self, node) -> list[InternalEvent]:
        steps: list[InternalEvent] = []
        while (edge := self.parents[node]) is not None:
            node, ev = edge
            steps.append(ev)
        return steps[::-1]

    def trace_to(self, cc: CompiledConfig, node) -> Trace:
        return tuple(to_descriptor(cc, ev) for ev in self.events_to(node))


def _bfs(root, expand, visit, max_states: int) -> _Space:
    """The breadth-first search core of exploration and trace generation.

    ``expand(node)`` lists a node's (internal event, successor node) pairs
    in a deterministic order.  ``visit`` sees each node once, the root
    first, in discovery order; the search stops at the first node for which
    it returns True.  Raises ``StateLimitExceeded`` once more than
    ``max_states`` nodes have been reached.
    """
    parents: dict = {root: None}
    finals = []
    tally = [0] * len(kernel.EVENT_NAMES)
    transitions = depth = 0
    frontier = [root]
    with _gc_paused():
        stop = root if visit(root) else None
        while frontier and stop is None:
            next_frontier = []
            for node in frontier:
                succ = expand(node)
                if not succ:
                    finals.append(node)
                    continue
                transitions += len(succ)
                for ev, nxt in succ:
                    tally[ev[0]] += 1
                    if nxt in parents:
                        continue
                    parents[nxt] = (node, ev)
                    if len(parents) > max_states:
                        raise StateLimitExceeded(max_states, depth, len(frontier))
                    if visit(nxt):
                        stop = nxt
                        break
                    next_frontier.append(nxt)
                if stop is not None:
                    break
            frontier = next_frontier
            depth += 1
    return _Space(parents, finals, tally, transitions, stop)


def _explore_full(
    config: SystemConfig,
    *,
    max_states: int,
    check_invariants: bool,
    watched_loads: frozenset[str] | None,
    name: str,
    stop_predicate,
) -> tuple[ExplorationResult, _Space, int | None]:
    """Search the packed states of ``config``.  ``stop_predicate``, if
    given, sees the rf field (``kernel.registers``) of each trigger state
    with a register file not seen before, and stops the search at the
    first for which it returns True."""
    cc = compile_config(config)
    watching = watched_loads is not None
    watched = _watched_observers(cc, watched_loads)
    rf_shift, rf_mask = cc.rf_shift, cc.rf_mask
    # Trigger rf fields, each with the first state that reached it.
    triggers: dict[int, int] = {}
    violations: list[Violation] = []

    def visit(p: int) -> bool:
        """Invariant and trigger bookkeeping; True stops the search here."""
        if check_invariants:
            violations.extend(check_state_invariants(unpack(cc, p), config))
            if violations:
                return True
        if p & watched != watched:
            return False
        rf = (p >> rf_shift) & rf_mask
        if rf in triggers:
            return False
        triggers[rf] = p
        return stop_predicate is not None and stop_predicate(rf)

    space = _bfs(cc.initial_state, partial(successors, cc), visit, max_states)
    if violations:
        raise InvariantViolated(violations, space.trace_to(cc, space.stop))

    final_states = [unpack(cc, p) for p in space.finals]
    result = ExplorationResult(
        name=name,
        state_count=len(space.parents),
        transition_count=space.transitions,
        final_states=final_states,
        final_register_maps=frozenset(st.rf for st in final_states),
        event_tally={kernel.EVENT_NAMES[i]: n for i, n in enumerate(space.tally)},
        trigger_register_maps=(
            frozenset(register_file(cc, rf) for rf in triggers) if watching else None
        ),
        watched_loads=watched_loads if watching else None,
        compiled=cc,
        witness=(
            space.trace_to(cc, next(iter(triggers.values())))
            if watching and triggers else None
        ),
    )
    return result, space, space.stop


def explore_test(
    test: LitmusTest,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    check_invariants: bool = False,
    workers: int = 1,
) -> ExplorationResult:
    """Explore a litmus test's configuration, watching its loads."""
    return explore(
        test.config,
        max_states=max_states,
        check_invariants=check_invariants,
        watched_loads=test.watched_loads,
        workers=workers,
        name=test.name,
    )


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
    workers: int = 1,
) -> Verdict:
    """Evaluate the outcome invariant at every reachable state.

    forbidden: the predicate must be unsatisfiable at trigger states.
    required: the predicate must hold at every trigger state.
    allowed:  report whether some trigger state satisfies it.

    The predicate runs once per distinct register file at trigger states.
    """
    cc = compile_config(test.config)
    evaluate = _compiled_predicate(cc, test)
    mode = test.outcome_mode
    if mode is OutcomeMode.REQUIRED:
        stop = lambda rf: not evaluate(rf)  # noqa: E731 - search for a refutation
    else:
        stop = evaluate

    result, space, witness_state = _explore_full(
        test.config,
        max_states=max_states,
        check_invariants=False,
        watched_loads=test.watched_loads,
        name=test.name,
        stop_predicate=stop,
    )
    witness = space.trace_to(cc, witness_state) if witness_state is not None else None

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
    """Fold ``fire`` over the trace from the initial state."""
    cc, states = _replay(config, trace, enforce_guards=True)
    return unpack(cc, states[-1])


def replay_states(
    config: SystemConfig, trace: Trace, enforce_guards: bool = True
) -> list[MachineState]:
    """All intermediate states (len(trace)+1 entries).  A step that names
    no event instance, or whose guard fails, raises ReplayError.

    With ``enforce_guards`` off, actions are applied regardless of guard
    failures so ordering checkers can judge corrupted sequences.
    """
    cc, states = _replay(config, trace, enforce_guards)
    return [unpack(cc, p) for p in states]


def _replay(
    config: SystemConfig, trace: Trace, enforce_guards: bool
) -> tuple[CompiledConfig, list[int]]:
    """The packed states of a replay."""
    cc = compile_config(config)
    p = cc.initial_state
    states = [p]
    for i, ev in enumerate(trace):
        try:
            if enforce_guards:
                p = kernel.step(cc, p, ev)
            else:
                p = apply_event(cc, p, to_internal(cc, ev))
        except kernel.GuardFailed as e:
            raise ReplayError(i, e) from None
        states.append(p)
    return cc, states


# ---------------------------------------------------------------------------
# Trace-level ordering checkers (program order / coherence / happens-before)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyResult:
    status: str  # "pass" / "fail" / "not-applicable"
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class OrderingReport:
    po: PropertyResult
    co: PropertyResult
    hb: PropertyResult

    def all_pass(self) -> bool:
        return all(r.status != "fail" for r in (self.po, self.co, self.hb))

    def to_json(self) -> dict:
        return {
            p: {"status": r.status, "witnesses": list(r.witnesses)}
            for p, r in (("po", self.po), ("co", self.co), ("hb", self.hb))
        }


def _sync_ordered(cc: CompiledConfig, x: int, y: int) -> bool:
    """Program-order pairs whose observation order is pinned by a fence or
    an atomic: a fence between them, a release store after, or an acquire
    load before."""
    if cc.issuer_ix[x] != cc.issuer_ix[y] or cc.index_of[x] >= cc.index_of[y]:
        return False
    if cc.kind[y] is InstrKind.SC_REL_STORE or cc.kind[x] is InstrKind.SC_ACQ_LOAD:
        return True
    return any(
        cc.index_of[x] < cc.index_of[f] < cc.index_of[y]
        for f in cc.fences_of_master[cc.issuer_ix[x]]
    )


def check_trace_orderings(
    config: SystemConfig, trace: Trace, enforce_guards: bool = True
) -> OrderingReport:
    """Judge po/co/hb on one concrete event sequence.

    The checkers recompute everything from the raw events: observation
    steps per master, an independent last-observed-value fold for co, and
    the before/after bookkeeping of stores for hb.
    """
    cc = compile_config(config)
    states = replay_states(config, trace, enforce_guards=enforce_guards)

    obs_step: dict[tuple[int, int], int] = {}  # (master, slot) -> step
    last_value: dict[tuple[int, int], int] = {}  # (master, addr) -> value fold
    co_witnesses: list[str] = []
    hb_witnesses: list[str] = []
    hb_applicable = False
    internal = [to_internal(cc, ev) for ev in trace]

    for step, (ev, desc) in enumerate(zip(internal, trace)):
        code, x, m, f, s = ev
        if code in kernel.ISSUE_CODES:
            continue
        obs_step.setdefault((m, x), step)
        if code in (kernel.OBS_STORE_WOF, kernel.OBS_STORE_WF, kernel.OBS_SC_REL_STORE):
            last_value[(m, cc.addr_ix[x])] = cc.value_of[x]
            continue
        # Load observation: the register write must equal the last store
        # value this master observed for the address (or the initial one).
        expected = last_value.get(
            (m, cc.addr_ix[x]), cc.initial_lov[m][cc.addr_ix[x]]
        )
        got = states[step + 1].rf[m][cc.reg_ix[x]]
        if got != expected:
            co_witnesses.append(
                f"step {step}: {desc.name} {cc.instrs[x].id} returned {got}, "
                f"last observed store value is {expected}"
            )
        if code == kernel.OBS_LOAD_HB_WF and s >= 0:
            hb_applicable = True
            already_after = states[step].after[s]
            if already_after:
                names = sorted(cc.mask_to_instr_ids(already_after))
                hb_witnesses.append(
                    f"step {step}: {cc.instrs[x].id} observed before store "
                    f"{cc.instrs[s].id}, but loads {names} were already observed after it"
                )
        if code in (kernel.OBS_LOAD_AS_WF, kernel.OBS_LOAD_AS_WOF):
            hb_applicable = True

    po_witnesses: list[str] = []
    sync_pairs = [
        (x, y)
        for x in range(cc.n_instr)
        for y in range(cc.n_instr)
        if (cc.access_mask >> x) & 1 and (cc.access_mask >> y) & 1 and _sync_ordered(cc, x, y)
    ]
    for x, y in sync_pairs:
        for mi, master in enumerate(cc.masters):
            sx, sy = obs_step.get((mi, x)), obs_step.get((mi, y))
            if sx is not None and sy is not None and sx > sy:
                po_witnesses.append(
                    f"{master} observed {cc.instrs[y].id} (step {sy}) before "
                    f"{cc.instrs[x].id} (step {sx}) against program order"
                )

    def verdict(applicable: bool, witnesses: list[str]) -> PropertyResult:
        if witnesses:
            return PropertyResult("fail", tuple(witnesses))
        return PropertyResult("pass" if applicable else "not-applicable")

    any_load = any(
        ev[0]
        in (
            kernel.OBS_LOAD_HB_WF,
            kernel.OBS_LOAD_AS_WF,
            kernel.OBS_LOAD_WOF,
            kernel.OBS_LOAD_AS_WOF,
            kernel.OBS_SC_ACQ_LOAD,
        )
        for ev in internal
    )
    return OrderingReport(
        po=verdict(bool(sync_pairs), po_witnesses),
        co=verdict(any_load, co_witnesses),
        hb=verdict(hb_applicable, hb_witnesses),
    )
