"""Guarded-transition semantics of the weak-memory machine.

States are immutable; ``fire`` computes successors without mutating its
inputs.  Every event is a (name, parameter binding) pair; guards gate
enabledness and actions build the successor.  Masks are over instruction
slots / master indices of the compiled configuration (see ``model``).

The thirteen transition rules are named in ``EVENT_NAMES``; their guards
are declared once, as data, in ``RULES``.  The five Issue rules issue the
next instruction of a master in program order.  The Observe rules make an
access visible to a master m: a store sets m's last-observed value for its
address, and a load, observed by its issuer, copies that value into its
register.  A plain load names a witness store s to its address and is
observed before s or, once m has observed s, after it (joining after(s)).
The WithFence rules apply once the access's issuer has issued a fence f,
the WithoutFence rules before that.  Loads of addresses nothing stores to
are observed through the before-store rules with the witness omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .model import (
    LOAD_KINDS,
    STORE_KINDS,
    CompiledConfig,
    InstrKind,
    SystemConfig,
    compile_config,
)

EVENT_NAMES = (
    "IssueStore",
    "IssueLoad",
    "IssueFence",
    "IssueScRelStore",
    "IssueScAcqLoad",
    "ObserveStoreWithFence",
    "ObserveStoreWithoutFence",
    "ObserveLoadHappensBeforeWithFence",
    "ObserveLoadAfterStoreWithFence",
    "ObserveLoadWithoutFence",
    "ObserveLoadAfterStoreWithoutFence",
    "ObserveScRelStore",
    "ObserveScAcqLoad",
)

(
    ISSUE_STORE,
    ISSUE_LOAD,
    ISSUE_FENCE,
    ISSUE_SC_REL_STORE,
    ISSUE_SC_ACQ_LOAD,
    OBS_STORE_WF,
    OBS_STORE_WOF,
    OBS_LOAD_HB_WF,
    OBS_LOAD_AS_WF,
    OBS_LOAD_WOF,
    OBS_LOAD_AS_WOF,
    OBS_SC_REL_STORE,
    OBS_SC_ACQ_LOAD,
) = range(13)

EVENT_CODE = {name: code for code, name in enumerate(EVENT_NAMES)}

ISSUE_CODE_OF_KIND = {
    InstrKind.STORE: ISSUE_STORE,
    InstrKind.LOAD: ISSUE_LOAD,
    InstrKind.FENCE: ISSUE_FENCE,
    InstrKind.SC_REL_STORE: ISSUE_SC_REL_STORE,
    InstrKind.SC_ACQ_LOAD: ISSUE_SC_ACQ_LOAD,
}

ISSUE_CODES = frozenset(ISSUE_CODE_OF_KIND.values())


class GuardFailed(Exception):
    """An event was fired whose guard does not hold; ``detail`` says why
    in words (``grd0`` marks an event that names no rule or instance)."""

    def __init__(self, event_name: str, guard: str, detail: str = ""):
        self.event_name = event_name
        self.guard = guard
        self.detail = detail
        msg = f"{event_name}: guard {guard} failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnknownLoad(Exception):
    pass


class NotAFence(Exception):
    pass


class MachineState(NamedTuple):
    """Machine variables; all components are canonical and hashable.

    issued/observed/issuedfence are instruction-slot masks, observers and
    after map instruction slots to master/load masks, lov and rf are value
    grids indexed [master][address] / [master][register], cursor holds the
    next 1-based program position per master, and atomic_order lists
    atomic accesses in first-observation order.
    """

    issued: int
    observed: int
    observers: tuple[int, ...]
    lov: tuple[tuple[int, ...], ...]
    rf: tuple[tuple[int, ...], ...]
    issuedfence: int
    after: tuple[int, ...]
    cursor: tuple[int, ...]
    atomic_order: tuple[int, ...]


@dataclass(frozen=True)
class EventDescriptor:
    """A named event instance; parameters are instruction/master ids.

    ``s`` is absent on before-store load events when the configuration has
    no store to the load's address.
    """

    name: str
    l: str | None = None
    s: str | None = None
    m: str | None = None
    f: str | None = None

    def params(self) -> dict[str, str]:
        return {
            k: v
            for k, v in (("l", self.l), ("s", self.s), ("m", self.m), ("f", self.f))
            if v is not None
        }

    def to_json(self) -> dict:
        return {"name": self.name, **self.params()}

    @staticmethod
    def from_json(doc: dict) -> "EventDescriptor":
        return EventDescriptor(
            name=doc["name"],
            l=doc.get("l"),
            s=doc.get("s"),
            m=doc.get("m"),
            f=doc.get("f"),
        )


# Internal events are (code, x, m, f, s) tuples: x is the instruction the
# event is about, m the observing master index, f a fence slot and s a
# witness-store slot; -1 marks an absent field.
InternalEvent = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Violation:
    invariant: str
    message: str


def init_state(config: SystemConfig) -> MachineState:
    """Initial state: nothing issued, memory at its initial values,
    every register at 0."""
    cc = compile_config(config)
    return MachineState(
        issued=0,
        observed=0,
        observers=(0,) * cc.n_instr,
        lov=cc.initial_lov,
        rf=cc.initial_rf,
        issuedfence=0,
        after=(0,) * cc.n_instr,
        cursor=(1,) * cc.n_masters,
        atomic_order=(),
    )


def ahead_of(config: SystemConfig, fence_id: str) -> frozenset[str]:
    """Memory accesses of the fence's issuer earlier in program order."""
    cc = compile_config(config)
    try:
        slot = cc.slot(fence_id)
    except KeyError:
        raise NotAFence(f"unknown instruction {fence_id!r}") from None
    if cc.kind[slot] is not InstrKind.FENCE:
        raise NotAFence(f"{fence_id} is a {cc.kind[slot].value}, not a fence")
    return cc.mask_to_instr_ids(cc.ahead_mask[slot])


def load_return_value(state: MachineState, config: SystemConfig, m: str, l: str) -> int:
    """Value the load l returns when observed by m: m's last observed
    value for the load's address."""
    cc = compile_config(config)
    if m not in cc.master_index:
        raise UnknownLoad(f"unknown master {m!r}")
    try:
        slot = cc.slot(l)
    except KeyError:
        raise UnknownLoad(f"unknown load {l!r}") from None
    if cc.kind[slot] not in (InstrKind.LOAD, InstrKind.SC_ACQ_LOAD):
        raise UnknownLoad(f"{l} is not a load")
    if cc.issuer_ix[slot] != cc.master_index[m]:
        raise UnknownLoad(f"{l} is not issued by {m}")
    return state.lov[cc.master_index[m]][cc.addr_ix[slot]]


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

class Guard(NamedTuple):
    """One guard of a transition rule.

    ``text`` says what must hold, with ``{x}``, ``{m}``, ``{f}`` and ``{s}``
    standing for the event's instruction, master, fence and witness store.
    ``holds(cc, st, x, m, f, s)`` decides it.  ``enumerated`` is True when
    ``iter_candidate_events`` proposes only events that satisfy it in
    reachable states, so ``successors`` need not evaluate it.
    """

    text: str
    holds: Callable[[CompiledConfig, MachineState, int, int, int, int], object]
    enumerated: bool = True


def _is_kind(kind: InstrKind) -> Guard:
    return Guard(f"{{x}} is a {kind.value}", lambda cc, st, x, m, f, s: cc.kind[x] is kind)


def _po_fence_ok(cc: CompiledConfig, st: MachineState, x: int, m: int, f: int, s: int) -> bool:
    # If x is not ahead of f, every issued access ahead of f must already
    # be observed by the observing master.
    ahead = cc.ahead_mask[f]
    if (ahead >> x) & 1:
        return True
    pending = ahead & st.issued
    observers = st.observers
    mbit = 1 << m
    while pending:
        low = pending & -pending
        if not observers[low.bit_length() - 1] & mbit:
            return False
        pending ^= low
    return True


def _acq_preds_observed(cc: CompiledConfig, st: MachineState, x: int, m: int, f: int, s: int) -> bool:
    # An acquire load blocks observation of everything behind it in its
    # issuer's program until the issuer has observed it.
    for a in cc.acq_pred_slots[x]:
        if st.observers[a] == 0:
            return False
    return True


def _preds_visible(cc: CompiledConfig, st: MachineState, x: int, m: int, f: int, s: int) -> bool:
    # Release: every program-order predecessor access must be visible to
    # the observer before the release store is.  Only its issuer observes
    # a load, so an earlier load need only be performed.
    for a in cc.pred_access_slots[x]:
        if cc.kind[a] in LOAD_KINDS:
            if not st.observers[a]:
                return False
        elif not (st.observers[a] >> m) & 1:
            return False
    return True


def _atomic_order_ok(cc: CompiledConfig, st: MachineState, x: int, m: int, f: int, s: int) -> bool:
    # Sequential consistency: atomic stores become visible to every master
    # in first-observation order, with no skipping.
    for t in st.atomic_order:
        if t == x:
            break
        if cc.kind[t] is InstrKind.SC_REL_STORE and not (st.observers[t] >> m) & 1:
            return False
    return True


_ISSUE = (
    Guard("{x} is not yet issued",
          lambda cc, st, x, m, f, s: not ((st.issued | st.issuedfence) >> x) & 1),
    Guard("{x} is next in its issuer's program",
          lambda cc, st, x, m, f, s: st.cursor[cc.issuer_ix[x]] == cc.index_of[x]),
)
_ISSUED = Guard("{x} is issued", lambda cc, st, x, m, f, s: (st.issued >> x) & 1)
_UNSEEN = Guard("{m} has not observed {x}",
                lambda cc, st, x, m, f, s: not (st.observers[x] >> m) & 1)
_BY_OBSERVER = Guard("{m} issued {x}", lambda cc, st, x, m, f, s: cc.issuer_ix[x] == m)
_NO_FENCE = Guard(
    "the issuer of {x} has issued no fence",
    lambda cc, st, x, m, f, s: not st.issuedfence & cc.fence_mask_of_master[cc.issuer_ix[x]],
)
_FENCED = (
    Guard("{f} is an issued fence",
          lambda cc, st, x, m, f, s: f >= 0 and (st.issuedfence >> f) & 1),
    Guard("{f} and {x} have the same issuer",
          lambda cc, st, x, m, f, s: cc.issuer_ix[f] == cc.issuer_ix[x]),
    Guard("{x} is ahead of {f}, or {m} has observed every issued access ahead of {f}",
          _po_fence_ok, enumerated=False),
)
_ACQ_PREDS = Guard("every acquire load before {x} is performed", _acq_preds_observed,
                   enumerated=False)
_LOAD = (_ISSUED, _is_kind(InstrKind.LOAD), _UNSEEN, _BY_OBSERVER)

# The witness store of a load observation.  Before-store observations may
# omit it (s = -1) only when nothing stores to the load's address.
_WITNESS_STORE = Guard(
    "{s} is a store, or is absent and nothing stores to the address of {x}",
    lambda cc, st, x, m, f, s: (
        cc.kind[s] in STORE_KINDS if s >= 0 else not cc.stores_to_addr[cc.addr_ix[x]]
    ),
)
_WITNESS_ADDRESS = Guard("{s} stores to the address of {x}",
                         lambda cc, st, x, m, f, s: s < 0 or cc.addr_ix[s] == cc.addr_ix[x])
_BEFORE_WITNESS = (
    _WITNESS_STORE,
    _WITNESS_ADDRESS,
    Guard("{m} has not observed {s}",
          lambda cc, st, x, m, f, s: s < 0 or not (st.observers[s] >> m) & 1),
)
_AFTER_WITNESS = (
    Guard("{s} is issued", lambda cc, st, x, m, f, s: s >= 0 and (st.issued >> s) & 1),
    _WITNESS_STORE,
    _WITNESS_ADDRESS,
    Guard("{m} has observed {s}", lambda cc, st, x, m, f, s: (st.observers[s] >> m) & 1),
)
_NO_LOAD_AFTER = Guard("no load is observed after {s} yet",
                       lambda cc, st, x, m, f, s: s < 0 or not st.after[s], enumerated=False)

# The guards of every transition rule, indexed by event code.  A guard's
# Event-B id ``grdN`` is its position N in its rule, counting from 1.
RULES: tuple[tuple[Guard, ...], ...] = (
    (_is_kind(InstrKind.STORE), *_ISSUE),
    (_is_kind(InstrKind.LOAD), *_ISSUE),
    (_is_kind(InstrKind.FENCE), *_ISSUE),
    (_is_kind(InstrKind.SC_REL_STORE), *_ISSUE),
    (_is_kind(InstrKind.SC_ACQ_LOAD), *_ISSUE),
    # ObserveStoreWithFence, ObserveStoreWithoutFence
    (_ISSUED, _is_kind(InstrKind.STORE), _UNSEEN, *_FENCED, _ACQ_PREDS),
    (_ISSUED, _is_kind(InstrKind.STORE), _UNSEEN, _NO_FENCE, _ACQ_PREDS),
    # ObserveLoadHappensBeforeWithFence, ObserveLoadAfterStoreWithFence
    (*_LOAD, *_FENCED, *_BEFORE_WITNESS, _NO_LOAD_AFTER, _ACQ_PREDS),
    (*_LOAD, *_FENCED, *_AFTER_WITNESS, _ACQ_PREDS),
    # ObserveLoadWithoutFence, ObserveLoadAfterStoreWithoutFence
    (*_LOAD, _NO_FENCE, *_BEFORE_WITNESS, _ACQ_PREDS),
    (*_LOAD, _NO_FENCE, *_AFTER_WITNESS, _ACQ_PREDS),
    # ObserveScRelStore
    (
        _ISSUED,
        _is_kind(InstrKind.SC_REL_STORE),
        _UNSEEN,
        Guard("every access before {x} is visible to {m}", _preds_visible, enumerated=False),
        Guard("{m} has observed every atomic store ordered before {x}", _atomic_order_ok,
              enumerated=False),
    ),
    # ObserveScAcqLoad
    (_ISSUED, _is_kind(InstrKind.SC_ACQ_LOAD), _UNSEEN, _BY_OBSERVER, _ACQ_PREDS),
)

# What successors() evaluates per rule: the guards the enumerator does
# not establish.
_UNENUMERATED = tuple(tuple(g.holds for g in rule if not g.enumerated) for rule in RULES)


def _first_failing(cc: CompiledConfig, st: MachineState, ev: InternalEvent) -> int:
    """Position of the first failing guard of ev's rule, 0 if all hold."""
    code, x, m, f, s = ev
    if not 0 <= code < len(RULES):
        raise ValueError(f"unknown event code {code}")
    for n, guard in enumerate(RULES[code], start=1):
        if not guard.holds(cc, st, x, m, f, s):
            return n
    return 0


def check_guards(cc: CompiledConfig, st: MachineState, ev: InternalEvent) -> str | None:
    """Return the id of the first failing guard, or None if enabled."""
    n = _first_failing(cc, st, ev)
    return f"grd{n}" if n else None


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _set_slot(tup: tuple[int, ...], i: int, v: int) -> tuple[int, ...]:
    return tup[:i] + (v,) + tup[i + 1 :]


def _set_grid(
    grid: tuple[tuple[int, ...], ...], m: int, i: int, v: int
) -> tuple[tuple[int, ...], ...]:
    row = grid[m]
    if row[i] == v:
        return grid
    return grid[:m] + (_set_slot(row, i, v),) + grid[m + 1 :]


def apply_event(cc: CompiledConfig, st: MachineState, ev: InternalEvent) -> MachineState:
    """Successor state for an enabled event (guards are not re-checked)."""
    code, x, m, f, s = ev
    issued, observed, observers, lov, rf, issuedfence, after, cursor, order = st
    if code in ISSUE_CODES:
        mi = cc.issuer_ix[x]
        cursor = _set_slot(cursor, mi, cursor[mi] + 1)
        if code == ISSUE_FENCE:
            return MachineState(
                issued, observed, observers, lov, rf, issuedfence | (1 << x), after, cursor, order
            )
        return MachineState(
            issued | (1 << x), observed, observers, lov, rf, issuedfence, after, cursor, order
        )

    observed |= 1 << x
    observers = _set_slot(observers, x, observers[x] | (1 << m))
    if code in (OBS_STORE_WOF, OBS_STORE_WF, OBS_SC_REL_STORE):
        lov = _set_grid(lov, m, cc.addr_ix[x], cc.value_of[x])
        if code == OBS_SC_REL_STORE and x not in order:
            order = order + (x,)
    else:
        # Load observations: the register takes the last observed value.
        rf = _set_grid(rf, m, cc.reg_ix[x], lov[m][cc.addr_ix[x]])
        if code in (OBS_LOAD_AS_WF, OBS_LOAD_AS_WOF):
            after = _set_slot(after, s, after[s] | (1 << x))
        elif code == OBS_SC_ACQ_LOAD:
            order = order + (x,)
    return MachineState(issued, observed, observers, lov, rf, issuedfence, after, cursor, order)


# ---------------------------------------------------------------------------
# Event enumeration
# ---------------------------------------------------------------------------

def iter_candidate_events(cc: CompiledConfig, st: MachineState) -> Iterator[InternalEvent]:
    """All plausibly-enabled event instances; callers must still check
    guards.  Complete: every enabled event instance is produced."""
    # Issues: at most one per master per state.
    for mi in range(cc.n_masters):
        prog = cc.program_slots[mi]
        nxt = st.cursor[mi]
        if nxt <= len(prog):
            x = prog[nxt - 1]
            yield (ISSUE_CODE_OF_KIND[cc.kind[x]], x, -1, -1, -1)

    issued = st.issued
    observers = st.observers
    all_m = cc.all_masters_mask

    for s in cc.plain_store_slots:
        if not (issued >> s) & 1 or observers[s] == all_m:
            continue
        fences = cc.fences_of_master[cc.issuer_ix[s]]
        issued_fences = [f for f in fences if (st.issuedfence >> f) & 1]
        for m in range(cc.n_masters):
            if (observers[s] >> m) & 1:
                continue
            if issued_fences:
                for f in issued_fences:
                    yield (OBS_STORE_WF, s, m, f, -1)
            else:
                yield (OBS_STORE_WOF, s, m, -1, -1)

    for s in cc.rel_store_slots:
        if not (issued >> s) & 1 or observers[s] == all_m:
            continue
        for m in range(cc.n_masters):
            if not (observers[s] >> m) & 1:
                yield (OBS_SC_REL_STORE, s, m, -1, -1)

    for l in cc.plain_load_slots:
        if not (issued >> l) & 1 or observers[l]:
            continue
        m = cc.issuer_ix[l]
        witnesses = cc.stores_to_addr[cc.addr_ix[l]]
        fences = cc.fences_of_master[m]
        issued_fences = [f for f in fences if (st.issuedfence >> f) & 1]
        if issued_fences:
            for f in issued_fences:
                if witnesses:
                    for s in witnesses:
                        if (observers[s] >> m) & 1:
                            yield (OBS_LOAD_AS_WF, l, m, f, s)
                        else:
                            yield (OBS_LOAD_HB_WF, l, m, f, s)
                else:
                    yield (OBS_LOAD_HB_WF, l, m, f, -1)
        else:
            if witnesses:
                for s in witnesses:
                    if (observers[s] >> m) & 1:
                        yield (OBS_LOAD_AS_WOF, l, m, -1, s)
                    else:
                        yield (OBS_LOAD_WOF, l, m, -1, s)
            else:
                yield (OBS_LOAD_WOF, l, m, -1, -1)

    for l in cc.acq_load_slots:
        if (issued >> l) & 1 and not observers[l]:
            yield (OBS_SC_ACQ_LOAD, l, cc.issuer_ix[l], -1, -1)


def successors(
    cc: CompiledConfig, st: MachineState
) -> list[tuple[InternalEvent, MachineState]]:
    """Enabled events with their successor states, in a deterministic order."""
    unenumerated = _UNENUMERATED
    out = []
    for ev in iter_candidate_events(cc, st):
        code, x, m, f, s = ev
        for holds in unenumerated[code]:
            if not holds(cc, st, x, m, f, s):
                break
        else:
            out.append((ev, apply_event(cc, st, ev)))
    return out


def all_event_instances(cc: CompiledConfig) -> Iterator[InternalEvent]:
    """Exhaustive sweep of the whole event-instance space (test support)."""
    for code in ISSUE_CODES:
        for x in range(cc.n_instr):
            yield (code, x, -1, -1, -1)
    slots = range(cc.n_instr)
    masters = range(cc.n_masters)
    fences = list(cc.fence_slots) + [-1]
    witnesses = list(slots) + [-1]
    for x in slots:
        for m in masters:
            yield (OBS_STORE_WOF, x, m, -1, -1)
            yield (OBS_SC_REL_STORE, x, m, -1, -1)
            yield (OBS_SC_ACQ_LOAD, x, m, -1, -1)
            for f in cc.fence_slots:
                yield (OBS_STORE_WF, x, m, f, -1)
            for s in witnesses:
                yield (OBS_LOAD_WOF, x, m, -1, s)
                yield (OBS_LOAD_AS_WOF, x, m, -1, s)
                for f in fences:
                    yield (OBS_LOAD_HB_WF, x, m, f, s)
                    yield (OBS_LOAD_AS_WF, x, m, f, s)


# ---------------------------------------------------------------------------
# Public descriptor-level API
# ---------------------------------------------------------------------------

def to_descriptor(cc: CompiledConfig, ev: InternalEvent) -> EventDescriptor:
    code, x, m, f, s = ev
    name = EVENT_NAMES[code]
    instr = cc.instrs
    if code in ISSUE_CODES:
        ins = instr[x]
        if code == ISSUE_FENCE:
            return EventDescriptor(name=name, f=ins.id)
        if code in (ISSUE_STORE, ISSUE_SC_REL_STORE):
            return EventDescriptor(name=name, s=ins.id)
        return EventDescriptor(name=name, l=ins.id)
    master = cc.masters[m]
    if code in (OBS_STORE_WOF, OBS_STORE_WF, OBS_SC_REL_STORE):
        return EventDescriptor(
            name=name, s=instr[x].id, m=master, f=instr[f].id if f >= 0 else None
        )
    return EventDescriptor(
        name=name,
        l=instr[x].id,
        m=master,
        f=instr[f].id if f >= 0 else None,
        s=instr[s].id if s >= 0 else None,
    )


def to_internal(cc: CompiledConfig, ev: EventDescriptor) -> InternalEvent:
    if ev.name not in EVENT_CODE:
        raise GuardFailed(ev.name, "grd0", "unknown event name")
    code = EVENT_CODE[ev.name]

    def islot(instr_id: str | None) -> int:
        if instr_id is None:
            return -1
        try:
            return cc.slot(instr_id)
        except KeyError:
            raise GuardFailed(ev.name, "grd0", f"unknown instruction {instr_id!r}") from None

    def midx(master: str | None) -> int:
        if master is None:
            raise GuardFailed(ev.name, "grd0", "missing master parameter")
        try:
            return cc.master_index[master]
        except KeyError:
            raise GuardFailed(ev.name, "grd0", f"unknown master {master!r}") from None

    if code in ISSUE_CODES:
        target = ev.f if code == ISSUE_FENCE else (ev.s if ev.s is not None else ev.l)
        if target is None:
            raise GuardFailed(ev.name, "grd0", "missing instruction parameter")
        return (code, islot(target), -1, -1, -1)
    if code in (OBS_STORE_WOF, OBS_STORE_WF, OBS_SC_REL_STORE):
        if ev.s is None:
            raise GuardFailed(ev.name, "grd0", "missing store parameter")
        return (code, islot(ev.s), midx(ev.m), islot(ev.f), -1)
    if ev.l is None:
        raise GuardFailed(ev.name, "grd0", "missing load parameter")
    return (code, islot(ev.l), midx(ev.m), islot(ev.f), islot(ev.s))


def enabled_events(state: MachineState, config: SystemConfig) -> set[EventDescriptor]:
    """Exactly the event instances whose guards hold in ``state``."""
    cc = compile_config(config)
    return {to_descriptor(cc, ev) for ev, _ in successors(cc, state)}


def step(cc: CompiledConfig, state: MachineState, ev: EventDescriptor) -> MachineState:
    """Successor state for ``ev``; raises GuardFailed quoting the first
    violated guard, filled with the event's ids, if it is not enabled."""
    internal = to_internal(cc, ev)
    n = _first_failing(cc, state, internal)
    if n:
        code, x, m, f, s = internal
        text = RULES[code][n - 1].text.format(
            x=cc.instrs[x].id,
            m=cc.masters[m] if m >= 0 else "none",
            f=cc.instrs[f].id if f >= 0 else "none",
            s=cc.instrs[s].id if s >= 0 else "none",
        )
        raise GuardFailed(ev.name, f"grd{n}", f"{text} (params {ev.params()})")
    return apply_event(cc, state, internal)


def fire(state: MachineState, config: SystemConfig, ev: EventDescriptor) -> MachineState:
    """Successor state for ``ev``; raises GuardFailed naming the first
    violated guard if the event is not enabled."""
    return step(compile_config(config), state, ev)


# ---------------------------------------------------------------------------
# State invariants
# ---------------------------------------------------------------------------

def check_state_invariants(state: MachineState, config: SystemConfig) -> list[Violation]:
    """Structural invariants of a machine state; empty list iff all hold."""
    cc = compile_config(config)
    out: list[Violation] = []

    def bad(inv: str, msg: str) -> None:
        out.append(Violation(inv, msg))

    if state.issued & ~cc.access_mask:
        bad("inv1", f"issued contains non-accesses: {cc.mask_to_instr_ids(state.issued & ~cc.access_mask)}")
    if state.observed & ~state.issued:
        bad("inv2", f"observed not within issued: {cc.mask_to_instr_ids(state.observed & ~state.issued)}")
    if state.issuedfence & ~cc.fence_mask:
        bad("inv3", "issuedfence contains non-fences")

    for x in range(cc.n_instr):
        obs = state.observers[x]
        if obs and not (state.issued >> x) & 1:
            bad("inv4", f"{cc.instrs[x].id} has observers but is not issued")
        if obs & ~cc.all_masters_mask:
            bad("inv5", f"{cc.instrs[x].id} observed by unknown master bits")
        if cc.kind[x] in (InstrKind.LOAD, InstrKind.SC_ACQ_LOAD):
            if obs & ~(1 << cc.issuer_ix[x]):
                bad(
                    "load-observer",
                    f"load {cc.instrs[x].id} observed by a non-issuer "
                    f"({sorted(cc.mask_to_masters(obs))})",
                )
        if ((state.observed >> x) & 1) != (1 if obs else 0):
            bad("inv6", f"{cc.instrs[x].id}: observed flag inconsistent with observers")

        aft = state.after[x]
        if aft:
            if cc.kind[x] not in (InstrKind.STORE, InstrKind.SC_REL_STORE):
                bad("inv7", f"after defined on non-store {cc.instrs[x].id}")
            elif not (state.issued >> x) & 1:
                bad("inv7", f"after defined on unissued store {cc.instrs[x].id}")
            else:
                for j in range(cc.n_instr):
                    if not (aft >> j) & 1:
                        continue
                    if cc.kind[j] not in (InstrKind.LOAD, InstrKind.SC_ACQ_LOAD):
                        bad("inv7", f"after({cc.instrs[x].id}) contains non-load {cc.instrs[j].id}")
                    elif not (state.issued >> j) & 1:
                        bad("inv7", f"after({cc.instrs[x].id}) contains unissued {cc.instrs[j].id}")
                    elif cc.addr_ix[j] != cc.addr_ix[x]:
                        bad("inv7", f"after({cc.instrs[x].id}) crosses addresses with {cc.instrs[j].id}")

    for mi, m in enumerate(cc.masters):
        if not 1 <= state.cursor[mi] <= len(cc.program_slots[mi]) + 1:
            bad("inv8", f"cursor({m}) = {state.cursor[mi]} out of range")
        if len(state.lov[mi]) != len(cc.addr_names):
            bad("inv9", f"lov({m}) not total on addresses")
        elif any(v not in cc.config.values for v in state.lov[mi]):
            bad("inv9", f"lov({m}) holds a value outside the domain")
        if len(state.rf[mi]) != len(cc.reg_names):
            bad("inv10", f"rf({m}) not total on registers")
        elif any(v not in cc.config.values for v in state.rf[mi]):
            bad("inv10", f"rf({m}) holds a value outside the domain")
        # Program-order issuing couples the cursor with issued/issuedfence.
        for x in cc.program_slots[mi]:
            should = cc.index_of[x] < state.cursor[mi]
            mask = state.issuedfence if cc.kind[x] is InstrKind.FENCE else state.issued
            if bool((mask >> x) & 1) != should:
                bad("cursor-issue", f"{cc.instrs[x].id} issue flag disagrees with cursor({m})")

    seen = set()
    for x in state.atomic_order:
        if cc.kind[x] not in (InstrKind.SC_REL_STORE, InstrKind.SC_ACQ_LOAD):
            bad("atomic-order", f"{cc.instrs[x].id} in atomic order is not atomic")
        if x in seen:
            bad("atomic-order", f"{cc.instrs[x].id} listed twice in atomic order")
        seen.add(x)
        if state.observers[x] == 0:
            bad("atomic-order", f"{cc.instrs[x].id} in atomic order but never observed")
    for x in (*cc.rel_store_slots, *cc.acq_load_slots):
        if state.observers[x] and x not in seen:
            bad("atomic-order", f"observed atomic {cc.instrs[x].id} missing from atomic order")

    return out
