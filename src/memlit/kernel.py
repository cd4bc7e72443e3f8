"""Guarded-transition semantics of the weak-memory machine.

The core works on packed states: one int per machine state, laid out by
``CompiledConfig`` (see ``model``).  ``MachineState`` is the public view
of such an int; ``pack`` and ``unpack`` convert at the API boundary.
Every event is a (name, parameter binding) pair; guards gate enabledness
and actions build the successor.  Masks are over instruction slots /
master indices of the compiled configuration.

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
    ISSUE_CODE_OF_KIND,
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


class MachineState(NamedTuple):
    """Machine variables: the public view of a packed state.

    issued/observed/issuedfence are instruction-slot masks, observers and
    after map instruction slots to master/load masks, lov and rf are value
    grids indexed [master][address] / [master][register], cursor holds the
    next 1-based program position per master, and atomic_order lists
    atomic accesses in first-observation order.  issued, issuedfence,
    observed and cursor are derived; ``pack`` ignores them.
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


# ---------------------------------------------------------------------------
# Packed states
# ---------------------------------------------------------------------------

def registers(cc: CompiledConfig, p: int) -> int:
    """The rf field of packed state p: equal fields, equal register files."""
    return (p >> cc.rf_shift) & cc.rf_mask


def register_file(cc: CompiledConfig, rf: int) -> tuple[tuple[int, ...], ...]:
    """The rf grid [master][register] that an rf field encodes."""
    return _grid(cc, rf << cc.rf_shift, cc.reg_shift)


def _grid(cc: CompiledConfig, p: int, shifts) -> tuple[tuple[int, ...], ...]:
    values, mask = cc.values, cc.value_mask
    return tuple([tuple([values[(p >> sh) & mask] for sh in row]) for row in shifts])


def unpack(cc: CompiledConfig, p: int) -> MachineState:
    """The MachineState view of packed state p."""
    all_m = cc.all_masters_mask
    observers = tuple([(p >> sh) & all_m for sh in cc.obs_shift])
    after = [0] * cc.n_instr
    for s, field in enumerate(cc.after_field):
        if p & field:
            after[s] = sum([1 << l for l, bit in enumerate(cc.after_bit[s]) if p & bit])
    ranked = sorted([((p >> sh) & cc.rank_mask, x) for x, sh in enumerate(cc.rank_shift) if sh])
    return MachineState(
        issued=p & cc.access_mask,
        observed=sum([1 << x for x, obs in enumerate(observers) if obs]),
        observers=observers,
        lov=_grid(cc, p, cc.lov_shift),
        rf=_grid(cc, p, cc.reg_shift),
        issuedfence=p & cc.fence_mask,
        after=tuple(after),
        cursor=tuple([1 + (p & prog).bit_count() for prog in cc.program_mask]),
        atomic_order=tuple([x for rank, x in ranked if rank]),
    )


def pack(cc: CompiledConfig, state: MachineState) -> int:
    """Packed form of a state; the inverse of ``unpack`` on every state
    the kernel reaches.  Raises ValueError for a state the layout cannot
    hold: a value outside the domain, or an after pair or atomic-order
    entry no event can produce."""
    p = state.issued | state.issuedfence
    for sh, obs in zip(cc.obs_shift, state.observers):
        p |= obs << sh
    for grid, shifts in ((state.lov, cc.lov_shift), (state.rf, cc.reg_shift)):
        for row, row_shifts in zip(grid, shifts):
            for v, sh in zip(row, row_shifts):
                if v not in cc.value_index:
                    raise ValueError(f"value {v} outside the domain")
                p |= cc.value_index[v] << sh
    for s, loads in enumerate(state.after):
        for l in range(cc.n_instr):
            if (loads >> l) & 1:
                if not cc.after_bit[s][l]:
                    raise ValueError(f"after({s}) holds slot {l}")
                p |= cc.after_bit[s][l]
    for rank, x in enumerate(state.atomic_order, start=1):
        if not cc.rank_shift[x]:
            raise ValueError(f"slot {x} in atomic order is not atomic")
        p |= rank << cc.rank_shift[x]
    return p


def init_state(config: SystemConfig) -> MachineState:
    """Initial state: nothing issued, memory at its initial values,
    every register at 0."""
    cc = compile_config(config)
    return unpack(cc, cc.initial_state)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

class Guard(NamedTuple):
    """One guard of a transition rule.

    ``text`` says what must hold, with ``{x}``, ``{m}``, ``{f}`` and ``{s}``
    standing for the event's instruction, master, fence and witness store.
    ``holds(cc, p, x, m, f, s)`` decides it on packed state p.
    ``enumerated`` is True when ``iter_candidate_events`` proposes only
    events that satisfy it in reachable states, so ``successors`` need not
    evaluate it.
    """

    text: str
    holds: Callable[[CompiledConfig, int, int, int, int, int], object]
    enumerated: bool = True


def _is_kind(kind: InstrKind) -> Guard:
    return Guard(f"{{x}} is a {kind.value}", lambda cc, p, x, m, f, s: cc.kind[x] is kind)


def _issued(cc: CompiledConfig, p: int, x: int) -> int:
    return ((p & cc.access_mask) >> x) & 1


def _po_fence_ok(cc: CompiledConfig, p: int, x: int, m: int, f: int, s: int) -> bool:
    # If x is not ahead of f, every issued access ahead of f must already
    # be observed by the observing master.  Issue follows program order,
    # so once f is issued every access ahead of it is.
    if (cc.ahead_mask[f] >> x) & 1:
        return True
    need = cc.ahead_obs[f][m]
    return p & need == need


def _acq_preds_observed(cc: CompiledConfig, p: int, x: int, m: int, f: int, s: int) -> bool:
    # An acquire load blocks observation of everything behind it in its
    # issuer's program until the issuer has observed it.
    for a in cc.acq_pred_slots[x]:
        if not p & cc.obs_field[a]:
            return False
    return True


def _preds_visible(cc: CompiledConfig, p: int, x: int, m: int, f: int, s: int) -> bool:
    # Release: every program-order predecessor access must be visible to
    # the observer before the release store is.  Only its issuer observes
    # a load, so an earlier load need only be performed.
    for a in cc.pred_access_slots[x]:
        if not p & (cc.obs_field[a] if cc.is_load[a] else cc.obs_bit[a][m]):
            return False
    return True


def _rank(cc: CompiledConfig, p: int, x: int) -> int:
    """x's position in the atomic order, counting from 1; 0 if absent."""
    return (p >> cc.rank_shift[x]) & cc.rank_mask if cc.rank_shift[x] else 0


def _atomic_order_ok(cc: CompiledConfig, p: int, x: int, m: int, f: int, s: int) -> bool:
    # Sequential consistency: atomic stores become visible to every master
    # in first-observation order, with no skipping.
    rank = _rank(cc, p, x)
    for t in cc.rel_store_slots:
        r = _rank(cc, p, t)
        if r and (not rank or r < rank) and not p & cc.obs_bit[t][m]:
            return False
    return True


_ISSUE = (
    Guard("{x} is not yet issued", lambda cc, p, x, m, f, s: not (p >> x) & 1),
    Guard("{x} is next in its issuer's program",
          lambda cc, p, x, m, f, s: (
              1 + (p & cc.program_mask[cc.issuer_ix[x]]).bit_count() == cc.index_of[x]
          )),
)
_ISSUED = Guard("{x} is issued", lambda cc, p, x, m, f, s: _issued(cc, p, x))
_UNSEEN = Guard("{m} has not observed {x}", lambda cc, p, x, m, f, s: not p & cc.obs_bit[x][m])
_BY_OBSERVER = Guard("{m} issued {x}", lambda cc, p, x, m, f, s: cc.issuer_ix[x] == m)
_NO_FENCE = Guard(
    "the issuer of {x} has issued no fence",
    lambda cc, p, x, m, f, s: not p & cc.fence_mask_of_master[cc.issuer_ix[x]],
)
_FENCED = (
    Guard("{f} is an issued fence",
          lambda cc, p, x, m, f, s: f >= 0 and ((p & cc.fence_mask) >> f) & 1),
    Guard("{f} and {x} have the same issuer",
          lambda cc, p, x, m, f, s: cc.issuer_ix[f] == cc.issuer_ix[x]),
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
    lambda cc, p, x, m, f, s: (
        cc.kind[s] in STORE_KINDS if s >= 0 else not cc.stores_to_addr[cc.addr_ix[x]]
    ),
)
_WITNESS_ADDRESS = Guard("{s} stores to the address of {x}",
                         lambda cc, p, x, m, f, s: s < 0 or cc.addr_ix[s] == cc.addr_ix[x])
_BEFORE_WITNESS = (
    _WITNESS_STORE,
    _WITNESS_ADDRESS,
    Guard("{m} has not observed {s}", lambda cc, p, x, m, f, s: s < 0 or not p & cc.obs_bit[s][m]),
)
_AFTER_WITNESS = (
    Guard("{s} is issued", lambda cc, p, x, m, f, s: s >= 0 and _issued(cc, p, s)),
    _WITNESS_STORE,
    _WITNESS_ADDRESS,
    Guard("{m} has observed {s}", lambda cc, p, x, m, f, s: p & cc.obs_bit[s][m]),
)
_NO_LOAD_AFTER = Guard("no load is observed after {s} yet",
                       lambda cc, p, x, m, f, s: s < 0 or not p & cc.after_field[s],
                       enumerated=False)

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


def _first_failing(cc: CompiledConfig, p: int, ev: InternalEvent) -> int:
    """Position of the first failing guard of ev's rule, 0 if all hold."""
    code, x, m, f, s = ev
    if not 0 <= code < len(RULES):
        raise ValueError(f"unknown event code {code}")
    for n, guard in enumerate(RULES[code], start=1):
        if not guard.holds(cc, p, x, m, f, s):
            return n
    return 0


def check_guards(cc: CompiledConfig, p: int, ev: InternalEvent) -> str | None:
    """Return the id of the first failing guard in packed state p, or None
    if the event is enabled."""
    n = _first_failing(cc, p, ev)
    return f"grd{n}" if n else None


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def apply_event(cc: CompiledConfig, p: int, ev: InternalEvent) -> int:
    """Successor of packed state p for an enabled event (guards are not
    re-checked)."""
    code, x, m, f, s = ev
    if code in ISSUE_CODES:
        return p | (1 << x)
    clear, set_, src, dst = cc.observe[x][m]
    q = (p & clear) | set_
    if dst:
        # Load observations: the register takes the last observed value.
        q |= ((p >> src) & cc.value_mask) << dst
    if code == OBS_LOAD_AS_WF or code == OBS_LOAD_AS_WOF:
        if s >= 0:
            q |= cc.after_bit[s][x]
    elif cc.rank_shift[x] and not p & cc.obs_field[x]:
        # First observation of an atomic access: append it to the order.
        rank = 1
        for field in cc.atomic_fields:
            if p & field:
                rank += 1
        q |= rank << cc.rank_shift[x]
    return q


# ---------------------------------------------------------------------------
# Event enumeration
# ---------------------------------------------------------------------------

def iter_candidate_events(cc: CompiledConfig, p: int) -> Iterator[InternalEvent]:
    """All plausibly-enabled event instances in packed state p; callers
    must still check guards.  Complete: every enabled event instance is
    produced."""
    # Issues: at most one per master per state, the lowest unissued slot.
    for prog in cc.program_mask:
        rest = prog & ~p
        if rest:
            x = (rest & -rest).bit_length() - 1
            yield (cc.issue_code[x], x, -1, -1, -1)

    n_masters = cc.n_masters
    all_m = cc.all_masters_mask
    obs_shift = cc.obs_shift

    for s in cc.plain_store_slots:
        if not (p >> s) & 1:
            continue
        observers = (p >> obs_shift[s]) & all_m
        if observers == all_m:
            continue
        issued_fences = [f for f in cc.fences_of_master[cc.issuer_ix[s]] if (p >> f) & 1]
        for m in range(n_masters):
            if (observers >> m) & 1:
                continue
            if issued_fences:
                for f in issued_fences:
                    yield (OBS_STORE_WF, s, m, f, -1)
            else:
                yield (OBS_STORE_WOF, s, m, -1, -1)

    for s in cc.rel_store_slots:
        if not (p >> s) & 1:
            continue
        observers = (p >> obs_shift[s]) & all_m
        if observers == all_m:
            continue
        for m in range(n_masters):
            if not (observers >> m) & 1:
                yield (OBS_SC_REL_STORE, s, m, -1, -1)

    for l in cc.plain_load_slots:
        if not (p >> l) & 1 or p & cc.obs_field[l]:
            continue
        m = cc.issuer_ix[l]
        witnesses = cc.witnesses[l]
        issued_fences = [f for f in cc.fences_of_master[m] if (p >> f) & 1]
        if issued_fences:
            for f in issued_fences:
                if witnesses:
                    for s in witnesses:
                        if (p >> (obs_shift[s] + m)) & 1:
                            yield (OBS_LOAD_AS_WF, l, m, f, s)
                        else:
                            yield (OBS_LOAD_HB_WF, l, m, f, s)
                else:
                    yield (OBS_LOAD_HB_WF, l, m, f, -1)
        else:
            if witnesses:
                for s in witnesses:
                    if (p >> (obs_shift[s] + m)) & 1:
                        yield (OBS_LOAD_AS_WOF, l, m, -1, s)
                    else:
                        yield (OBS_LOAD_WOF, l, m, -1, s)
            else:
                yield (OBS_LOAD_WOF, l, m, -1, -1)

    for l in cc.acq_load_slots:
        if (p >> l) & 1 and not p & cc.obs_field[l]:
            yield (OBS_SC_ACQ_LOAD, l, cc.issuer_ix[l], -1, -1)


def successors(cc: CompiledConfig, p: int) -> list[tuple[InternalEvent, int]]:
    """Enabled events of packed state p with their packed successors, in a
    deterministic order."""
    unenumerated = _UNENUMERATED
    out = []
    for ev in iter_candidate_events(cc, p):
        code, x, m, f, s = ev
        for holds in unenumerated[code]:
            if not holds(cc, p, x, m, f, s):
                break
        else:
            out.append((ev, apply_event(cc, p, ev)))
    return out


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
    return {to_descriptor(cc, ev) for ev, _ in successors(cc, pack(cc, state))}


def step(cc: CompiledConfig, p: int, ev: EventDescriptor) -> int:
    """Successor of packed state p for ``ev``; raises GuardFailed quoting
    the first violated guard, filled with the event's ids, if it is not
    enabled."""
    internal = to_internal(cc, ev)
    n = _first_failing(cc, p, internal)
    if n:
        code, x, m, f, s = internal
        text = RULES[code][n - 1].text.format(
            x=cc.instrs[x].id,
            m=cc.masters[m] if m >= 0 else "none",
            f=cc.instrs[f].id if f >= 0 else "none",
            s=cc.instrs[s].id if s >= 0 else "none",
        )
        raise GuardFailed(ev.name, f"grd{n}", f"{text} (params {ev.params()})")
    return apply_event(cc, p, internal)


def fire(state: MachineState, config: SystemConfig, ev: EventDescriptor) -> MachineState:
    """Successor state for ``ev``; raises GuardFailed naming the first
    violated guard if the event is not enabled."""
    cc = compile_config(config)
    return unpack(cc, step(cc, pack(cc, state), ev))


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
