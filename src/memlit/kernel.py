"""Guarded-transition semantics of the weak-memory machine.

The machine state is a packed int, one per state, laid out by
``CompiledConfig`` (see ``model``); every search and replay runs on it.
``MachineState`` is only the view of one that ``explorer.replay``
returns, built by ``unpack``.
Every event is a (name, parameter binding) pair; guards gate enabledness
and actions build the successor.  Masks are over instruction slots /
master indices of the compiled configuration.

The thirteen transition rules are named in ``EVENT_NAMES``; their
parameters and guards are declared once, as data, in ``PARAMS`` and
``RULES``, and the event table and the event descriptors read them from
there.  The five Issue rules issue the next instruction of a master in
program order.  The Observe rules make an access visible to a master m: a
store sets m's last-observed value for its address, and a load, observed
by its issuer, copies that value into its register.  A plain load names
a witness store s to its address and is observed before s or, once m has
observed s, after it (joining after(s)).  The WithFence rules apply once
the access's issuer has issued a fence f, the WithoutFence rules before
that.  Loads of addresses nothing stores to are observed through the
before-store rules with the witness omitted.

For one event instance each guard compiles to state masks (see
``Guard``).  A table of every instance that some state of a configuration
may enable is built on first use and kept on the ``CompiledConfig``.  It
ranges each rule's bound parameters over their types and compiles every
instance's guards in rule order into a row: the conjunction of their
masks, the event tuple and the successor's action.  Static guards (kind,
issuer, witness address) rule instances out as it is built.  The atomic
order is the only guard no mask expresses: ``successors`` and ``step``
read it from the state in Python.  Guard texts are messages only:
``step`` quotes the first that fails.  The search runs on
``search_layer``, a function generated from the table that expands a
whole BFS layer with each row inlined in integers, the atomic order and
the rank an atomic access takes included, so no edge calls a function of
the package.  It tests the rows as a decision tree that keeps their
order: rows that share mask bits are wrapped in one test of them, and
rows that exclude each other are chained with elif/else.  The tree fires
exactly the rows whose own masks hold, on every int.  Its tests nest at
most four deep and its chains hold at most ``_CHAIN`` tests, whatever the
program's length, so CPython compiles it.
``successors`` lists one state's edges, for traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

# The benchmark's tracer (``bench/tracing.py``) wraps ``kernel.compile_config``
# by name; nothing in this module calls it.
from .model import STORE_KINDS, CompiledConfig, InstrKind, compile_config  # noqa: F401

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

ISSUE_CODES = frozenset(
    {ISSUE_STORE, ISSUE_LOAD, ISSUE_FENCE, ISSUE_SC_REL_STORE, ISSUE_SC_ACQ_LOAD}
)


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
    """Machine variables: the view of a packed state that ``replay``
    returns.

    issued/observed/issuedfence are instruction-slot masks, observers and
    after map instruction slots to master/load masks, lov and rf are value
    grids indexed [master][address] / [master][register], cursor holds the
    next 1-based program position per master, and atomic_order lists
    atomic accesses in first-observation order.  issued, issuedfence,
    observed and cursor are derived from the other fields.
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


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

# A compiled guard: it holds on packed state p iff
# ``p & need == need and not p & forbid``.
Masks = tuple[int, int]
_FREE: Masks = (0, 0)


class Guard(NamedTuple):
    """One guard of a transition rule.

    ``text`` says what must hold, with ``{x}``, ``{m}``, ``{f}`` and ``{s}``
    standing for the event's instruction, master, fence and witness store;
    a text names only parameters its rule binds (see ``PARAMS``).
    ``mask(cc, x, m, f, s)`` compiles the guard for one event instance: None
    if it can never hold, else its (need, forbid) masks.  A rule's guards
    are compiled and checked in order, stopping at the first that fails, so
    a mask may assume every earlier guard of its rule holds.  A static guard
    (kind, issuer, witness address) compiles to None or ``(0, 0)``.  The
    masks are exact on reachable states.  The one guard no mask expresses,
    the atomic order, has none.  ``read(cc, p, x, m, f, s)`` evaluates it on
    a state, for ``successors`` and ``step``, and ``source(cc, x, m, f, s)``
    writes it for the generated layer as tests over ``p`` in integers, which
    hold on exactly the ints where ``read`` does.
    """

    text: str
    mask: Callable[[CompiledConfig, int, int, int, int], Masks | None] | None
    read: Callable[[CompiledConfig, int, int, int, int, int], bool] | None = None
    source: Callable[[CompiledConfig, int, int, int, int], tuple[str, ...]] | None = None


def _static(text: str, pred: Callable[[CompiledConfig, int, int, int, int], bool]) -> Guard:
    return Guard(text, lambda cc, x, m, f, s: _FREE if pred(cc, x, m, f, s) else None)


def _is_kind(kind: InstrKind) -> Guard:
    return _static(f"{{x}} is a {kind.value}", lambda cc, x, m, f, s: cc.kind[x] is kind)


def _issued(cc: CompiledConfig, x: int) -> Masks | None:
    # Only accesses count as issued; a fence has its own guard.
    return (1 << x, 0) if x >= 0 and cc.kind[x] is not InstrKind.FENCE else None


def _next_in_program(cc: CompiledConfig, x: int, m: int, f: int, s: int) -> Masks:
    # Masters issue in program order, so a master's issued slots are a
    # prefix of its program: x is next once every slot before it is issued
    # and x is not.
    return cc.program_mask[cc.issuer_ix[x]] & ((1 << x) - 1), 1 << x


def accesses_before(cc: CompiledConfig, x: int) -> int:
    """The slot mask of the accesses before x in its issuer's program; for
    a fence these are the accesses ahead of it.  Static: masters issue in
    program order, and positions never move."""
    return cc.program_mask[cc.issuer_ix[x]] & cc.access_mask & ((1 << x) - 1)


def _slots(mask: int) -> list[int]:
    return [a for a in range(mask.bit_length()) if mask >> a & 1]


def _po_fence(cc: CompiledConfig, x: int, m: int, f: int, s: int) -> Masks:
    # If x is not ahead of f, every issued access ahead of f must already
    # be observed by the observing master.  Issue follows program order,
    # so once f is issued every access ahead of it is.
    ahead = accesses_before(cc, f)
    return _FREE if ahead >> x & 1 else (sum([cc.obs_bit[a][m] for a in _slots(ahead)]), 0)


def _acq_preds_observed(cc: CompiledConfig, x: int, m: int, f: int, s: int) -> Masks:
    # An acquire load blocks observation of everything behind it in its
    # issuer's program until the issuer, its only observer, has observed it.
    i = cc.issuer_ix[x]
    return sum([
        cc.obs_bit[a][i] for a in _slots(accesses_before(cc, x))
        if cc.kind[a] is InstrKind.SC_ACQ_LOAD
    ]), 0


def _preds_visible(cc: CompiledConfig, x: int, m: int, f: int, s: int) -> Masks:
    # Release: every program-order predecessor access must be visible to
    # the observer before the release store is.  Only its issuer observes
    # a load, so an earlier load need only be performed.
    i = cc.issuer_ix[x]
    return sum([
        cc.obs_bit[a][i if cc.is_load[a] else m] for a in _slots(accesses_before(cc, x))
    ]), 0


def _rank(cc: CompiledConfig, p: int, x: int) -> int:
    """x's position in the atomic order, counting from 1; 0 if absent."""
    return (p >> cc.rank_shift[x]) & cc.rank_mask if cc.rank_shift[x] else 0


# Sequential consistency: atomic stores become visible to every master in
# first-observation order, with no skipping.  The guard ranges over the
# release stores t of the other masters only, which is exact on reachable
# states.  A release store t ahead of x on x's master is an access before x,
# so the guard before this one already needs m to have observed t.  One
# behind x was first observed only once x was visible to its observer, so x
# was ranked first, and rank(x) < rank(t) wherever t is ranked.

def _other_rel_stores(cc: CompiledConfig, x: int) -> list[int]:
    return [t for t in cc.rel_store_slots if cc.issuer_ix[t] != cc.issuer_ix[x]]


def _atomic_order_ok(cc: CompiledConfig, p: int, x: int, m: int, f: int, s: int) -> bool:
    rank = _rank(cc, p, x)
    for t in _other_rel_stores(cc, x):
        r = _rank(cc, p, t)
        if r and (not rank or r < rank) and not p & cc.obs_bit[t][m]:
            return False
    return True


def _atomic_order_source(cc: CompiledConfig, x: int, m: int, f: int, s: int) -> tuple[str, ...]:
    # Per t: m has observed t, or t is unranked, or x is ranked no later
    # than t.  Two fields of an arbitrary int may hold the same rank, and
    # ``_atomic_order_ok`` fails only on rank(t) < rank(x), hence <=.  Bits
    # are read by shift, so each test's size does not grow with the state.
    rm, rs = cc.rank_mask, cc.rank_shift
    return tuple([
        f"(p >> {cc.obs_shift[t] + m} & 1 or not p >> {rs[t]} & {rm:#x}"
        f" or 0 < p >> {rs[x]} & {rm:#x} <= p >> {rs[t]} & {rm:#x})"
        for t in _other_rel_stores(cc, x)
    ])


_ISSUE = (
    Guard("{x} is not yet issued", lambda cc, x, m, f, s: (0, 1 << x)),
    Guard("{x} is next in its issuer's program", _next_in_program),
)
_ISSUED = Guard("{x} is issued", lambda cc, x, m, f, s: _issued(cc, x))
_UNSEEN = Guard("{m} has not observed {x}", lambda cc, x, m, f, s: (0, cc.obs_bit[x][m]))
_BY_OBSERVER = _static("{m} issued {x}", lambda cc, x, m, f, s: cc.issuer_ix[x] == m)
_NO_FENCE = Guard(
    "the issuer of {x} has issued no fence",
    lambda cc, x, m, f, s: (0, cc.program_mask[cc.issuer_ix[x]] & cc.fence_mask),
)
_FENCED = (
    Guard("{f} is an issued fence",
          lambda cc, x, m, f, s: (1 << f, 0) if f >= 0 and cc.kind[f] is InstrKind.FENCE else None),
    _static("{f} and {x} have the same issuer",
            lambda cc, x, m, f, s: cc.issuer_ix[f] == cc.issuer_ix[x]),
    Guard("{x} is ahead of {f}, or {m} has observed every issued access ahead of {f}", _po_fence),
)
_ACQ_PREDS = Guard("every acquire load before {x} is performed", _acq_preds_observed)
_LOAD = (_ISSUED, _is_kind(InstrKind.LOAD), _UNSEEN, _BY_OBSERVER)

# The witness store of a load observation.  Before-store observations may
# omit it (s = -1) only when nothing stores to the load's address.
_WITNESS_STORE = _static(
    "{s} is a store, or is absent and nothing stores to the address of {x}",
    lambda cc, x, m, f, s: (
        cc.kind[s] in STORE_KINDS if s >= 0 else not cc.stores_to_addr[cc.addr_ix[x]]
    ),
)
_WITNESS_ADDRESS = _static("{s} stores to the address of {x}",
                           lambda cc, x, m, f, s: s < 0 or cc.addr_ix[s] == cc.addr_ix[x])
_BEFORE_WITNESS = (
    _WITNESS_STORE,
    _WITNESS_ADDRESS,
    Guard("{m} has not observed {s}",
          lambda cc, x, m, f, s: (0, cc.obs_bit[s][m] if s >= 0 else 0)),
)
_AFTER_WITNESS = (
    Guard("{s} is issued", lambda cc, x, m, f, s: _issued(cc, s)),
    _WITNESS_STORE,
    _WITNESS_ADDRESS,
    Guard("{m} has observed {s}", lambda cc, x, m, f, s: (cc.obs_bit[s][m], 0)),
)
_NO_LOAD_AFTER = Guard("no load is observed after {s} yet",
                       lambda cc, x, m, f, s: (0, cc.after_field[s] if s >= 0 else 0))

# The parameters of every transition rule, indexed by event code, as an
# Event-B event's ANY clause declares them: the event descriptor's field
# that names the instruction x, the parameters the rule binds among m, f
# and s, and those of them that may be absent (-1).  Only a before-store
# load observation may leave s absent, for a load nothing can feed.
PARAMS: tuple[tuple[str, str, str], ...] = (
    # IssueStore, IssueLoad, IssueFence, IssueScRelStore, IssueScAcqLoad
    ("s", "", ""), ("l", "", ""), ("f", "", ""), ("s", "", ""), ("l", "", ""),
    # ObserveStoreWithFence, ObserveStoreWithoutFence
    ("s", "mf", ""), ("s", "m", ""),
    # ObserveLoadHappensBeforeWithFence, ObserveLoadAfterStoreWithFence
    ("l", "mfs", "s"), ("l", "mfs", ""),
    # ObserveLoadWithoutFence, ObserveLoadAfterStoreWithoutFence
    ("l", "ms", "s"), ("l", "ms", ""),
    # ObserveScRelStore, ObserveScAcqLoad
    ("s", "m", ""), ("l", "m", ""),
)

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
        Guard("every access before {x} is visible to {m}", _preds_visible),
        Guard("{m} has observed every atomic store ordered before {x}", None,
              _atomic_order_ok, _atomic_order_source),
    ),
    # ObserveScAcqLoad
    (_ISSUED, _is_kind(InstrKind.SC_ACQ_LOAD), _UNSEEN, _BY_OBSERVER, _ACQ_PREDS),
)


def _first_failing(cc: CompiledConfig, p: int, ev: InternalEvent) -> int:
    """Position of the first failing guard of ev's rule, 0 if all hold."""
    code, x, m, f, s = ev
    if not 0 <= code < len(RULES):
        raise ValueError(f"unknown event code {code}")
    for n, guard in enumerate(RULES[code], start=1):
        if guard.mask is None:
            if not guard.read(cc, p, x, m, f, s):
                return n
            continue
        masks = guard.mask(cc, x, m, f, s)
        if masks is None or p & masks[0] != masks[0] or p & masks[1]:
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

def _effect(cc: CompiledConfig, ev: InternalEvent) -> tuple[int, int, int, int, int]:
    """The action of ev as (clear, set, src, dst, rank shift): p becomes
    ``(p & clear) | set``; a load then copies the value field at src to
    the register field at dst (dst 0: no copy); and a first observation of
    an atomic access writes its rank at the rank shift (0: no rank)."""
    code, x, m, f, s = ev
    if code in ISSUE_CODES:
        return -1, 1 << x, 0, 0, 0
    # Observing x by m sets m's observer bit of x; a store also writes its
    # value into m's lov field for its address, and a load copies that
    # field into its register.
    a, r, v, set_ = cc.addr_ix[x], cc.reg_ix[x], cc.value_of[x], cc.obs_bit[x][m]
    clear, src, dst = -1, 0, 0
    if v >= 0:
        lov = cc.lov_shift[m][a]
        clear, set_ = ~(cc.value_mask << lov), set_ | cc.value_index[v] << lov
    elif r >= 0:
        src, dst = cc.lov_shift[m][a], cc.reg_shift[m][r]
        clear = ~(cc.value_mask << dst)
    if code == OBS_LOAD_AS_WF or code == OBS_LOAD_AS_WOF:
        return clear, (set_ | cc.after_bit[s][x]) if s >= 0 else set_, src, dst, 0
    return clear, set_, src, dst, cc.rank_shift[x]


def _next_rank(cc: CompiledConfig, p: int) -> int:
    """The rank of the next atomic access to be first observed."""
    return 1 + sum([1 for field in cc.atomic_fields if p & field])


def apply_event(cc: CompiledConfig, p: int, ev: InternalEvent) -> int:
    """Successor of packed state p for an enabled event (guards are not
    re-checked)."""
    clear, set_, src, dst, shift = _effect(cc, ev)
    q = (p & clear) | set_
    if dst:
        q |= ((p >> src) & cc.value_mask) << dst
    if shift and not p & cc.obs_field[ev[1]]:
        q |= _next_rank(cc, p) << shift
    return q


# ---------------------------------------------------------------------------
# The event-instance table
# ---------------------------------------------------------------------------

# The order in which the search lists enabled events, on which traces,
# finals order, tallies and every golden depend: issues by master, then
# observations of plain stores, release stores, plain loads and acquire
# loads.  Within a phase, instances run by x, m, f and s, each in slot or
# master order with -1 (absent) last, then by rule in the order given.  The
# rules of a phase all bind m, or none does.
_PHASES = (
    tuple(sorted(ISSUE_CODES)),
    (OBS_STORE_WF, OBS_STORE_WOF),
    (OBS_SC_REL_STORE,),
    (OBS_LOAD_AS_WF, OBS_LOAD_HB_WF, OBS_LOAD_AS_WOF, OBS_LOAD_WOF),
    (OBS_SC_ACQ_LOAD,),
)


def _compile_row(cc: CompiledConfig, ev: InternalEvent) -> tuple | None:
    """ev's table row, (need, forbid, ev, clear, set, src, dst, atomic), or
    None if a guard can never hold.  ``atomic`` is None, or (rank shift,
    the guards read from the state) for an access whose first observation
    takes a rank or that has such a guard."""
    code, x, m, f, s = ev
    need = forbid = 0
    reads = ()
    for guard in RULES[code]:
        if guard.mask is None:
            reads += (guard,)
            continue
        masks = guard.mask(cc, x, m, f, s)
        if masks is None:
            return None
        need |= masks[0]
        forbid |= masks[1]
    if need & forbid:
        return None
    clear, set_, src, dst, shift = _effect(cc, ev)
    atomic = (shift, reads) if shift or reads else None
    return need, forbid, ev, clear, set_, src, dst, atomic


def _event_table(cc: CompiledConfig) -> tuple:
    """Every event instance of cc that some state may enable, in search
    order, as groups (need, forbid, rows) of the rows of one (x, m): a
    group's masks are those all its rows share, and each row keeps the
    rest of its own.  Each parameter a rule binds (``PARAMS``) ranges over
    its type: x over the slots, m over the masters, f over the fences and
    s over x's witness stores, each also absent (-1) where ``PARAMS``
    allows it; an unbound one is -1.  ``_compile_row`` alone rules
    instances out."""

    def admits(code: int, name: str, value: int) -> bool:
        _, bound, absent = PARAMS[code]
        return name in bound if value >= 0 else name in absent or name not in bound

    fences = (*cc.fence_slots, -1)
    table = []
    for phase in _PHASES:
        for x in range(cc.n_instr):
            bindings = [
                (code, f, s) for f in fences for s in (*cc.witnesses[x], -1) for code in phase
                if admits(code, "f", f) and admits(code, "s", s)
            ]
            for m in range(cc.n_masters) if "m" in PARAMS[phase[0]][1] else (-1,):
                rows = [
                    row for code, f, s in bindings
                    for row in [_compile_row(cc, (code, x, m, f, s))] if row
                ]
                if rows:
                    need = forbid = -1
                    for row in rows:
                        need &= row[0]
                        forbid &= row[1]
                    table.append((need, forbid, tuple([
                        (row[0] & ~need, row[1] & ~forbid, *row[2:]) for row in rows
                    ])))
    return tuple(table)


def successors(cc: CompiledConfig, p: int) -> list[tuple[InternalEvent, int]]:
    """Enabled events of packed state p with their packed successors, in
    search order.  Exact on reachable states.  Each event is the table's
    own tuple, shared by every state that enables it.  The search runs on
    ``search_layer``; traces re-expand parents with this."""
    cc.event_table = cc.event_table or _event_table(cc)
    return [
        (ev, apply_event(cc, p, ev))
        for group_need, group_forbid, rows in cc.event_table
        if p & group_need == group_need and not p & group_forbid
        for need, forbid, ev, *_, atomic in rows
        if p & need == need and not p & forbid
        and (atomic is None or all([guard.read(cc, p, *ev[1:]) for guard in atomic[1]]))
    ]


def iter_candidate_events(cc: CompiledConfig, p: int) -> Iterator[InternalEvent]:
    """The enabled event instances of packed state p, in search order: the
    events of ``successors``, with no second enumerator behind them.  The
    benchmark's tracer (``bench/tracing.py``) patches this name."""
    return (ev for ev, _ in successors(cc, p))


# ---------------------------------------------------------------------------
# The generated search layer
# ---------------------------------------------------------------------------

# A layer's source: {rows} holds the table's tests and edges, and _NEW the
# bookkeeping of an edge's successor q.  t<code> tallies the edges.
_LAYER = """\
def layer(frontier, parents, finals, triggers, stop, limit, exceeded, depth, tally, cc):
    {zero} = halt = 0
    out, final = [], finals.append
    append = out.append
    for p in frontier:
        e = 0
{rows}
        if not e:
            final(p)
{count}    return out, halt
"""
_NEW = """\
if q not in parents:
    parents[q] = p
    if len(parents) > limit:
        raise exceeded(limit, depth, len(frontier))
    if q & {lo:#x} == {lo:#x} and (k := ((q >> {rs}) & {rm:#x}) | ((q >> {sb}) << {rw})) not in triggers:
        triggers[k] = q
        if stop(k):
            halt = q
            break
    append(q)"""


# The most tests one if/elif chain of a layer holds; a longer run of
# exclusive nodes starts a new chain.  CPython's parser and compiler recurse
# once per elif: the compiler raises RecursionError past about three times
# the recursion limit (about 3,000 elifs at the default of 1,000), and the
# parser fails near 6,000.  A layer nests at most four chains, so no input
# comes near either limit.
_CHAIN = 100

# A node of a layer's decision tree: (need, forbid, reads, body) tests
# ``p & need == need and not p & forbid`` and the read guards, and its body
# is a list of nodes, or a leaf's edge as (tally line, other lines).
_Node = tuple[int, int, tuple[str, ...], "list | tuple[str, tuple[str, ...]]"]


def _factor(nodes: list[_Node]) -> list[_Node]:
    """Wrap each run of two or more consecutive nodes whose masks share a
    bit in one node that tests the bits they all share; its nodes drop
    them."""
    runs: list[list] = []
    for node in nodes:
        if runs and (runs[-1][0] & node[0] or runs[-1][1] & node[1]):
            runs[-1][0] &= node[0]
            runs[-1][1] &= node[1]
            runs[-1][2].append(node)
        else:
            runs.append([node[0], node[1], [node]])
    return [
        run[0] if len(run) == 1 else
        (need, forbid, (), [(n & ~need, f & ~forbid, *rest) for n, f, *rest in run])
        for need, forbid, run in runs
    ]


def _chains(nodes: list[_Node]) -> list[list]:
    """Split sibling nodes into if/elif/else chains of (test, body).  A node
    joins the open chain when its masks exclude those of every node in it
    (it needs a bit one of them forbids, or forbids one it needs), so it
    can hold only where they all fail.  Its test drops the bits that the
    failed single-bit tests before it imply; a node left with nothing to
    test is the chain's ``else`` and ends it.  An ``else`` whose nodes form
    one chain continues the chain with them, as ``elif``s.  No chain holds
    more than ``_CHAIN`` tests."""
    chains: list[list] = []
    masks: list[tuple[int, int]] = []
    known_need = known_forbid = 0
    for need, forbid, reads, body in nodes:
        if (not masks or len(chains[-1]) >= _CHAIN
                or not all(need & f or forbid & n for n, f in masks)):
            chains.append([])
            masks, known_need, known_forbid = [], 0, 0
        test = (need & ~known_need, forbid & ~known_forbid, reads)
        masks.append((need, forbid))
        if not reads and (test[0] | test[1]).bit_count() == 1:
            known_need, known_forbid = known_need | test[1], known_forbid | test[0]
        if test == (0, 0, ()):
            masks = []
            inner = _chains(body) if chains[-1] and isinstance(body, list) else ()
            if len(inner) == 1 and len(chains[-1]) + len(inner[0]) <= _CHAIN:
                chains[-1] += inner[0]
                continue
        chains[-1].append((test, body))
    return chains


def _emit(nodes: list[_Node], depth: int, lines: list[str]) -> None:
    """Append the source of sibling nodes, indented ``depth`` levels."""
    pad = "    " * depth
    for chain in _chains(nodes):
        leaves = [body for _, body in chain if isinstance(body, tuple)]
        # A chain of edges that ends in an else fires exactly one of them:
        # if they differ only in their tally, the rest is written once.
        shared = (len(leaves) == len(chain) > 1 and not any(chain[-1][0])
                  and len({rest for _, rest in leaves}) == 1)
        if shared:
            lines.append(pad + "e = 1")
        for k, ((need, forbid, reads), body) in enumerate(chain):
            tests = [f"p & {need:#x}" if need & need - 1 == 0 else f"p & {need:#x} == {need:#x}"]
            tests = tests * bool(need) + [f"not p & {forbid:#x}"] * bool(forbid) + list(reads)
            if tests:
                lines.append(pad + ("elif " if k else "if ") + " and ".join(tests) + ":")
            elif k:
                lines.append(pad + "else:")
            inner = depth + bool(tests or k)
            if isinstance(body, list):
                _emit(body, inner, lines)
            else:
                edge = (body[0],) if shared else ("e = 1", body[0], *body[1])
                lines += ["    " * inner + line for line in edge]
        if shared:
            lines += [pad + line for line in leaves[0][1]]


def layer_source(cc: CompiledConfig, cover: tuple[tuple[int, int], ...] = (),
                 only: bool = False) -> str:
    """The source of cc's ``layer``, written in cc's integers: no name or
    text of the configuration enters it, and no edge calls a function of
    the package.  Masks are written in hex, which Python converts at any
    width.  ``cover`` pairs event codes with bits above ``cc.state_bits``
    that their edges also set, and ``only`` drops the observations
    ``cover`` does not name.

    The table's rows are tested as a decision tree that keeps their order:
    runs of consecutive groups, then of a group's rows, that share mask bits
    are wrapped in one test of the bits they share (``_factor``), and
    siblings that exclude each other form if/elif/else chains
    (``_chains``).  Each row still fires exactly where its own flat test
    holds, on every int, so edges come in ``successors`` order.  Tests nest
    at most four deep: a run of groups, a group, a run of rows and a row;
    and no chain holds more than ``_CHAIN`` tests."""
    bits = dict(cover)
    new = _NEW.format(lo=cc.loads_observed, rs=cc.rf_shift, rm=cc.rf_mask,
                      sb=cc.state_bits, rw=cc.rf_mask.bit_length()).splitlines()

    # ``_next_rank``: the observer fields, from bit n_instr up, each ORed
    # down to its lowest bit; the atomic slots' bits left set are counted.
    fold = " | ".join([f"p >> {cc.n_instr + j}" for j in range(cc.n_masters)])
    lows = sum([1 << (cc.obs_shift[x] - cc.n_instr) for x, sh in enumerate(cc.rank_shift) if sh])
    next_rank = f"bit_count(({fold}) & {lows:#x}) + 1"

    def edge(code, x, m, f, s, clear, set_, src, dst, atomic) -> tuple[str, tuple[str, ...]]:
        q = "p" if clear == -1 else f"(p & {clear:#x})"
        lines = [f"q = {q} | {set_ | bits.get(code, 0):#x}"]
        if dst:
            lines.append(f"q |= ((p >> {src}) & {cc.value_mask:#x}) << {dst}")
        if atomic and atomic[0]:
            lines += [f"if not p >> {cc.obs_shift[x]} & {cc.all_masters_mask:#x}:",
                      f"    q |= ({next_rank}) << {atomic[0]}"]
        # An edge that observes no load and fires no mustCover event keeps its node's key.
        tail = new if set_ & cc.loads_observed or code in bits else new[:4] + new[-1:]
        return f"t{code} += 1", tuple(lines + tail)

    cc.event_table = cc.event_table or _event_table(cc)
    groups = []
    for group_need, group_forbid, group in cc.event_table:
        leaves = [
            (need, forbid,
             tuple([t for guard in atomic[1] for t in guard.source(cc, x, m, f, s)])
             if atomic else (),
             edge(code, x, m, f, s, *effect, atomic))
            for need, forbid, (code, x, m, f, s), *effect, atomic in group
            if not only or code in ISSUE_CODES or code in bits
        ]
        if leaves:
            groups.append((group_need, group_forbid, (), _factor(leaves)))
    rows: list[str] = []
    _emit(_factor(groups), 2, rows)
    codes = range(len(EVENT_NAMES))
    return _LAYER.format(zero=" = ".join([f"t{c}" for c in codes]), rows="\n".join(rows),
                         count="".join([f"    tally[{c}] += t{c}\n" for c in codes]))


def search_layer(cc: CompiledConfig, cover: tuple[tuple[int, int], ...] = (),
                 only: bool = False) -> Callable:
    """cc's ``layer``, compiled from ``layer_source`` on first use and kept
    on cc.  It expands a frontier's nodes, each edge in ``successors``
    order, and returns the new nodes and the node it stopped at, or 0."""
    layer = cc.search_layers.get((cover, only))
    if layer is None:
        namespace = {"__builtins__": {"len": len}, "bit_count": int.bit_count}
        exec(layer_source(cc, cover, only), namespace)
        # Popped, or the function and its namespace would form a cycle.
        layer = cc.search_layers[cover, only] = namespace.pop("layer")
    return layer


# ---------------------------------------------------------------------------
# Public descriptor-level API
# ---------------------------------------------------------------------------

def to_descriptor(cc: CompiledConfig, ev: InternalEvent) -> EventDescriptor:
    """The descriptor of ev: x under its rule's field, then the parameters
    the rule binds, each by id (an absent one is left out)."""
    code, x, m, f, s = ev
    field, binds, _ = PARAMS[code]

    def instr(y: int) -> str | None:
        return cc.instrs[y].id if y >= 0 else None

    ids = {"m": cc.masters[m] if m >= 0 else None, "f": instr(f), "s": instr(s), field: instr(x)}
    return EventDescriptor(EVENT_NAMES[code], **{p: ids[p] for p in field + binds})


def to_internal(cc: CompiledConfig, ev: EventDescriptor) -> InternalEvent:
    """The internal event ``ev`` names, read by ``PARAMS``; GuardFailed
    grd0 if it names no rule, an unknown id, or no x or m.  The issue of
    an access may name it by s, else l, and reads no other field.  An
    observation keeps each other instruction field it names, bound or
    not: no guard or action reads a field its rule does not bind."""

    def lookup(table: dict, key, detail: str) -> int:
        try:  # a JSON list or object is unhashable: it names nothing
            return table[key]
        except (KeyError, TypeError):
            raise GuardFailed(ev.name, "grd0", detail) from None

    def slot(i) -> int:
        return -1 if i is None else lookup(cc.slot_of, i, f"unknown instruction {i!r}")

    code = lookup(EVENT_CODE, ev.name, "unknown event name")
    field, binds, _ = PARAMS[code]
    if not binds:
        target = ev.f if field == "f" else ev.l if ev.s is None else ev.s
        if target is None:
            raise GuardFailed(ev.name, "grd0", "missing instruction parameter")
        return code, slot(target), -1, -1, -1
    target = getattr(ev, field)
    if target is None:
        what = "store" if field == "s" else "load"
        raise GuardFailed(ev.name, "grd0", f"missing {what} parameter")
    x = slot(target)
    if ev.m is None:
        raise GuardFailed(ev.name, "grd0", "missing master parameter")
    m = lookup(cc.master_index, ev.m, f"unknown master {ev.m!r}")
    return code, x, m, slot(ev.f), -1 if field == "s" else slot(ev.s)


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
