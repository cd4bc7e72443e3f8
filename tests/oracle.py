"""Independent oracles the test suite checks the explorer against, and the
``MachineState`` toolkit the tests drive the kernel with.

Nothing here touches the explorer's deduplication, its BFS frontier or the
coverage module: final/trigger register sets are recomputed by depth-first
recursion, load values by a per-master fold over raw event sequences, the
sequentially consistent outcomes by an interpreter without the kernel,
program order, coherence and happens-before by a checker over raw traces, and
membership of a fuzz program class by its definition rather than its sampler,
litmus tokens by the character loop the tokenizer replaced, the search by the
loop over ``successors`` edges that the generated layers replaced, and a
layer's decision tree by the event table's rows tested one at a time.

The package's machine state is the packed int; ``MachineState`` is only the
view ``replay`` returns.  The toolkit converts at that boundary: ``pack``
inverts ``kernel.unpack``, ``init_state``, ``enabled_events``, ``fire`` and
``replay_states`` run the packed kernel on views, and
``check_state_invariants`` checks a view's structural invariants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from memlit import kernel
from memlit.explorer import (
    ExplorationResult,
    ReplayError,
    StateLimitExceeded,
    Trace,
    _gc_paused,
    _Space,
)
from memlit.kernel import (
    EventDescriptor,
    GuardFailed,
    InstrKind,
    MachineState,
    apply_event,
    register_file,
    registers,
    successors,
    to_descriptor,
    to_internal,
    unpack,
)
from memlit.litmus import ParseError
from memlit.model import LOAD_KINDS, STORE_KINDS, CompiledConfig, SystemConfig, compile_config
from memlit.testgen import ProgramClass


# ---------------------------------------------------------------------------
# The MachineState toolkit
# ---------------------------------------------------------------------------

def mask_to_masters(cc: CompiledConfig, mask: int) -> frozenset[str]:
    return frozenset(m for i, m in enumerate(cc.masters) if (mask >> i) & 1)


def mask_to_instr_ids(cc: CompiledConfig, mask: int) -> frozenset[str]:
    return frozenset(ins.id for i, ins in enumerate(cc.instrs) if (mask >> i) & 1)


def pack(cc: CompiledConfig, state: MachineState) -> int:
    """Packed form of a state; the inverse of ``unpack`` on every state
    the kernel reaches.  The derived fields issued, issuedfence, observed
    and cursor are ignored.  Raises ValueError for a state the layout cannot
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


def enabled_events(state: MachineState, config: SystemConfig) -> set[EventDescriptor]:
    """The event instances whose guards hold in ``state``: exact on every
    reachable state, since the guards' masks lean on invariants that only
    reachable states are sure to keep."""
    cc = compile_config(config)
    return {to_descriptor(cc, ev) for ev, _ in successors(cc, pack(cc, state))}


def fire(state: MachineState, config: SystemConfig, ev: EventDescriptor) -> MachineState:
    """Successor state for ``ev``; raises GuardFailed naming the first
    violated guard if the event is not enabled."""
    cc = compile_config(config)
    return unpack(cc, kernel.step(cc, pack(cc, state), ev))


def replay_states(config: SystemConfig, trace: Trace) -> list[MachineState]:
    """All intermediate states of ``replay`` (len(trace)+1 entries).  A step
    that names no event instance, or whose guard fails, raises ReplayError."""
    cc = compile_config(config)
    p = cc.initial_state
    states = [unpack(cc, p)]
    for i, ev in enumerate(trace):
        try:
            p = kernel.step(cc, p, ev)
        except GuardFailed as e:
            raise ReplayError(i, e) from None
        states.append(unpack(cc, p))
    return states


@dataclass(frozen=True)
class Violation:
    invariant: str
    message: str


def check_state_invariants(state: MachineState, config: SystemConfig) -> list[Violation]:
    """Structural invariants of a machine state; empty list iff all hold."""
    cc = compile_config(config)
    out: list[Violation] = []

    def bad(inv: str, msg: str) -> None:
        out.append(Violation(inv, msg))

    if state.issued & ~cc.access_mask:
        bad("inv1", f"issued contains non-accesses: {mask_to_instr_ids(cc, state.issued & ~cc.access_mask)}")
    if state.observed & ~state.issued:
        bad("inv2", f"observed not within issued: {mask_to_instr_ids(cc, state.observed & ~state.issued)}")
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
                    f"({sorted(mask_to_masters(cc, obs))})",
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
            should = index_of(cc, x) < state.cursor[mi]
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


# ---------------------------------------------------------------------------
# Exploration oracles
# ---------------------------------------------------------------------------

def enumerate_paths(config: SystemConfig, max_paths: int = 2_000_000):
    """Every maximal event path, with no deduplication of any kind.

    Exponential in the interleaving count: only for tiny configurations.
    Returns (final register tuples, path count).
    """
    cc = compile_config(config)
    finals: set = set()
    count = 0

    def walk(state: int) -> None:
        nonlocal count
        succ = successors(cc, state)
        if not succ:
            finals.add(unpack(cc, state).rf)
            count += 1
            if count > max_paths:
                raise RuntimeError("path explosion; config too large for path enumeration")
            return
        for _, nxt in succ:
            walk(nxt)

    walk(pack(cc, init_state(config)))
    return finals, count


def dfs_register_sets(config: SystemConfig):
    """Final and trigger register sets by memoised depth-first search.

    A trigger state observes every load.  Memoisation is on packed machine
    states (structural equality); traversal order, bookkeeping and trigger
    detection are all disjoint from the breadth-first explorer, whose
    ``cc.loads_observed`` mask this oracle does not read.  Every state
    visited, unpacked, must pass ``check_state_invariants``, which also
    catches pack/unpack slips.
    """
    cc = compile_config(config)
    load_mask = sum(1 << cc.slot(i.id) for i in config.instructions() if i.is_load())

    finals: set = set()
    triggers: set = set()
    seen: set[int] = set()
    stack = [pack(cc, init_state(config))]
    while stack:
        packed = stack.pop()
        if packed in seen:
            continue
        seen.add(packed)
        state = unpack(cc, packed)
        violations = check_state_invariants(state, config)
        if violations:
            raise AssertionError(f"{state} breaks {violations}")
        if (state.observed & load_mask) == load_mask:
            triggers.add(state.rf)
        succ = successors(cc, packed)
        if not succ:
            finals.add(state.rf)
            continue
        for _, nxt in succ:
            if nxt not in seen:
                stack.append(nxt)
    return finals, triggers, len(seen)


def sc_register_files(config: SystemConfig) -> set:
    """Final register files of every sequentially consistent interleaving.

    One shared memory; each step runs a master's next instruction whole,
    and fences and atomics act as plain accesses.  The files have the
    explorer's shape: a row per master, over the sorted register names.
    """
    addrs = sorted(config.addresses)
    regs = sorted(config.registers)
    initial = dict(config.initial_memory)
    memory = tuple(initial[a] for a in addrs)
    files = tuple((0,) * len(regs) for _ in config.masters)
    finals: set = set()
    seen: set = set()
    stack = [((0,) * len(config.masters), memory, files)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        pcs, memory, files = node
        done = True
        for mi, prog in enumerate(config.programs):
            if pcs[mi] == len(prog):
                continue
            done = False
            ins = prog[pcs[mi]]
            nxt_pcs = pcs[:mi] + (pcs[mi] + 1,) + pcs[mi + 1 :]
            nxt_memory, nxt_files = memory, files
            if ins.kind in STORE_KINDS:
                a = addrs.index(ins.address)
                nxt_memory = memory[:a] + (ins.value,) + memory[a + 1 :]
            elif ins.is_load():
                r = regs.index(ins.register)
                row = files[mi][:r] + (memory[addrs.index(ins.address)],) + files[mi][r + 1 :]
                nxt_files = files[:mi] + (row,) + files[mi + 1 :]
            stack.append((nxt_pcs, nxt_memory, nxt_files))
        if done:
            finals.add(files)
    return finals


def fold_lov(config: SystemConfig, events) -> list[tuple[int, int, int]]:
    """Per-master last-observed-value fold over an internal event list.

    Recomputes what every load must return, independently of the kernel's
    lov bookkeeping: the value of the last store this master observed for
    the address, or the initial value.  Returns a (step, load slot, value)
    entry per load observation.
    """
    cc = compile_config(config)
    last: dict[tuple[int, int], int] = {}
    load_values: list[tuple[int, int, int]] = []  # (step, load slot, value)
    for step, ev in enumerate(events):
        code, x, m, _f, _s = ev
        if code in kernel.ISSUE_CODES:
            continue
        if cc.kind[x] in (InstrKind.STORE, InstrKind.SC_REL_STORE):
            last[(m, cc.addr_ix[x])] = cc.value_of[x]
        else:
            v = last.get((m, cc.addr_ix[x]), cc.initial_lov[m][cc.addr_ix[x]])
            load_values.append((step, x, v))
    return load_values


# Seeded random_config(max_per_master=2) samples the oracle checks cover.
SAMPLED_SEEDS = 120


def random_config(rng: random.Random, max_per_master: int = 3) -> SystemConfig:
    """A small random configuration over two addresses and two registers."""
    from memlit.model import Instruction

    n_masters = rng.randint(1, 3)
    masters = [f"M{i+1}" for i in range(n_masters)]
    addresses = ["a1", "a2"]
    registers = ["R1", "R2"]
    values = [1, 2]
    kinds = [
        InstrKind.STORE,
        InstrKind.LOAD,
        InstrKind.SC_REL_STORE,
        InstrKind.SC_ACQ_LOAD,
        InstrKind.FENCE,
    ]
    programs: dict[str, list[Instruction]] = {}
    for mi, m in enumerate(masters):
        prog = []
        for ix in range(1, rng.randint(0, max_per_master) + 1):
            kind = rng.choice(kinds)
            iid = f"I{mi+1}{ix}"
            if kind is InstrKind.FENCE:
                prog.append(Instruction(id=iid, kind=kind, issuer=m, index=ix))
            elif kind in (InstrKind.STORE, InstrKind.SC_REL_STORE):
                prog.append(
                    Instruction(
                        id=iid, kind=kind, issuer=m, index=ix,
                        address=rng.choice(addresses), value=rng.choice(values),
                    )
                )
            else:
                prog.append(
                    Instruction(
                        id=iid, kind=kind, issuer=m, index=ix,
                        address=rng.choice(addresses), register=rng.choice(registers),
                    )
                )
        programs[m] = prog
    return SystemConfig.build(
        masters, programs, initial_memory={a: 0 for a in addresses}
    )


def in_class(cls: ProgramClass, config: SystemConfig) -> bool:
    """Structural membership of a configuration in a program class.

    The masters, domains and instruction kinds are the seed's, every
    program is at most ``max_len`` long, and under fence-after-first-load
    the first load of each program is directly followed by a fence, which
    the policy admits even when the seed has none.
    """
    seed = cls.seed
    kinds = {ins.kind for ins in seed.instructions()}
    if cls.sync_policy == "fence-after-first-load":
        kinds.add(InstrKind.FENCE)
    if config.masters != seed.masters:
        return False
    if not (
        config.addresses <= seed.addresses
        and config.values <= seed.values
        and config.registers <= seed.registers
    ):
        return False
    for prog in config.programs:
        prog_kinds = [ins.kind for ins in prog]
        if len(prog) > cls.max_len or not set(prog_kinds) <= kinds:
            return False
        if cls.sync_policy == "fence-after-first-load":
            first = next((i for i, k in enumerate(prog_kinds) if k in LOAD_KINDS), None)
            if first is not None and prog_kinds[first + 1 : first + 2] != [InstrKind.FENCE]:
                return False
    return True


def random_walk(config: SystemConfig, rng: random.Random, max_steps: int = 40):
    """One random maximal(ish) path; yields (event, state) pairs."""
    cc = compile_config(config)
    state = pack(cc, init_state(config))
    path = []
    for _ in range(max_steps):
        succ = successors(cc, state)
        if not succ:
            break
        ev, state = rng.choice(succ)
        path.append((ev, unpack(cc, state)))
    return path


def all_event_instances(cc: CompiledConfig):
    """Exhaustive sweep of the whole internal event-instance space."""
    for code in kernel.ISSUE_CODES:
        for x in range(cc.n_instr):
            yield (code, x, -1, -1, -1)
    slots = range(cc.n_instr)
    fences = list(cc.fence_slots) + [-1]
    witnesses = list(slots) + [-1]
    for x in slots:
        for m in range(cc.n_masters):
            yield (kernel.OBS_STORE_WOF, x, m, -1, -1)
            yield (kernel.OBS_SC_REL_STORE, x, m, -1, -1)
            yield (kernel.OBS_SC_ACQ_LOAD, x, m, -1, -1)
            for f in cc.fence_slots:
                yield (kernel.OBS_STORE_WF, x, m, f, -1)
            for s in witnesses:
                yield (kernel.OBS_LOAD_WOF, x, m, -1, s)
                yield (kernel.OBS_LOAD_AS_WOF, x, m, -1, s)
                for f in fences:
                    yield (kernel.OBS_LOAD_HB_WF, x, m, f, s)
                    yield (kernel.OBS_LOAD_AS_WF, x, m, f, s)


def edge_bfs(root, expand) -> dict:
    """Breadth-first search that stores each node's first edge.

    Maps every node reachable through ``expand(node)``, a list of (event,
    successor) pairs, to the (parent, event) pair that first reached it, and
    the root to None: the search's parent map, with the events kept.
    """
    edges: dict = {root: None}
    frontier = [root]
    while frontier:
        layer, frontier = frontier, []
        for node in layer:
            for ev, nxt in expand(node):
                if nxt not in edges:
                    edges[nxt] = (node, ev)
                    frontier.append(nxt)
    return edges


def edge_path(edges: dict, node) -> list:
    """The events from the root to ``node`` along an ``edge_bfs`` map."""
    steps = []
    while (edge := edges[node]) is not None:
        node, ev = edge
        steps.append(ev)
    return steps[::-1]


def replay_unguarded(config: SystemConfig, trace) -> list[MachineState]:
    """Every state of an event-descriptor trace, the initial one first,
    applying each event's action whether or not its guards hold."""
    cc = compile_config(config)
    p = cc.initial_state
    states = [unpack(cc, p)]
    for ev in trace:
        p = apply_event(cc, p, to_internal(cc, ev))
        states.append(unpack(cc, p))
    return states


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


def index_of(cc: CompiledConfig, x: int) -> int:
    """Slot x's 1-based position in its issuer's program."""
    return cc.instrs[x].index


def fences_of_master(cc: CompiledConfig, mi: int) -> list[int]:
    """The fence slots of master ``mi``, in program order."""
    return [f for f in cc.fence_slots if cc.issuer_ix[f] == mi]


def _sync_ordered(cc: CompiledConfig, x: int, y: int) -> bool:
    """Program-order pairs whose observation order is pinned by a fence or
    an atomic: a fence between them, a release store after, or an acquire
    load before."""
    if cc.issuer_ix[x] != cc.issuer_ix[y] or index_of(cc, x) >= index_of(cc, y):
        return False
    if cc.kind[y] is InstrKind.SC_REL_STORE or cc.kind[x] is InstrKind.SC_ACQ_LOAD:
        return True
    return any(
        index_of(cc, x) < index_of(cc, f) < index_of(cc, y)
        for f in fences_of_master(cc, cc.issuer_ix[x])
    )


def check_trace_orderings(config: SystemConfig, trace) -> OrderingReport:
    """Judge po/co/hb on one concrete event sequence, replayed without
    guards so that sequences the machine rejects can be judged too.

    The checkers recompute everything from the raw events: observation
    steps per master, ``fold_lov`` for co, and the before/after bookkeeping
    of stores for hb.
    """
    cc = compile_config(config)
    states = replay_unguarded(config, trace)
    internal = [to_internal(cc, ev) for ev in trace]

    # co: every load's register write equals the last store value its
    # master observed for the address (or the initial one).
    loads = fold_lov(config, internal)
    co_witnesses: list[str] = []
    for step, x, expected in loads:
        got = states[step + 1].rf[internal[step][2]][cc.reg_ix[x]]
        if got != expected:
            co_witnesses.append(
                f"step {step}: {trace[step].name} {cc.instrs[x].id} returned {got}, "
                f"last observed store value is {expected}"
            )

    obs_step: dict[tuple[int, int], int] = {}  # (master, slot) -> step
    hb_witnesses: list[str] = []
    hb_applicable = False
    for step, (code, x, m, f, s) in enumerate(internal):
        if code in kernel.ISSUE_CODES:
            continue
        obs_step.setdefault((m, x), step)
        if code == kernel.OBS_LOAD_HB_WF and s >= 0:
            hb_applicable = True
            already_after = states[step].after[s]
            if already_after:
                names = sorted(mask_to_instr_ids(cc, already_after))
                hb_witnesses.append(
                    f"step {step}: {cc.instrs[x].id} observed before store "
                    f"{cc.instrs[s].id}, but loads {names} were already observed after it"
                )
        elif code in (kernel.OBS_LOAD_AS_WF, kernel.OBS_LOAD_AS_WOF):
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

    return OrderingReport(
        po=verdict(bool(sync_pairs), po_witnesses),
        co=verdict(bool(loads), co_witnesses),
        hb=verdict(hb_applicable, hb_witnesses),
    )


# ---------------------------------------------------------------------------
# The litmus tokenizer as a hand-written character loop, kept verbatim as the
# reference the pattern scanner in ``memlit.litmus`` is compared against.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # ident / int / string / punct / value / eof
    text: str
    line: int
    column: int


_PUNCT = ("/\\", "\\/", "{", "}", ";", ":", "=", "(", ")", "~")
_PUNCT_START = frozenset(p[0] for p in _PUNCT)


def reference_tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            if i + 1 < n and text[i + 1].isdecimal():
                j = i + 1
                while j < n and text[j].isdecimal():
                    j += 1
                toks.append(_Token("value", text[i + 1 : j], line, col))
                col += j - i
                i = j
                continue
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError(line, col, "unterminated string")
                j += 1
            if j >= n:
                raise ParseError(line, col, "unterminated string")
            toks.append(_Token("string", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        matched = False
        if ch in _PUNCT_START:
            for p in _PUNCT:
                if text.startswith(p, i):
                    toks.append(_Token("punct", p, line, col))
                    i += len(p)
                    col += len(p)
                    matched = True
                    break
        if matched:
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    toks.append(_Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# The breadth-first search as one loop over ``successors`` edges, kept
# verbatim as the reference the generated search layers are compared against.
# ---------------------------------------------------------------------------

def reference_explore_full(
    config: SystemConfig,
    *,
    max_states: int,
    name: str,
    stop_predicate,
    expand=None,
) -> tuple[ExplorationResult, _Space]:
    """``explorer._explore_full`` with its search written as a loop over
    the (event, successor) pairs of ``expand(node)``, None meaning
    ``partial(successors, cc)``."""
    cc = compile_config(config)
    expand = expand or partial(successors, cc)
    loads_observed, state_bits = cc.loads_observed, cc.state_bits
    rf_shift, rf_mask = cc.rf_shift, cc.rf_mask
    rf_width = rf_mask.bit_length()
    # Trigger keys, each with the first node that reached it.
    triggers: dict[int, int] = {}

    def visit(p: int) -> bool:
        """Trigger bookkeeping; True stops the search here."""
        if p & loads_observed != loads_observed:
            return False
        key = (p >> rf_shift) & rf_mask | (p >> state_bits) << rf_width
        if key in triggers:
            return False
        triggers[key] = p
        return stop_predicate is not None and stop_predicate(key)

    root = cc.initial_state
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
                    parents[nxt] = node
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
    space = _Space(parents, expand, finals, triggers, stop)
    end = stop if stop_predicate is not None else next(iter(triggers.values()), None)

    result = ExplorationResult(
        name=name,
        state_count=len(parents),
        transition_count=transitions,
        final_register_maps=frozenset(register_file(cc, registers(cc, p)) for p in finals),
        event_tally={kernel.EVENT_NAMES[i]: n for i, n in enumerate(tally)},
        trigger_register_maps=frozenset(register_file(cc, key & rf_mask) for key in triggers),
        compiled=cc,
        witness=space.trace_to(cc, end) if end is not None else None,
    )
    return result, space


# ---------------------------------------------------------------------------
# The event table's rows, each tested on its own, as ``successors`` tests
# them and as the generated layers did before they became decision trees.
# ---------------------------------------------------------------------------

def flat_layer(cc: CompiledConfig, p: int, cover=(), only: bool = False):
    """What ``kernel.search_layer(cc, cover, only)`` makes of the frontier
    [p] with an empty parent map, for any int p: the new nodes in edge
    order, the tally per event code, and whether p is final.  ``cover`` and
    ``only`` are read as ``kernel.layer_source`` reads them."""
    bits = dict(cover)
    edges = [
        (ev[0], q | bits.get(ev[0], 0)) for ev, q in successors(cc, p)
        if not only or ev[0] in kernel.ISSUE_CODES or ev[0] in bits
    ]
    tally = [0] * len(kernel.EVENT_NAMES)
    for code, _ in edges:
        tally[code] += 1
    return list(dict.fromkeys([q for _, q in edges])), tally, not edges
