"""Independent oracles the test suite checks the explorer against.

Nothing here touches the explorer's deduplication, its BFS frontier or the
coverage module: final/trigger register sets are recomputed by depth-first
recursion, load values by a per-master fold over raw event sequences, the
sequentially consistent outcomes by an interpreter without the kernel,
program order, coherence and happens-before by a checker over raw traces, and
membership of a fuzz program class by its definition rather than its sampler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from memlit import kernel
from memlit.kernel import (
    InstrKind,
    MachineState,
    apply_event,
    check_state_invariants,
    init_state,
    pack,
    successors,
    to_internal,
    unpack,
)
from memlit.model import LOAD_KINDS, STORE_KINDS, CompiledConfig, SystemConfig, compile_config
from memlit.testgen import ProgramClass


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
                names = sorted(cc.mask_to_instr_ids(already_after))
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
