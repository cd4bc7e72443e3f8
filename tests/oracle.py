"""Independent oracles the test suite checks the explorer against.

Nothing here touches canonical_key, the BFS frontier machinery or the
coverage module: final/trigger register sets are recomputed by depth-first
recursion, load values by a per-master fold over raw event sequences, and
the sequentially consistent outcomes by an interpreter without the kernel.
"""

from __future__ import annotations

import random

from memlit.kernel import InstrKind, init_state, pack, successors, unpack
from memlit.model import SystemConfig, compile_config


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


def dfs_register_sets(config: SystemConfig, watched_loads: frozenset[str] = frozenset()):
    """Final and trigger register sets by memoised depth-first search.

    Memoisation is on packed machine states (structural equality); traversal
    order, bookkeeping and trigger detection are all disjoint from the
    breadth-first explorer.
    """
    cc = compile_config(config)
    watched_mask = 0
    for lid in watched_loads:
        watched_mask |= 1 << cc.slot(lid)

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
        if (state.observed & watched_mask) == watched_mask:
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
    memory = tuple(config.initial_value(a) for a in addrs)
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
            if ins.is_store():
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


def fold_lov(config: SystemConfig, events) -> dict:
    """Per-master last-observed-value fold over an internal event list.

    Recomputes what every load must return, independently of the kernel's
    lov bookkeeping: the value of the last store this master observed for
    the address, or the initial value.
    """
    from memlit import kernel

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
    return {"loads": load_values}


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
