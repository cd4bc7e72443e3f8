"""Instructions, system configurations and their compiled (index-based) form.

A configuration fixes a finite universe of masters, programs, addresses,
registers and values.  All transition semantics live in ``kernel``; this
module only validates and indexes the static data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache


class InvalidConfig(Exception):
    """Raised when a SystemConfig violates its structural invariants."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


class InstrKind(enum.Enum):
    STORE = "ST"
    LOAD = "LD"
    SC_REL_STORE = "SCST.REL"
    SC_ACQ_LOAD = "SCLD.ACQ"
    FENCE = "FENCE"


MEMACCESS_KINDS = frozenset(
    {InstrKind.STORE, InstrKind.LOAD, InstrKind.SC_REL_STORE, InstrKind.SC_ACQ_LOAD}
)
STORE_KINDS = frozenset({InstrKind.STORE, InstrKind.SC_REL_STORE})
LOAD_KINDS = frozenset({InstrKind.LOAD, InstrKind.SC_ACQ_LOAD})
ATOMIC_KINDS = frozenset({InstrKind.SC_REL_STORE, InstrKind.SC_ACQ_LOAD})

# The event code of each kind's issue rule (``kernel.EVENT_NAMES`` starts
# with the five issue rules, in this order).
ISSUE_CODE_OF_KIND = {
    InstrKind.STORE: 0,
    InstrKind.LOAD: 1,
    InstrKind.FENCE: 2,
    InstrKind.SC_REL_STORE: 3,
    InstrKind.SC_ACQ_LOAD: 4,
}


@dataclass(frozen=True)
class Instruction:
    """One transaction: a store, load, atomic access or fence.

    ``index`` is the 1-based position in the issuer's program.  Exactly the
    fields appropriate to the kind are set: stores carry address+value,
    loads carry address+register, fences carry neither.
    """

    id: str
    kind: InstrKind
    issuer: str
    index: int
    address: str | None = None
    value: int | None = None
    register: str | None = None

    def is_memaccess(self) -> bool:
        return self.kind in MEMACCESS_KINDS

    def is_store(self) -> bool:
        return self.kind in STORE_KINDS

    def is_load(self) -> bool:
        return self.kind in LOAD_KINDS

    def field_problems(self) -> list[str]:
        """Kind/field consistency problems, empty if well-formed."""
        p = []
        k = self.kind
        if k in STORE_KINDS:
            if self.address is None or self.value is None:
                p.append(f"{self.id}: store needs address and value")
            if self.register is not None:
                p.append(f"{self.id}: store must not name a register")
        elif k in LOAD_KINDS:
            if self.address is None or self.register is None:
                p.append(f"{self.id}: load needs address and register")
            if self.value is not None:
                p.append(f"{self.id}: load must not carry a value")
        else:  # fence
            if self.address is not None or self.value is not None or self.register is not None:
                p.append(f"{self.id}: fence carries no operands")
        if self.value is not None and self.value < 0:
            p.append(f"{self.id}: values are nonnegative")
        if self.index < 1:
            p.append(f"{self.id}: program positions are 1-based")
        return p


@dataclass(frozen=True)
class SystemConfig:
    """Masters, their programs, initial memory and the finite domains.

    ``programs`` is aligned with ``masters``.  Domains must cover every
    address/register/value any instruction mentions; ``values`` always
    contains 0 (the register initialisation value).
    """

    masters: tuple[str, ...]
    programs: tuple[tuple[Instruction, ...], ...]
    initial_memory: tuple[tuple[str, int], ...]
    addresses: frozenset[str]
    values: frozenset[int]
    registers: frozenset[str]

    @staticmethod
    def build(
        masters: list[str] | tuple[str, ...],
        programs: dict[str, list[Instruction]],
        initial_memory: dict[str, int] | None = None,
        extra_values: set[int] | None = None,
    ) -> "SystemConfig":
        """Assemble a config, inferring domains from the instructions.

        Addresses not present in ``initial_memory`` default to 0.
        """
        init = dict(initial_memory or {})
        addrs: set[str] = set(init)
        vals: set[int] = {0} | set(init.values()) | set(extra_values or ())
        regs: set[str] = set()
        progs = []
        for m in masters:
            prog = tuple(programs.get(m, ()))
            progs.append(prog)
            for ins in prog:
                if ins.address is not None:
                    addrs.add(ins.address)
                if ins.value is not None:
                    vals.add(ins.value)
                if ins.register is not None:
                    regs.add(ins.register)
        for a in addrs:
            init.setdefault(a, 0)
        cfg = SystemConfig(
            masters=tuple(masters),
            programs=tuple(progs),
            initial_memory=tuple(sorted(init.items())),
            addresses=frozenset(addrs),
            values=frozenset(vals),
            registers=frozenset(regs),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise InvalidConfig if any structural invariant fails."""
        problems = []
        if len(self.masters) != len(set(self.masters)):
            problems.append("duplicate master ids")
        if len(self.programs) != len(self.masters):
            problems.append("programs not aligned with masters")
        init = dict(self.initial_memory)
        seen_ids: set[str] = set()
        for m, prog in zip(self.masters, self.programs):
            for pos, ins in enumerate(prog, start=1):
                problems.extend(ins.field_problems())
                if ins.id in seen_ids:
                    problems.append(f"duplicate instruction id {ins.id}")
                seen_ids.add(ins.id)
                if ins.issuer != m:
                    problems.append(f"{ins.id}: issuer {ins.issuer} does not own the program of {m}")
                if ins.index != pos:
                    problems.append(f"{ins.id}: index {ins.index} != program position {pos}")
                if ins.address is not None:
                    if ins.address not in self.addresses:
                        problems.append(f"{ins.id}: address {ins.address} outside domain")
                    elif ins.address not in init:
                        problems.append(f"{ins.id}: no initial value for {ins.address}")
                if ins.value is not None and ins.value not in self.values:
                    problems.append(f"{ins.id}: value {ins.value} outside domain")
                if ins.register is not None and ins.register not in self.registers:
                    problems.append(f"{ins.id}: register {ins.register} outside domain")
        if 0 not in self.values:
            problems.append("value domain must contain 0")
        for a, v in self.initial_memory:
            if a not in self.addresses:
                problems.append(f"initial memory names unknown address {a}")
            if v not in self.values:
                problems.append(f"initial value {v} of {a} outside domain")
        if problems:
            raise InvalidConfig(problems)

    def program_of(self, master: str) -> tuple[Instruction, ...]:
        return self.programs[self.masters.index(master)]

    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(ins for prog in self.programs for ins in prog)

    def instruction(self, instr_id: str) -> Instruction:
        for ins in self.instructions():
            if ins.id == instr_id:
                return ins
        raise KeyError(instr_id)

    def initial_value(self, address: str) -> int:
        return dict(self.initial_memory)[address]


class CompiledConfig:
    """Index-based tables for one SystemConfig.

    Instructions get dense slots (program order, master by master), masters,
    addresses and registers get dense indices; the kernel operates on these
    exclusively.  Bit positions in instruction masks are slots, in master
    masks master indices.
    """

    def __init__(self, config: SystemConfig):
        config.validate()
        self.config = config
        self.masters = config.masters
        self.n_masters = len(config.masters)
        self.addr_names = tuple(sorted(config.addresses))
        self.reg_names = tuple(sorted(config.registers))
        self.addr_index = {a: i for i, a in enumerate(self.addr_names)}
        self.reg_index = {r: i for i, r in enumerate(self.reg_names)}
        self.master_index = {m: i for i, m in enumerate(config.masters)}

        instrs: list[Instruction] = []
        program_slots: list[tuple[int, ...]] = []
        for prog in config.programs:
            start = len(instrs)
            instrs.extend(prog)
            program_slots.append(tuple(range(start, len(instrs))))
        self.program_slots = tuple(program_slots)
        self.instrs = tuple(instrs)
        self.n_instr = len(instrs)
        self.slot_of = {ins.id: i for i, ins in enumerate(instrs)}

        self.kind = tuple(ins.kind for ins in instrs)
        self.issuer_ix = tuple(self.master_index[ins.issuer] for ins in instrs)
        self.index_of = tuple(ins.index for ins in instrs)
        self.addr_ix = tuple(
            self.addr_index[ins.address] if ins.address is not None else -1 for ins in instrs
        )
        self.value_of = tuple(ins.value if ins.value is not None else -1 for ins in instrs)
        self.reg_ix = tuple(
            self.reg_index[ins.register] if ins.register is not None else -1 for ins in instrs
        )

        self.plain_store_slots: list[int] = []
        self.plain_load_slots: list[int] = []
        self.rel_store_slots: list[int] = []
        self.acq_load_slots: list[int] = []
        self.fence_slots: list[int] = []
        slots_of_kind = {
            InstrKind.STORE: self.plain_store_slots,
            InstrKind.LOAD: self.plain_load_slots,
            InstrKind.SC_REL_STORE: self.rel_store_slots,
            InstrKind.SC_ACQ_LOAD: self.acq_load_slots,
            InstrKind.FENCE: self.fence_slots,
        }
        # Stores (either kind) per address: witness candidates for loads.
        stores: list[list[int]] = [[] for _ in self.addr_names]
        # Per master: fence slots, and a flag mask of that master's fences.
        fences: list[list[int]] = [[] for _ in config.masters]
        for i, kind in enumerate(self.kind):
            slots_of_kind[kind].append(i)
            if kind is InstrKind.FENCE:
                fences[self.issuer_ix[i]].append(i)
            elif self.value_of[i] >= 0:
                stores[self.addr_ix[i]].append(i)
        self.fence_mask = sum(1 << i for i in self.fence_slots)
        self.access_mask = ((1 << self.n_instr) - 1) & ~self.fence_mask
        self.all_masters_mask = (1 << self.n_masters) - 1
        self.stores_to_addr: tuple[tuple[int, ...], ...] = tuple(map(tuple, stores))
        self.fences_of_master = tuple(map(tuple, fences))
        self.fence_mask_of_master = tuple(sum(1 << i for i in slots) for slots in fences)

        # Per slot, in its issuer's program: the memory accesses before it
        # (release-store guard; for a fence f these are ahead(f)), and the
        # acquire loads before it (an acquire blocks later accesses until
        # its issuer observes it).  Static: masters issue in program order,
        # positions never move.
        pred_access: list[tuple[int, ...]] = [()] * self.n_instr
        acq_pred: list[tuple[int, ...]] = [()] * self.n_instr
        for slots in self.program_slots:
            accesses: tuple[int, ...] = ()
            acquires: tuple[int, ...] = ()
            for x in slots:
                pred_access[x], acq_pred[x] = accesses, acquires
                if self.kind[x] is not InstrKind.FENCE:
                    accesses += (x,)
                if self.kind[x] is InstrKind.SC_ACQ_LOAD:
                    acquires += (x,)
        self.pred_access_slots = tuple(pred_access)
        self.acq_pred_slots = tuple(acq_pred)
        self.ahead_mask = tuple(
            sum(1 << a for a in preds) if kind is InstrKind.FENCE else 0
            for kind, preds in zip(self.kind, pred_access)
        )

        initial = dict(config.initial_memory)
        self.initial_lov = (tuple(initial[a] for a in self.addr_names),) * self.n_masters

        # Per-slot tables the search reads instead of Enum lookups.
        self.issue_code = tuple([ISSUE_CODE_OF_KIND[k] for k in self.kind])
        self.is_load = tuple([r >= 0 for r in self.reg_ix])
        self.witnesses = tuple(
            [self.stores_to_addr[a] if r >= 0 else () for a, r in zip(self.addr_ix, self.reg_ix)]
        )
        self.program_mask = tuple(
            [((1 << len(slots)) - 1) << slots[0] if slots else 0 for slots in self.program_slots]
        )
        self._encode()

    def _encode(self) -> None:
        """Bit layout of the packed machine state, the one int per state
        the search works on (``kernel.pack``/``kernel.unpack``).

        From bit 0 up: one issued bit per slot; one observer bit per
        (slot, master), each slot's masters side by side; a value-index
        field per (master, address) for lov, then per (master, register)
        for rf; one after bit per (store, plain load of its address); and
        an atomic-order rank field per atomic slot, 0 while unranked.
        Nothing derivable is stored: issued/issuedfence are the issued
        bits under the access/fence masks, the cursor counts a master's
        issued slots, and observed means some observer bit is set.
        """
        n, n_m = self.n_instr, self.n_masters
        values = self.values = tuple(sorted(self.config.values))
        index = self.value_index = {v: i for i, v in enumerate(values)}
        width = (len(values) - 1).bit_length()
        mask = self.value_mask = (1 << width) - 1

        def fields(base: int, rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
            return tuple([
                tuple([base + (row * cols + col) * width for col in range(cols)])
                for row in range(rows)
            ])

        obs_shift, obs_field, obs_bit = [], [], []
        for x in range(n):
            sh = n + x * n_m
            obs_shift.append(sh)
            obs_field.append(self.all_masters_mask << sh)
            obs_bit.append(tuple([1 << (sh + m) for m in range(n_m)]))
        self.obs_shift, self.obs_field, self.obs_bit = map(tuple, (obs_shift, obs_field, obs_bit))
        pos = n + n * n_m

        n_a, n_r = len(self.addr_names), len(self.reg_names)
        lov_shift = self.lov_shift = fields(pos, n_m, n_a)
        pos += n_m * n_a * width
        self.rf_shift = pos
        self.rf_mask = (1 << (n_m * n_r * width)) - 1
        reg_shift = self.reg_shift = fields(pos, n_m, n_r)
        pos += n_m * n_r * width

        after: dict[int, list[int]] = {}
        for l in self.plain_load_slots:
            for s in self.witnesses[l]:
                after.setdefault(s, [0] * n)[l] = 1 << pos
                pos += 1
        no_loads = (0,) * n
        self.after_bit = tuple([tuple(after[s]) if s in after else no_loads for s in range(n)])
        self.after_field = tuple([sum(after[s]) if s in after else 0 for s in range(n)])

        atomics = sorted((*self.rel_store_slots, *self.acq_load_slots))
        rank_width = len(atomics).bit_length()
        self.rank_mask = (1 << rank_width) - 1
        rank_shift = [0] * n  # 0: not an atomic slot
        for x in atomics:
            rank_shift[x] = pos
            pos += rank_width
        self.rank_shift = tuple(rank_shift)
        self.atomic_fields = tuple([obs_field[x] for x in atomics])
        self.state_bits = pos

        # Observing slot x by master m turns p into (p & clear) | set;
        # a load then copies the value field at ``src`` to the register
        # field at ``dst`` (0 for stores and fences, which copy nothing).
        observe = []
        for x in range(n):
            a, r, v, bits = self.addr_ix[x], self.reg_ix[x], self.value_of[x], obs_bit[x]
            if v >= 0:  # a store
                v = index[v]
                row = [(~(mask << lov[a]), b | (v << lov[a]), 0, 0)
                       for b, lov in zip(bits, lov_shift)]
            elif r >= 0:  # a load
                row = [(~(mask << regs[r]), b, lov[a], regs[r])
                       for b, lov, regs in zip(bits, lov_shift, reg_shift)]
            else:
                row = [(-1, b, 0, 0) for b in bits]
            observe.append(tuple(row))
        self.observe = tuple(observe)
        # Indexed by fence slot f and master m: every access ahead of f
        # observed by m.
        ahead_obs: list[tuple[int, ...]] = [()] * n
        for f in self.fence_slots:
            ahead = sum([obs_bit[a][0] for a in self.pred_access_slots[f]])
            ahead_obs[f] = tuple([ahead << m for m in range(n_m)])
        self.ahead_obs = tuple(ahead_obs)
        self.initial_state = 0
        for row, shifts in zip(self.initial_lov, lov_shift):
            for v, sh in zip(row, shifts):
                self.initial_state |= index[v] << sh

    def slot(self, instr_id: str) -> int:
        try:
            return self.slot_of[instr_id]
        except KeyError:
            raise KeyError(f"unknown instruction id {instr_id!r}") from None

    def mask_to_masters(self, mask: int) -> frozenset[str]:
        return frozenset(m for i, m in enumerate(self.masters) if (mask >> i) & 1)

    def mask_to_instr_ids(self, mask: int) -> frozenset[str]:
        return frozenset(
            ins.id for i, ins in enumerate(self.instrs) if (mask >> i) & 1
        )


@lru_cache(maxsize=128)
def compile_config(config: SystemConfig) -> CompiledConfig:
    return CompiledConfig(config)
