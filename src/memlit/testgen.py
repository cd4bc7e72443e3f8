"""Model-checking-based test generation.

``find_trace`` searches the reachable product of machine states and
fired-event sets for the shortest trace hitting a coverage target,
``generalize``/``generate_suite`` relax a litmus test into a program class
and sample platform tests from it, each carrying the complete set of
allowed register outcomes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Mapping

from . import kernel
from .explorer import (
    DEFAULT_MAX_STATES,
    RegisterMap,
    StateLimitExceeded,
    Trace,
    _bfs,
    _replay,
    _rf_snapshot,
    explore,
)
from .coverage import combo_label, reg_combos
from .kernel import (
    EVENT_NAMES,
    EventDescriptor,
    register_file,
    registers,
    successors,
    to_descriptor,
)
from .litmus import (
    And,
    LitmusTest,
    OutcomeMode,
    OutcomePredicate,
    Or,
    RegisterIs,
    format_test,
    parse,
)
from .model import SystemConfig, compile_config


class Unreachable(Exception):
    def __init__(self, states_explored: int):
        self.states_explored = states_explored
        super().__init__(
            f"no reachable state satisfies the target ({states_explored} states explored)"
        )


class InvalidBounds(Exception):
    pass


@dataclass(frozen=True)
class PairGoal:
    """Register combos the two watched masters must reach, by label index."""

    watched: tuple[str, str]
    combo_indices: tuple[int, int]


@dataclass(frozen=True)
class TestTarget:
    """``goal`` may be a register-combo pair, or None to accept any state
    with every load observed."""

    __test__ = False  # not a pytest class

    goal: PairGoal | None
    must_cover: frozenset[str] = frozenset()
    only_these: bool = False

    def validate(self) -> None:
        if self.goal is not None and not isinstance(self.goal, PairGoal):
            raise ValueError(f"goal must be a PairGoal or None, got {self.goal!r}")
        unknown = self.must_cover - set(EVENT_NAMES)
        if unknown:
            raise ValueError(f"unknown event names in mustCover: {sorted(unknown)}")


@dataclass
class TestCase:
    """A replayable regression test.

    Single-target tests carry ``expected`` (the exact register file the
    trace reproduces); platform-suite samples instead carry ``allowed``
    (every register outcome the model admits once all loads observed).
    """

    __test__ = False  # not a pytest class

    name: str
    litmus: str
    trace: Trace
    expected: RegisterMap | None = None
    allowed: list[RegisterMap] | None = None
    target: dict | None = None

    def to_json(self) -> dict:
        doc: dict = {
            "name": self.name,
            "litmus": self.litmus,
            "steps": [ev.to_json() for ev in self.trace],
        }
        if self.target is not None:
            doc["target"] = self.target
        if self.expected is not None:
            doc["expected"] = self.expected
        if self.allowed is not None:
            doc["allowed"] = self.allowed
        return doc

    @staticmethod
    def from_json(doc: dict) -> "TestCase":
        return TestCase(
            name=doc["name"],
            litmus=doc["litmus"],
            trace=tuple(EventDescriptor.from_json(e) for e in doc["steps"]),
            expected=doc.get("expected"),
            allowed=doc.get("allowed"),
            target=doc.get("target"),
        )


def _goal_checker(test: LitmusTest, goal: PairGoal | None):
    """The goal as a function of an rf field (``kernel.registers``)."""
    if goal is None:
        return lambda rf: True
    cc = compile_config(test.config)
    combos = reg_combos(test.config.registers, test.config.values)
    regs = sorted(test.config.registers)
    # The wanted register values as bits of the rf field.
    mask = want = 0
    for master, combo_ix in zip(goal.watched, goal.combo_indices):
        if master not in cc.master_index:
            raise KeyError(f"unknown master {master!r} in target")
        if not 0 <= combo_ix < len(combos):
            raise ValueError(f"combo index {combo_ix} out of range for {len(combos)} combos")
        combo = combos[combo_ix]
        for r in regs:
            sh = cc.reg_shift[cc.master_index[master]][cc.reg_index[r]] - cc.rf_shift
            mask |= cc.value_mask << sh
            want |= cc.value_index[combo[r]] << sh
    return lambda rf: rf & mask == want


def find_trace(
    test: LitmusTest,
    target: TestTarget,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    name: str | None = None,
) -> TestCase:
    """Shortest trace to a state where the goal holds, every load is
    observed, and every mustCover event has fired along the way.

    Search nodes are ints: the packed machine state, with the set of
    mustCover events fired so far in the bits above it.  The goal is
    evaluated once per distinct register file.
    """
    target.validate()
    cc = compile_config(test.config)
    goal_holds = _goal_checker(test, target.goal)
    goal_seen: dict[int, bool] = {}

    loads_observed = cc.loads_observed
    rf_shift, rf_mask = cc.rf_shift, cc.rf_mask
    state_bits = cc.state_bits
    state_mask = (1 << state_bits) - 1
    cover_names = sorted(target.must_cover)
    cover_bit = {EVENT_NAMES.index(n): 1 << (state_bits + i) for i, n in enumerate(cover_names)}
    full = (1 << len(cover_names)) - 1
    allowed_codes = None
    if target.only_these:
        allowed_codes = set(kernel.ISSUE_CODES) | set(cover_bit)

    def expand(node: int) -> list:
        fired = node & ~state_mask
        return [
            (ev, nxt | fired | cover_bit.get(ev[0], 0))
            for ev, nxt in successors(cc, node & state_mask)
            if allowed_codes is None or ev[0] in allowed_codes
        ]

    def done(node: int) -> bool:
        if node >> state_bits != full or node & loads_observed != loads_observed:
            return False
        rf = (node >> rf_shift) & rf_mask
        hit = goal_seen.get(rf)
        if hit is None:
            hit = goal_seen[rf] = goal_holds(rf)
        return hit

    space = _bfs(cc.initial_state, expand, done, max_states)
    if space.stop is None:
        raise Unreachable(len(space.parents))
    trace = tuple(to_descriptor(cc, ev) for ev in space.events_to(space.stop))

    return TestCase(
        name=name or f"{test.name}-target",
        litmus=format_test(test),
        trace=trace,
        expected=_rf_snapshot(cc, register_file(cc, registers(cc, space.stop))),
        target=_target_json(target),
    )


def _target_json(target: TestTarget) -> dict:
    doc: dict = {"mustCover": sorted(target.must_cover), "onlyThese": target.only_these}
    if target.goal is not None:
        doc["pair"] = {
            m: f"C{ix}" for m, ix in zip(target.goal.watched, target.goal.combo_indices)
        }
    return doc


def emit_test(tc: TestCase) -> str:
    """Serialize a test case; ``load_test`` restores it bit-for-bit."""
    return json.dumps(tc.to_json(), indent=2, sort_keys=True) + "\n"


def load_test(text: str | bytes) -> TestCase:
    """Restore a test case; raises ValueError if ``text`` holds none."""
    try:
        return TestCase.from_json(json.loads(text))
    except (LookupError, TypeError, AttributeError) as e:
        raise ValueError(f"missing or malformed field: {e!r}") from None


@dataclass
class VerifyResult:
    ok: bool
    problems: list[str] = field(default_factory=list)


def verify_test(doc: str | bytes | TestCase) -> VerifyResult:
    """Replay a test document and check its recorded outcome.

    Fails (never raises) on a document that holds no test case, guard
    violations, register mismatches, a missed or malformed target, or a
    final state outside the recorded allowed set.
    """
    try:
        tc = load_test(doc) if isinstance(doc, (str, bytes)) else doc
    except ValueError as e:  # JSON and Unicode errors are ValueErrors too
        return VerifyResult(False, [f"not a test document: {e}"])
    problems: list[str] = []
    try:
        test = parse(tc.litmus)
    except Exception as e:  # parse/validation errors are verification failures
        return VerifyResult(False, [f"litmus source does not parse: {e}"])

    try:
        cc, states = _replay(test.config, tc.trace)
    except Exception as e:
        return VerifyResult(False, [f"trace does not replay: {e}"])

    final = states[-1]
    got = _rf_snapshot(cc, register_file(cc, registers(cc, final)))
    if tc.expected is not None and got != tc.expected:
        problems.append(f"replayed registers {got} != expected {tc.expected}")
    try:  # a field of the wrong shape is a problem, not a crash
        if tc.allowed is not None and got not in tc.allowed:
            problems.append(f"replayed registers {got} not in allowed outcomes")
        if tc.target is not None and tc.expected is not None and not problems:
            pair = tc.target.get("pair")
            if pair:
                combos = reg_combos(test.config.registers, test.config.values)
                by_label = {combo_label(i): c for i, c in enumerate(combos)}
                regs = sorted(test.config.registers)
                for master, label in pair.items():
                    if master not in got or label not in by_label:
                        problems.append(f"target names no combo {master}:{label}")
                    elif {r: got[master][r] for r in regs} != by_label[label]:
                        problems.append(f"{master} registers missed target {label}")
            must = set(tc.target.get("mustCover", ()))
            fired = {ev.name for ev in tc.trace}
            missing = must - fired
            if missing:
                problems.append(f"trace never fires {sorted(missing)}")
            if tc.target.get("onlyThese"):
                extra = {
                    n for n in fired
                    if not n.startswith("Issue") and n not in must
                }
                if extra:
                    problems.append(f"trace fires events outside mustCover: {sorted(extra)}")
    except (LookupError, TypeError, AttributeError, ValueError) as e:
        problems.append(f"malformed target or outcome field: {e!r}")
    if final & cc.loads_observed != cc.loads_observed:
        problems.append("trace leaves watched loads unobserved")
    return VerifyResult(not problems, problems)


# ---------------------------------------------------------------------------
# Generalisation into program classes
# ---------------------------------------------------------------------------

SYNC_POLICIES = ("free", "none", "fence-after-first-load")


@dataclass(frozen=True)
class ProgramClass:
    """A family of configurations sharing a litmus test's universe.

    Programs vary freely within per-master length bounds, drawing from
    ``allowed_kinds``; the synchronisation policy constrains fence and
    atomic placement:

      free                   no placement constraint
      none                   no fences or atomics at all
      fence-after-first-load on every master with a load, a fence directly
                             follows the first load
    """

    masters: tuple[str, ...]
    registers: frozenset[str]
    addresses: frozenset[str]
    values: frozenset[int]
    length_bounds: Mapping[str, tuple[int, int]]
    allowed_kinds: frozenset[str]
    sync_policy: str = "free"

    def validate(self) -> None:
        for m, (lo, hi) in self.length_bounds.items():
            if m not in self.masters:
                raise InvalidBounds(f"bounds name unknown master {m}")
            if lo < 0 or hi < lo:
                raise InvalidBounds(f"bad length bounds for {m}: ({lo}, {hi})")
        bad = self.allowed_kinds - {"ST", "LD", "SCST.REL", "SCLD.ACQ", "FENCE"}
        if bad:
            raise InvalidBounds(f"unknown instruction kinds: {sorted(bad)}")
        if self.sync_policy not in SYNC_POLICIES:
            raise InvalidBounds(f"unknown sync policy {self.sync_policy!r}")
        if self.sync_policy == "none" and self.allowed_kinds & {"FENCE", "SCST.REL", "SCLD.ACQ"}:
            raise InvalidBounds("policy 'none' forbids fences and atomics in allowed_kinds")
        if not self.registers or not self.addresses or not self.values:
            raise InvalidBounds("register/address/value domains must be nonempty")

    def contains(self, config: SystemConfig) -> bool:
        """Structural membership of a configuration in this class."""
        if tuple(config.masters) != self.masters:
            return False
        if not (config.addresses <= self.addresses and config.values <= self.values | {0}):
            return False
        if not config.registers <= self.registers:
            return False
        for m, prog in zip(config.masters, config.programs):
            lo, hi = self.length_bounds[m]
            if not lo <= len(prog) <= hi:
                return False
            for ins in prog:
                if ins.kind.value not in self.allowed_kinds:
                    return False
            if not self._policy_ok(prog):
                return False
        return True

    def _policy_ok(self, prog) -> bool:
        if self.sync_policy == "none":
            return all(ins.kind.value in ("ST", "LD") for ins in prog)
        if self.sync_policy == "fence-after-first-load":
            for i, ins in enumerate(prog):
                if ins.is_load():
                    return i + 1 < len(prog) and prog[i + 1].kind.value == "FENCE"
            return True
        return True

    def sample(self, rng: random.Random, tag: str) -> SystemConfig:
        """One random member; deterministic for a fixed rng state.

        Samples always contain at least one load so the register outcome
        is meaningful.
        """
        from .model import Instruction, InstrKind

        addrs = sorted(self.addresses)
        vals = sorted(self.values)
        regs = sorted(self.registers)
        kinds = sorted(self.allowed_kinds)

        def instr(mi: int, master: str, index: int, kind_name: str) -> Instruction:
            kind = InstrKind(kind_name)
            iid = f"{tag}{mi + 1}{index}"
            if kind is InstrKind.FENCE:
                return Instruction(id=iid, kind=kind, issuer=master, index=index)
            if kind in (InstrKind.STORE, InstrKind.SC_REL_STORE):
                return Instruction(
                    id=iid, kind=kind, issuer=master, index=index,
                    address=rng.choice(addrs), value=rng.choice(vals),
                )
            return Instruction(
                id=iid, kind=kind, issuer=master, index=index,
                address=rng.choice(addrs), register=rng.choice(regs),
            )

        load_possible = any(k in ("LD", "SCLD.ACQ") for k in kinds) and any(
            hi > 0 for _, hi in self.length_bounds.values()
        )
        for _ in range(1000):
            programs: dict[str, list[Instruction]] = {}
            in_bounds = True
            for mi, master in enumerate(self.masters):
                lo, hi = self.length_bounds[master]
                length = rng.randint(lo, hi)
                kind_seq = [rng.choice(kinds) for _ in range(length)]
                if self.sync_policy == "fence-after-first-load":
                    kind_seq = _apply_fence_after_first_load(kind_seq, hi)
                    in_bounds = in_bounds and lo <= len(kind_seq)
                programs[master] = [
                    instr(mi, master, ix, k) for ix, k in enumerate(kind_seq, start=1)
                ]
            has_load = any(i.is_load() for prog in programs.values() for i in prog)
            if in_bounds and (has_load or not load_possible):
                break
        else:
            raise InvalidBounds(
                "could not sample a program satisfying the bounds and policy"
            )
        config = SystemConfig.build(
            list(self.masters),
            programs,
            initial_memory={a: 0 for a in addrs},
            extra_values=set(vals),
        )
        return config


def _apply_fence_after_first_load(kind_seq: list[str], max_len: int) -> list[str]:
    """Insert a fence right after the first load, truncating to the length
    bound; a first load that would lose its fence to truncation is dropped."""
    out: list[str] = []
    for k in kind_seq:
        out.append(k)
        if k in ("LD", "SCLD.ACQ"):
            out.append("FENCE")
            out.extend(kind_seq[len(out) - 1 :])
            break
    del out[max_len:]
    for i, k in enumerate(out):
        if k in ("LD", "SCLD.ACQ"):
            if i + 1 >= len(out) or out[i + 1] != "FENCE":
                return out[:i]
            break
    return out


def generalize(
    seed: LitmusTest,
    bounds: int | Mapping[str, tuple[int, int]],
    *,
    allowed_kinds: set[str] | None = None,
    sync_policy: str = "free",
) -> ProgramClass:
    """Relax a litmus test into the class of programs over its universe."""
    cfg = seed.config
    if isinstance(bounds, int):
        if bounds < 0:
            raise InvalidBounds("maximum length must be nonnegative")
        length_bounds = {m: (0, bounds) for m in cfg.masters}
    else:
        length_bounds = dict(bounds)
        for m in cfg.masters:
            if m not in length_bounds:
                raise InvalidBounds(f"no length bounds for master {m}")
    kinds = frozenset(
        allowed_kinds
        if allowed_kinds is not None
        else {i.kind.value for i in cfg.instructions()}
    )
    cls = ProgramClass(
        masters=cfg.masters,
        registers=cfg.registers,
        addresses=cfg.addresses,
        values=cfg.values,
        length_bounds=length_bounds,
        allowed_kinds=kinds,
        sync_policy=sync_policy,
    )
    cls.validate()
    return cls


# ---------------------------------------------------------------------------
# Suite generation
# ---------------------------------------------------------------------------

@dataclass
class SuiteSample:
    index: int
    sample_seed: int
    case: TestCase | None
    skipped: str | None = None


@dataclass
class Suite:
    seed: int
    count: int
    samples: list[SuiteSample]

    def manifest(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "samples": [
                {
                    "index": s.index,
                    "sampleSeed": s.sample_seed,
                    "name": s.case.name if s.case else None,
                    "skipped": s.skipped,
                }
                for s in self.samples
            ],
        }


def _outcome_over(allowed: list[RegisterMap], masters, registers) -> OutcomePredicate:
    """required-mode predicate: the registers land on one of the allowed maps."""
    alternatives = []
    for rf in allowed:
        atoms = [
            RegisterIs(m, r, rf[m][r])
            for m in masters
            for r in sorted(registers)
        ]
        clause = atoms[0]
        for a in atoms[1:]:
            clause = And(clause, a)
        alternatives.append(clause)
    pred = alternatives[0]
    for alt in alternatives[1:]:
        pred = Or(pred, alt)
    return pred


def generate_suite(
    cls: ProgramClass,
    count: int,
    seed: int,
    *,
    max_states_per_sample: int = 500_000,
) -> Suite:
    """Deterministically sample ``count`` programs and explore each one.

    Every successful sample becomes a test case whose ``allowed`` field
    lists all register outcomes reachable with every load observed, plus a
    shortest witness trace to one of them.
    """
    if count < 0:
        raise InvalidBounds("count must be nonnegative")
    cls.validate()
    top = random.Random(seed)
    samples: list[SuiteSample] = []
    for index in range(count):
        sample_seed = top.randrange(2**32)
        rng = random.Random(sample_seed)
        config = cls.sample(rng, tag=f"S{index}I")
        name = f"suite-{seed}-{index}"
        if any(not prog for prog in config.programs):
            # The litmus grammar requires at least one instruction per master.
            samples.append(
                SuiteSample(index, sample_seed, None, skipped="empty program, not expressible")
            )
            continue
        if not config.registers:
            samples.append(
                SuiteSample(index, sample_seed, None, skipped="no loads, no register outcome")
            )
            continue
        try:
            res = explore(config, max_states=max_states_per_sample, name=name)
        except StateLimitExceeded:
            samples.append(SuiteSample(index, sample_seed, None, skipped="state limit"))
            continue
        allowed_set = res.trigger_maps()
        if not allowed_set:
            samples.append(
                SuiteSample(index, sample_seed, None, skipped="loads never all observed")
            )
            continue
        outcome = _outcome_over(allowed_set, config.masters, config.registers)
        test = LitmusTest(
            name=name,
            config=config,
            outcome=outcome,
            outcome_mode=OutcomeMode.REQUIRED,
        )
        case = TestCase(
            name=name,
            litmus=format_test(test),
            trace=res.witness,
            allowed=allowed_set,
        )
        samples.append(SuiteSample(index, sample_seed, case))
    return Suite(seed=seed, count=count, samples=samples)
