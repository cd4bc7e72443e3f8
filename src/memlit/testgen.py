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
from .model import (
    LOAD_KINDS,
    STORE_KINDS,
    Instruction,
    InstrKind,
    SystemConfig,
    compile_config,
)


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

SYNC_POLICIES = ("free", "fence-after-first-load")


@dataclass(frozen=True)
class ProgramClass:
    """The programs over a seed's masters, addresses, values, registers and
    instruction kinds, each master at most ``max_len`` instructions long.

    The synchronisation policy constrains fence placement:

      free                   no placement constraint
      fence-after-first-load on every master with a load, a fence directly
                             follows the first load
    """

    seed: SystemConfig
    max_len: int
    sync_policy: str = "free"

    def __post_init__(self) -> None:
        if self.max_len < 0:
            raise InvalidBounds("maximum length must be nonnegative")
        if self.sync_policy not in SYNC_POLICIES:
            raise InvalidBounds(f"unknown sync policy {self.sync_policy!r}")
        if not self.seed.registers:
            raise InvalidBounds("the seed has no load, so samples have no register outcome")

    def sample(self, rng: random.Random, tag: str) -> SystemConfig:
        """One random member; deterministic for a fixed rng state.

        Unless ``max_len`` is 0, samples always contain at least one load
        so the register outcome is meaningful.
        """
        cfg = self.seed
        addrs = sorted(cfg.addresses)
        vals = sorted(cfg.values)
        regs = sorted(cfg.registers)
        kinds = sorted({ins.kind for ins in cfg.instructions()}, key=lambda k: k.value)

        def instr(mi: int, master: str, index: int, kind: InstrKind) -> Instruction:
            iid = f"{tag}{mi + 1}{index}"
            if kind is InstrKind.FENCE:
                return Instruction(id=iid, kind=kind, issuer=master, index=index)
            if kind in STORE_KINDS:
                return Instruction(
                    id=iid, kind=kind, issuer=master, index=index,
                    address=rng.choice(addrs), value=rng.choice(vals),
                )
            return Instruction(
                id=iid, kind=kind, issuer=master, index=index,
                address=rng.choice(addrs), register=rng.choice(regs),
            )

        for _ in range(1000):
            programs: dict[str, list[Instruction]] = {}
            for mi, master in enumerate(cfg.masters):
                kind_seq = [rng.choice(kinds) for _ in range(rng.randint(0, self.max_len))]
                if self.sync_policy == "fence-after-first-load":
                    kind_seq = _apply_fence_after_first_load(kind_seq, self.max_len)
                programs[master] = [
                    instr(mi, master, ix, k) for ix, k in enumerate(kind_seq, start=1)
                ]
            has_load = any(i.is_load() for prog in programs.values() for i in prog)
            if has_load or self.max_len == 0:
                break
        else:
            raise InvalidBounds("could not sample a program with a load")
        return SystemConfig.build(
            list(cfg.masters),
            programs,
            initial_memory={a: 0 for a in addrs},
            extra_values=set(vals),
        )


def _apply_fence_after_first_load(kinds: list[InstrKind], max_len: int) -> list[InstrKind]:
    """Insert a fence right after the first load, truncating to the length
    bound; a first load that would lose its fence to truncation is dropped."""
    first = next((i for i, k in enumerate(kinds) if k in LOAD_KINDS), None)
    if first is None:
        return kinds
    out = [*kinds[: first + 1], InstrKind.FENCE, *kinds[first + 1 :]][:max_len]
    return out if first + 1 < len(out) else out[:first]


def generalize(seed: LitmusTest, max_len: int, *, sync_policy: str = "free") -> ProgramClass:
    """Relax a litmus test into the class of programs over its universe."""
    return ProgramClass(seed.config, max_len, sync_policy)


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
