"""The generated search layers (``kernel.search_layer``) against the loop
over ``successors`` edges they replaced (``oracle.reference_explore_full``),
and the hygiene of the source they are compiled from."""

import ast
import contextlib
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from memlit import corpus, explorer, kernel
from memlit.cli import main
from memlit.explorer import StateLimitExceeded, check_outcome, explore, explore_test
from memlit.litmus import parse
from memlit.model import Instruction, InstrKind, SystemConfig, compile_config
from memlit.testgen import PairGoal, TestTarget, Unreachable, find_trace

from oracle import SAMPLED_SEEDS, flat_layer, random_config, reference_explore_full

LARGE = Path(__file__).parents[1] / "bench" / "iriw-3readers.litmus"

# One master of 120 stores: its issue rows are one if/elif chain, not 120
# nested tests.
LONG = "\n".join([
    'litmus "long"', "init { a = 0; }",
    "master M1 {", *[f"  I{k}: ST a #{k % 3 + 1};" for k in range(1, 121)], "}",
    "master M2 { J1: LD R1 a; }", "allowed ( M2:R1 = 1 )", "",
])

# The same with release stores and an acquire load: 120 atomic slots to rank.
LONG_RELEASE = "\n".join([
    'litmus "longrel"', "init { a = 0; }",
    "master M1 {", *[f"  I{k}: SCST.REL a #{k % 3 + 1};" for k in range(1, 121)], "}",
    "master M2 { J1: SCLD.ACQ R1 a; J2: LD R2 a; }", "allowed ( M2:R1 = 1 )", "",
])

# The bytes of LONG_RELEASE's plain layer when each atomic edge called a
# rank function and each bit was tested with a literal as wide as the state.
LONG_RELEASE_LAYER_BYTES = 575_597

# IRIW with one release store on each of two writers: the one known test in
# which the atomic-order guard decides the verdict.
IRIW_TWO_WRITERS = """litmus "iriw-atomic-two-writers"
init { a1 = 0; a2 = 0; }
master M1 { I11: SCST.REL a1 #1; }
master M2 { I21: SCLD.ACQ R1 a1; I23: SCLD.ACQ R2 a2; }
master M3 { I31: SCLD.ACQ R1 a2; I33: SCLD.ACQ R2 a1; }
master M4 { I41: SCST.REL a2 #1; }
forbidden ( M2:R1 = 1 /\\ M3:R1 = 1 /\\ M2:R2 = 0 /\\ M3:R2 = 0 )
"""

# Release stores on three masters: each atomic-order guard has two terms.
THREE_WRITERS = """litmus "three-writers"
init { a = 0; b = 0; }
master M1 { I11: SCST.REL a #1; I12: LD R1 b; }
master M2 { I21: SCST.REL b #1; I22: SCLD.ACQ R1 a; }
master M3 { I31: SCST.REL a #2; I32: SCLD.ACQ R1 b; }
allowed ( M2:R1 = 2 )
"""


@pytest.fixture()
def compared(monkeypatch):
    """Run every ``_explore_full`` call a second time through the reference
    search and require the same parent map, in insertion order, the same
    finals order, tally, transitions, trigger keys, stop and witness, or
    the same state-limit error.  Yields the list of compared searches."""
    real = explorer._explore_full
    searches = []

    def explore_full(config, **kwargs):
        reference = {k: v for k, v in kwargs.items() if k not in ("cover", "only")}
        try:
            result, space = real(config, **kwargs)
        except StateLimitExceeded as got:
            with pytest.raises(StateLimitExceeded) as want:
                reference_explore_full(config, **reference)
            limits = (got.max_states, got.depth, got.frontier)
            assert limits == (want.value.max_states, want.value.depth, want.value.frontier)
            searches.append(limits)
            raise
        ref_result, ref_space = reference_explore_full(config, **reference)
        assert list(space.parents.items()) == list(ref_space.parents.items())
        assert space.finals == ref_space.finals
        assert list(space.triggers.items()) == list(ref_space.triggers.items())
        assert space.stop == ref_space.stop
        for attr in ("state_count", "transition_count", "event_tally", "witness",
                     "final_register_maps", "trigger_register_maps"):
            assert getattr(result, attr) == getattr(ref_result, attr), attr
        searches.append(result.state_count)
        return result, space

    monkeypatch.setattr(explorer, "_explore_full", explore_full)
    return searches


class TestAgainstReference:
    def test_corpus(self, compared, all_corpus):
        for t in all_corpus.values():
            explore_test(t)
        assert len(compared) == len(all_corpus) == 7

    def test_sampled_configs(self, compared):
        for seed in range(SAMPLED_SEEDS):
            explore(random_config(random.Random(seed), max_per_master=2))
        assert len(compared) == SAMPLED_SEEDS

    def test_sampled_configs_of_three_per_master(self, compared):
        # Four of these reach 275k to 5.5M states; they are compared where
        # both searches stop at the state limit.
        for seed in range(SAMPLED_SEEDS):
            with contextlib.suppress(StateLimitExceeded):
                explore(random_config(random.Random(seed), max_per_master=3), max_states=100_000)
        assert len(compared) == SAMPLED_SEEDS
        assert sum(isinstance(c, tuple) for c in compared) == 4

    def test_large(self, compared):
        explore_test(parse(LARGE.read_text()))
        assert compared == [131752]

    def test_corpus_checks(self, compared, all_corpus):
        # Stop-predicate searches: Violated and Reachable verdicts stop
        # inside a layer, Holds and Unreachable ones run to the end.
        kinds = {check_outcome(t).kind for t in all_corpus.values()}
        assert kinds == {"Holds", "Violated", "Reachable"}
        assert len(compared) == 7

    @pytest.mark.parametrize(
        "name, watched, cover, only",
        [
            ("iriw-fence-all", ("M2", "M3"),
             ("ObserveStoreWithFence", "ObserveLoadAfterStoreWithFence"), False),
            ("mp-relaxed", ("M1", "M2"), ("ObserveLoadWithoutFence",), True),
        ],
    )
    def test_product_searches(self, compared, all_corpus, name, watched, cover, only):
        found = 0
        for pair in itertools.product(range(4), repeat=2):
            target = TestTarget(PairGoal(watched, pair), frozenset(cover), only)
            try:
                find_trace(all_corpus[name], target)
                found += 1
            except Unreachable:
                pass
        assert len(compared) == 16 and 0 < found < 16

    def test_product_search_ending_in_a_store_observation(self, compared):
        # The release store is observed only after the load, so a state with
        # the load and the release observed is first reached by an edge that
        # observes no load; its trigger key is new only for its cover bit.
        test = parse("""litmus "release-after-load"
init { a = 0; b = 0; }
master M1 { I11: LD R1 a; I12: SCST.REL b #1; }
master M2 { I21: ST a #1; }
allowed ( M1:R1 = 1 )
""")
        case = find_trace(test, TestTarget(None, frozenset({"ObserveScRelStore"})))
        assert case.trace[-1].name == "ObserveScRelStore" and len(compared) == 1

    def test_two_writer_sc_iriw(self, compared):
        verdict = check_outcome(parse(IRIW_TWO_WRITERS))
        assert (verdict.kind, verdict.state_count, verdict.transition_count) == (
            "Holds", 96626, 315728)
        assert compared == [96626]

    def test_state_limit(self, compared, iriw_fence):
        with pytest.raises(StateLimitExceeded):
            explore_test(iriw_fence, max_states=1000)
        # A limit of exactly the state count is not exceeded.
        explore_test(iriw_fence, max_states=8124)
        with pytest.raises(StateLimitExceeded):
            explore_test(iriw_fence, max_states=8123)
        assert compared == [(1000, 6, 292), 8124, (8123, 17, 76)]


def _variants(cc):
    """The layer variants of cc: plain, mustCover bits, and with --only."""
    top = 1 << cc.state_bits
    cover = ((kernel.OBS_STORE_WF, top), (kernel.OBS_LOAD_WOF, top << 1))
    return [((), False), (cover, False), (cover, True)]


def _configs():
    yield from (corpus.load(name).config for name in corpus.CORPUS_NAMES)
    yield parse(LARGE.read_text()).config
    for seed in range(SAMPLED_SEEDS):
        yield random_config(random.Random(seed), max_per_master=2)
    yield parse(LONG).config
    yield parse(THREE_WRITERS).config
    yield parse(IRIW_TWO_WRITERS).config
    yield parse(LONG_RELEASE).config


def _random_ints(rng: random.Random, bits: int, n: int):
    """n ints below ``1 << bits``, most of them no reachable state, with
    about 1/8 to 7/8 of their bits set."""
    for _ in range(n):
        p = rng.getrandbits(bits)
        for _ in range(rng.randrange(3)):
            p = p & rng.getrandbits(bits) if rng.random() < 0.5 else p | rng.getrandbits(bits)
        yield p


def _assert_layer_is_flat(cc, cover, only, p) -> list[int]:
    """Expand the frontier [p] with cc's layer and require what
    ``flat_layer`` makes of it; returns the tally."""
    finals, tally = [], [0] * len(kernel.EVENT_NAMES)
    out, halt = kernel.search_layer(cc, cover, only)(
        [p], {}, finals, {}, lambda k: False, 1 << 62, StateLimitExceeded, 0, tally, cc)
    assert (out, tally, finals == [p]) == flat_layer(cc, p, cover, only), p
    assert halt == 0 and finals in ([], [p])
    return tally


class TestTreeAgainstFlatRows:
    def test_every_variant_on_random_ints(self):
        # The tree must equal the flat row tests on every int, not only on
        # reachable states.
        rng = random.Random(24)
        for config in _configs():
            cc = compile_config(config)
            for cover, only in _variants(cc):
                for p in _random_ints(rng, cc.state_bits, 40):
                    _assert_layer_is_flat(cc, cover, only, p)

    def test_equal_ranks(self):
        # A random int may give two atomic slots the same nonzero rank,
        # which no reachable state does; the atomic-order guard must still
        # fail only where one release store ranks strictly before the other.
        rng = random.Random(25)
        cc = compile_config(parse(THREE_WRITERS).config)
        atomics = [x for x, sh in enumerate(cc.rank_shift) if sh]
        fired = 0
        for x, t in itertools.permutations(atomics, 2):
            for p in _random_ints(rng, cc.state_bits, 60):
                rank = rng.randrange(1, cc.rank_mask + 1)
                for y in (x, t):
                    p = p & ~(cc.rank_mask << cc.rank_shift[y]) | rank << cc.rank_shift[y]
                for cover, only in _variants(cc):
                    fired += _assert_layer_is_flat(cc, cover, only, p)[kernel.OBS_SC_REL_STORE]
        assert fired


def test_a_long_program_compiles(capsys, tmp_path):
    path = tmp_path / "long.litmus"
    path.write_text(LONG)
    assert main(["check", str(path), "--max-states", "1000"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("long: Reachable (allowed outcome, 197 states)\n", "")


def test_a_long_release_program_stays_small(capsys, tmp_path):
    # Every edge's code has a size independent of the program's length:
    # bits are read by shift and the rank is counted, not summed per slot.
    path = tmp_path / "longrel.litmus"
    path.write_text(LONG_RELEASE)
    assert main(["check", str(path), "--max-states", "1000"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "longrel: Reachable (allowed outcome, 773 states)\n", "")
    cc = compile_config(parse(LONG_RELEASE).config)
    assert len(kernel.layer_source(cc)) <= 1.5 * LONG_RELEASE_LAYER_BYTES


def test_a_state_wider_than_the_digit_limit_compiles():
    # Layer literals are written in hex, which Python converts at any width;
    # decimal ones would hit the integer string conversion limit.
    text = "\n".join([
        'litmus "wide"', "init { a = 0; }",
        "master M1 {", *[f"  I{k}: ST a #{k % 3 + 1};" for k in range(1, 701)], "}",
        "master M2 { J1: LD R1 a; }", "allowed ( M2:R1 = 1 )", "",
    ])
    cc = compile_config(parse(text).config)
    assert cc.state_bits == 2811
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None:
        old = limit()
        sys.set_int_max_str_digits(640)
    try:
        compile(kernel.layer_source(cc), "<layer>", "exec")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(old)


# Every name a generated layer may use, and those it may call.
ALLOWED_NAMES = frozenset({
    "layer", "frontier", "parents", "finals", "triggers", "stop", "limit", "exceeded", "depth",
    "tally", "cc", "halt", "out", "append", "final", "p", "e", "q", "k", "len", "bit_count",
    *(f"t{code}" for code in range(len(kernel.EVENT_NAMES))),
})
CALLED_NAMES = frozenset({"append", "final", "stop", "exceeded", "len", "bit_count"})


def _hostile_config(plain: bool) -> SystemConfig:
    """Two isomorphic configurations, one with ids that would break out
    of a string literal or a name if pasted into source."""
    def name(text: str, hostile: str) -> str:
        return text if plain else f"{text[-1]}\"'\n__import__('os').system('x')#{hostile}"

    m1, m2 = name("M1", "}{"), name("M2", "\\")
    a1, a2 = name("a1", "'''"), name("a2", '"""')
    r1, r2 = name("R1", "\r"), name("R2", "\t")

    def ins(i, kind, issuer, index, **fields):
        return Instruction(id=name(f"I{i}", f"){i}("), kind=kind, issuer=issuer, index=index,
                           **fields)

    programs = {
        m1: [ins(11, InstrKind.STORE, m1, 1, address=a1, value=1),
             ins(12, InstrKind.FENCE, m1, 2),
             ins(13, InstrKind.SC_REL_STORE, m1, 3, address=a2, value=1)],
        m2: [ins(21, InstrKind.SC_ACQ_LOAD, m2, 1, address=a2, register=r1),
             ins(22, InstrKind.LOAD, m2, 2, address=a1, register=r2)],
    }
    return SystemConfig.build([m1, m2], programs, initial_memory={a1: 0, a2: 0})


class TestSourceHygiene:
    def test_only_allowed_names_and_int_literals(self):
        for config in _configs():
            cc = compile_config(config)
            for cover, only in _variants(cc):
                tree = ast.parse(kernel.layer_source(cc, cover, only))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        assert node.id in ALLOWED_NAMES, node.id
                    elif isinstance(node, ast.arg):
                        assert node.arg in ALLOWED_NAMES, node.arg
                    elif isinstance(node, ast.FunctionDef):
                        assert node.name == "layer"
                    elif isinstance(node, ast.Attribute):
                        assert node.attr == "append"
                    elif isinstance(node, ast.Constant):
                        assert type(node.value) is int, node.value
                    assert not isinstance(node, (ast.JoinedStr, ast.Lambda, ast.Import,
                                                 ast.ImportFrom, ast.Global)), ast.dump(node)

    def test_tests_nest_at_most_four_deep(self):
        # The def and the loop, four tests and an edge's own three levels:
        # far below the 100 levels of indentation CPython accepts.  Each
        # elif nests one level deeper in the syntax tree, which CPython's
        # compiler recurses through, so at most four chains of at most
        # kernel._CHAIN tests each, and an edge's own three.  The long
        # program's 120 issue rows fill one chain and start a second.
        def chain(node):
            nested = len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If)
            return 1 + (chain(node.orelse[0]) if nested else 0)

        def depth(node):
            inner = max(map(depth, ast.iter_child_nodes(node)), default=0)
            return isinstance(node, ast.If) + inner

        longest = 0
        for config in _configs():
            cc = compile_config(config)
            for cover, only in _variants(cc):
                source = kernel.layer_source(cc, cover, only)
                assert max(len(line) - len(line.lstrip(" ")) for line in source.splitlines()) <= 4 * 9
                tree = ast.parse(source)
                assert depth(tree) <= 4 * kernel._CHAIN + 3
                longest = max([longest, *[chain(node) for node in ast.walk(tree)
                                          if isinstance(node, ast.If)]])
        assert longest == kernel._CHAIN

    def test_a_long_run_of_exclusive_rows_compiles(self):
        # 4,096 rows, one per assignment of 12 bits, exclude each other
        # pairwise; as one chain of elifs they would overflow the compiler.
        nodes = [(a, 4095 & ~a, (), ("t0 += 1", ("pass",))) for a in range(4096)]
        lines = []
        kernel._emit(nodes, 1, lines)
        assert sum(line.lstrip().startswith("elif ") for line in lines) > 4000
        compile("def layer(p):\n    e = t0 = 0\n" + "\n".join(lines), "<layer>", "exec")

    def test_hostile_ids_emit_the_source_of_plain_ones(self):
        hostile = compile_config(_hostile_config(False))
        plain = compile_config(_hostile_config(True))
        assert hostile.masters != plain.masters
        for cover, only in _variants(plain):
            source = kernel.layer_source(plain, cover, only)
            assert kernel.layer_source(hostile, cover, only) == source
        assert "bit_count((p >> " in kernel.layer_source(plain)
        assert explore(hostile.config).state_count == explore(plain.config).state_count

    def test_edges_call_only_the_bookkeeping_and_the_rank_counter(self):
        # The atomic-order guard and the rank are written in integers too:
        # no edge calls a function of the package.
        called = set()
        for config in _configs():
            cc = compile_config(config)
            for cover, only in _variants(cc):
                tree = ast.parse(kernel.layer_source(cc, cover, only))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call):
                        func = node.func
                        called.add(func.attr if isinstance(func, ast.Attribute) else func.id)
                namespace = kernel.search_layer(cc, cover, only).__globals__
                assert set(namespace) == {"__builtins__", "bit_count"}
                assert namespace["__builtins__"] == {"len": len}
                assert namespace["bit_count"] is int.bit_count
        assert called == CALLED_NAMES

    def test_one_layer_per_variant_kept_on_the_config(self, iriw_fence):
        cc = compile_config(iriw_fence.config)
        layer = kernel.search_layer(cc)
        assert kernel.search_layer(cc) is layer
        cover = ((kernel.OBS_STORE_WF, 1 << cc.state_bits),)
        assert kernel.search_layer(cc, cover, True) is not layer
        assert cc.search_layers[((), False)] is layer

    def test_source_is_independent_of_the_string_hash_seed(self):
        script = ("import sys; sys.path.insert(0, 'tests'); "
                  "import test_search_layer as t; print(t.source_digest())")
        digests = set()
        for seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, cwd=Path(__file__).parents[1])
            digests.add(run.stdout)
        assert digests == {source_digest() + "\n"}


def source_digest() -> str:
    """SHA-256 over the layer sources of the corpus, the large input and
    the first 20 sampled configurations, every variant."""
    digest = hashlib.sha256()
    for config in itertools.islice(_configs(), 28):
        cc = compile_config(config)
        for cover, only in _variants(cc):
            digest.update(kernel.layer_source(cc, cover, only).encode())
    return digest.hexdigest()
