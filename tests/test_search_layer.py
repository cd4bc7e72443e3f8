"""The generated search layers (``kernel.search_layer``) against the loop
over ``successors`` edges they replaced (``oracle.reference_explore_full``),
and the hygiene of the source they are compiled from."""

import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from memlit import corpus, explorer, kernel
from memlit.explorer import StateLimitExceeded, check_outcome, explore, explore_test
from memlit.litmus import parse
from memlit.model import Instruction, InstrKind, SystemConfig, compile_config
from memlit.testgen import PairGoal, TestTarget, Unreachable, find_trace

from oracle import SAMPLED_SEEDS, random_config, reference_explore_full

LARGE = Path(__file__).parents[1] / "bench" / "iriw-3readers.litmus"


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


# Every name a generated layer may use.
ALLOWED_NAMES = frozenset({
    "layer", "frontier", "parents", "finals", "triggers", "stop", "limit", "exceeded", "depth",
    "tally", "cc", "halt", "out", "append", "final", "p", "e", "q", "k", "len",
    "next_rank", *(f"t{code}" for code in range(len(kernel.EVENT_NAMES))),
    *(f"read{i}" for i in range(len(kernel._READS))),
})


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

    def test_hostile_ids_emit_the_source_of_plain_ones(self):
        hostile = compile_config(_hostile_config(False))
        plain = compile_config(_hostile_config(True))
        assert hostile.masters != plain.masters
        for cover, only in _variants(plain):
            source = kernel.layer_source(plain, cover, only)
            assert kernel.layer_source(hostile, cover, only) == source
        assert "read0(cc, p, " in kernel.layer_source(plain)
        assert explore(hostile.config).state_count == explore(plain.config).state_count

    def test_read_guards_are_bound_names(self, iriw_atomic):
        cc = compile_config(iriw_atomic.config)
        source = kernel.layer_source(cc)
        used = {node.func.id for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call) and node.func.id.startswith("read")}
        assert used == {"read0"}
        namespace = kernel.search_layer(cc).__globals__
        reads = {g.read for rule in kernel.RULES for g in rule if g.read}
        assert namespace["read0"] is kernel._atomic_order_ok and {namespace["read0"]} == reads
        assert set(namespace) == {"__builtins__", "next_rank", "read0"}
        assert namespace["__builtins__"] == {"len": len}

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
