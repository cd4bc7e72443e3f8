"""Exploration, verdicts, replay and trace-ordering checkers."""

import gc
import itertools
import random
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

from memlit import corpus, explorer, testgen
from memlit.explorer import (
    DEFAULT_MAX_STATES,
    ReplayError,
    StateLimitExceeded,
    _explore_full,
    check_outcome,
    explore,
    explore_test,
    replay,
)
from memlit.kernel import EVENT_NAMES, EventDescriptor, successors, to_descriptor
from memlit.litmus import parse
from memlit.model import InstrKind, SystemConfig, compile_config

from oracle import (
    SAMPLED_SEEDS,
    check_state_invariants,
    check_trace_orderings,
    dfs_register_sets,
    edge_bfs,
    edge_path,
    enumerate_paths,
    fire,
    init_state,
    pack,
    random_config,
    random_walk,
    replay_states,
    replay_unguarded,
    sc_register_files,
)
from test_kernel import make_config


class TestCanonicalKey:
    """The search deduplicates on the packed state, ``pack(cc, state)``."""

    def test_repeated_init_states_agree(self, iriw_fence):
        cc = compile_config(iriw_fence.config)
        a = init_state(iriw_fence.config)
        b = init_state(iriw_fence.config)
        assert pack(cc, a) == pack(cc, b)

    def test_lov_difference_changes_key(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = init_state(cfg)
        st2 = fire(st, cfg, EventDescriptor(name="IssueStore", s="I11"))
        st3 = fire(st2, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"))
        assert pack(cc, st2) != pack(cc, st3)

    def test_commuting_observations_converge(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        obs_m2 = EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2")
        obs_m3 = EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M3")
        one = fire(fire(st, cfg, obs_m2), cfg, obs_m3)
        other = fire(fire(st, cfg, obs_m3), cfg, obs_m2)
        assert pack(cc, one) == pack(cc, other)


class TestExplore:
    def test_empty_config_single_state(self):
        res = explore(SystemConfig.build([], {}))
        assert res.state_count == 1
        assert res.transition_count == 0

    def test_single_store_with_bystander_master(self):
        """One store, two masters: init, issued, then each nonempty
        observer subset; the observer-free issued state is one state, not
        two.  Cross-checked against raw path enumeration."""
        cfg = make_config({"M1": [(InstrKind.STORE, "a1", 1)], "M2": []})
        res = explore(cfg)
        finals, paths = enumerate_paths(cfg)
        assert res.state_count == 5
        assert res.final_register_maps == frozenset(finals)

    def test_iriw_fence_register_maps(self, iriw_fence):
        res = explore_test(iriw_fence)
        assert len(res.final_register_maps) == 15
        # Projection to the reader pair keeps all 15: the writer has no
        # registers in play.
        cc = res.compiled
        proj = {
            tuple(rf[cc.master_index[m]] for m in ("M2", "M3"))
            for rf in res.final_register_maps
        }
        assert len(proj) == 15

    def test_state_limit(self, iriw_fence):
        with pytest.raises(StateLimitExceeded) as err:
            explore(iriw_fence.config, max_states=100)
        e = err.value
        assert e.max_states == 100
        # State 101 lies in the layer after the one being expanded.
        sizes = layer_sizes(iriw_fence.config, 101)
        assert sum(sizes[: e.depth + 1]) <= 100 < sum(sizes[: e.depth + 2])
        assert e.frontier == sizes[e.depth]
        assert str(e).startswith("exploration exceeded 100 states")
        assert f"depth {e.depth} ({e.frontier} frontier states)" in str(e)

    def test_exploration_deterministic_across_runs(self, iriw_fence):
        a = explore_test(iriw_fence)
        b = explore_test(iriw_fence)
        assert (a.state_count, a.transition_count) == (b.state_count, b.transition_count)
        assert a.final_register_maps == b.final_register_maps
        assert a.event_tally == b.event_tally

    def test_result_json_field_names(self, iriw_fence):
        doc = explore_test(iriw_fence).to_json()
        assert set(doc) == {"name", "stateCount", "transitions", "finalRegisterMaps", "eventTally"}
        assert doc["stateCount"] == 8124
        assert len(doc["finalRegisterMaps"]) == 15
        assert doc["finalRegisterMaps"] == sorted(
            doc["finalRegisterMaps"], key=lambda d: sorted((m, sorted(v.items())) for m, v in d.items())
        )


class TestLargeInput:
    """The benchmark's ``large`` input, pinned: the search over it must
    not change by one state, transition or register file."""

    LITMUS = Path(__file__).parents[1] / "bench" / "iriw-3readers.litmus"

    def test_iriw_3readers_exploration(self):
        doc = explore_test(parse(self.LITMUS.read_text())).to_json()
        assert (doc["stateCount"], doc["transitions"]) == (131_752, 707_615)
        assert doc["eventTally"] == {
            "IssueFence": 107_220,
            "IssueLoad": 131_216,
            "IssueScAcqLoad": 0,
            "IssueScRelStore": 0,
            "IssueStore": 14_112,
            "ObserveLoadAfterStoreWithFence": 61_100,
            "ObserveLoadAfterStoreWithoutFence": 18_428,
            "ObserveLoadHappensBeforeWithFence": 57_495,
            "ObserveLoadWithoutFence": 19_168,
            "ObserveScAcqLoad": 0,
            "ObserveScRelStore": 0,
            "ObserveStoreWithFence": 274_796,
            "ObserveStoreWithoutFence": 24_080,
        }
        # Every reader pair of values except M3 seeing a2 = 1 before
        # a1 = 0: M1's fence orders its stores, M3's fence its loads.
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert doc["finalRegisterMaps"] == [
            {
                "M1": {"R1": 0, "R2": 0},
                "M2": {"R1": m2[0], "R2": m2[1]},
                "M3": {"R1": m3[0], "R2": m3[1]},
                "M4": {"R1": m4[0], "R2": m4[1]},
            }
            for m2, m3, m4 in itertools.product(pairs, pairs, pairs)
            if m3 != (1, 0)
        ]


def layer_sizes(config, total: int) -> list[int]:
    """Sizes of the breadth-first layers until they hold ``total`` states."""
    cc = compile_config(config)
    layer = [pack(cc, init_state(config))]
    seen = set(layer)
    sizes = [1]
    while layer and sum(sizes) < total:
        nxt = []
        for st in layer:
            for _, succ in successors(cc, st):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        layer = nxt
        sizes.append(len(nxt))
    return sizes


def _full_space(config):
    return _explore_full(config, max_states=DEFAULT_MAX_STATES, name="", stop_predicate=None)[1]


class TestTracesFromParents:
    """The search stores only each node's parent and ``events_to`` re-expands
    parents to recover events.  Every trace must equal the path that a
    search storing (parent, event) edges, ``oracle.edge_bfs``, gives."""

    @staticmethod
    def assert_every_node_agrees(space, expand):
        root = next(iter(space.parents))
        edges = edge_bfs(root, expand)
        assert list(space.parents) == list(edges)[: len(space.parents)]
        for node in space.parents:
            assert space.events_to(node) == edge_path(edges, node), node

    @pytest.mark.parametrize("name", ["mp-fence", "mp-relaxed", "iriw-nofence"])
    def test_every_node_of_a_corpus_test(self, all_corpus, name):
        config = all_corpus[name].config
        cc = compile_config(config)
        self.assert_every_node_agrees(_full_space(config), partial(successors, cc))

    def test_every_node_of_sampled_configs(self):
        for seed in range(20):  # the first 20 of SAMPLED_SEEDS
            config = random_config(random.Random(seed), max_per_master=2)
            cc = compile_config(config)
            self.assert_every_node_agrees(_full_space(config), partial(successors, cc))

    def test_corpus_witnesses_and_counterexamples(self, all_corpus):
        checked = 0
        for name, t in all_corpus.items():
            cc = compile_config(t.config)
            edges = edge_bfs(cc.initial_state, partial(successors, cc))
            for trace in (explore_test(t).witness, check_outcome(t).counterexample):
                if trace is None:
                    continue
                end = pack(cc, replay(t.config, trace))
                assert trace == tuple(to_descriptor(cc, ev) for ev in edge_path(edges, end)), name
                checked += 1
        assert checked >= len(all_corpus) + 2

    def test_a_holds_verdict_builds_no_trace(self, iriw_fence, all_corpus, monkeypatch):
        # The search runs on the generated layer; ``successors`` only
        # re-expands parents.  A search that stops nowhere calls it never;
        # one that stops calls it once per trace step, and once to count
        # the edges of the stop node's parent that its layer left.
        import memlit.explorer as explorer_mod

        calls = []
        real = explorer_mod.successors
        monkeypatch.setattr(
            explorer_mod, "successors", lambda cc, st: calls.append(st) or real(cc, st)
        )
        verdict = check_outcome(iriw_fence)
        assert (verdict.kind, verdict.state_count) == ("Holds", 8124)
        assert calls == []
        verdict = check_outcome(all_corpus["iriw-nofence"])
        assert verdict.kind == "Violated"
        assert len(calls) == len(verdict.counterexample) + 1

    # The gen targets of the benchmark's corpus workload: (test, M2 and M3
    # combos, --cover-events, reachable).
    @pytest.mark.parametrize(
        "name, combos, cover, reachable",
        [
            ("iriw-fence", (0, 0), (), True),
            ("iriw-nofence", (0, 0), (), True),
            ("iriw-atomic", (0, 0), (), True),
            ("iriw-fence-all", (0, 0), (), True),
            ("iriw-fence-all", (3, 3),
             ("ObserveStoreWithFence", "ObserveLoadAfterStoreWithFence"), True),
            ("iriw-fence", (2, 2), (), False),
        ],
    )
    def test_find_trace(self, all_corpus, monkeypatch, name, combos, cover, reachable):
        spaces = []
        real = explorer._explore_full

        def explore_full(*args, **kwargs):
            result, space = real(*args, **kwargs)
            spaces.append(space)
            return result, space

        monkeypatch.setattr(explorer, "_explore_full", explore_full)
        t = all_corpus[name]
        target = testgen.TestTarget(testgen.PairGoal(("M2", "M3"), combos), frozenset(cover))
        if not reachable:
            with pytest.raises(testgen.Unreachable):
                testgen.find_trace(t, target)
            (space,) = spaces
            self.assert_every_node_agrees(space, space.expand)
            return
        case = testgen.find_trace(t, target)
        (space,) = spaces
        edges = edge_bfs(next(iter(space.parents)), space.expand)
        events = edge_path(edges, space.stop)
        cc = compile_config(t.config)
        assert case.trace == tuple(to_descriptor(cc, ev) for ev in events)
        assert {EVENT_NAMES[ev[0]] for ev in events} >= set(cover)


class TestSearchMemory:
    def test_iriw_fence_bytes_per_state(self, iriw_fence):
        # The parent map holds one int key and one reference per state:
        # about 78 B/state on CPython 3.11. A (parent, event) pair per
        # state as well reads about 112.
        explore_test(iriw_fence)  # warm the compile cache and event table
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            space = _full_space(iriw_fence.config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(space.parents) == 8124
        assert peak / len(space.parents) < 100


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_setting_restored(self, iriw_fence, enabled):
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            explore_test(iriw_fence)
            assert gc.isenabled() is enabled
            with pytest.raises(StateLimitExceeded):
                explore_test(iriw_fence, max_states=100)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_collector_paused_during_search(self, iriw_fence, monkeypatch):
        import memlit.explorer as explorer_mod

        seen = set()
        real = explorer_mod.successors

        def probe(cc, st):
            seen.add(gc.isenabled())
            return real(cc, st)

        monkeypatch.setattr(explorer_mod, "successors", probe)
        assert gc.isenabled()
        explore_test(iriw_fence)
        assert seen == {False}

    def test_search_leaves_no_cyclic_garbage(self, iriw_fence):
        gc.collect()
        explore_test(iriw_fence)
        assert gc.collect() == 0


def test_corpus_exploration_preserves_invariants(all_corpus):
    # Every reachable state of every corpus test satisfies the machine
    # invariants: the DFS oracle checks each state it visits, and visits
    # as many as the explorer.
    for name, t in all_corpus.items():
        res = explore(t.config, name=name)
        _finals, _triggers, seen = dfs_register_sets(t.config)
        assert res.state_count == seen > 0, name


def test_mp_fence_holds_and_exercises_fenced_store_observation(all_corpus):
    t = all_corpus["mp-fence"]
    assert check_outcome(t).kind == "Holds"
    res = explore_test(t)
    assert res.event_tally["ObserveStoreWithFence"] > 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_small_random_configs_match_dfs(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng, max_per_master=2)
        res = explore(cfg)
        finals, _triggers, seen = dfs_register_sets(cfg)
        assert res.final_register_maps == frozenset(finals)
        assert res.state_count == seen

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_tiny_configs_match_raw_path_enumeration(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng, max_per_master=1)
        res = explore(cfg)
        finals, _ = enumerate_paths(cfg)
        assert res.final_register_maps == frozenset(finals)

    def test_sampled_configs_match_dfs_with_invariants(self):
        # The oracle runs every state it visits through
        # check_state_invariants; equal state counts mean every explored
        # state was checked.
        for seed in range(SAMPLED_SEEDS):
            cfg = random_config(random.Random(seed), max_per_master=2)
            res = explore(cfg)
            finals, triggers, seen = dfs_register_sets(cfg)
            assert res.final_register_maps == frozenset(finals), seed
            assert res.trigger_register_maps == frozenset(triggers), seed
            assert res.state_count == seen, seed

    def test_nine_instruction_writer_fence_variant_matches_dfs(self, iriw_fence_all):
        res = explore_test(iriw_fence_all)
        finals, triggers, seen = dfs_register_sets(iriw_fence_all.config)
        assert res.final_register_maps == frozenset(finals)
        assert res.trigger_register_maps == frozenset(triggers)
        assert res.state_count == seen


class TestScInclusion:
    """Every sequentially consistent outcome is a final register file of
    the model: the weak machine only adds behaviours."""

    def test_corpus(self, all_corpus):
        for name, t in all_corpus.items():
            sc = sc_register_files(t.config)
            assert sc and sc <= explore(t.config).final_register_maps, name

    def test_sampled_configs(self):
        for seed in range(SAMPLED_SEEDS):
            cfg = random_config(random.Random(seed), max_per_master=2)
            sc = sc_register_files(cfg)
            assert sc and sc <= explore(cfg).final_register_maps, seed


class TestCheckOutcome:
    def test_iriw_fence_holds(self, iriw_fence):
        assert check_outcome(iriw_fence).kind == "Holds"

    def test_nofence_violated_with_replayable_witness(self, iriw_nofence):
        v = check_outcome(iriw_nofence)
        assert v.kind == "Violated"
        final = replay(iriw_nofence.config, v.counterexample)
        cc = compile_config(iriw_nofence.config)
        rf = {
            m: {r: final.rf[mi][ri] for ri, r in enumerate(cc.reg_names)}
            for mi, m in enumerate(cc.masters)
        }
        assert iriw_nofence.outcome.evaluate(rf)
        watched_mask = 0
        for lid in iriw_nofence.watched_loads:
            watched_mask |= 1 << cc.slot(lid)
        assert final.observed & watched_mask == watched_mask

    def test_required_initial_value_holds(self):
        t = parse('litmus "t"\nmaster M2 { I1: LD R1 a1; }\nrequired M2:R1 = 0\n')
        assert check_outcome(t).kind == "Holds"

    def test_allowed_reachable_and_unreachable(self):
        t = parse('litmus "r"\nmaster M1 { I1: ST a1 #1; }\nmaster M2 { I2: LD R1 a1; }\nallowed M2:R1 = 1\n')
        assert check_outcome(t).kind == "Reachable"
        t2 = parse('litmus "u"\nmaster M1 { I1: ST a1 #1; }\nmaster M2 { I2: LD R1 a1; }\nallowed M2:R1 = 2\n')
        assert check_outcome(t2).kind == "Unreachable"


class TestFenceRules:
    """The verdicts the fence rules should give: everything ahead of a
    fence is observed by every master before anything behind it.  The
    model does not do this yet, so each case is a strict expected failure
    that turns into a pass once the rules are fixed."""

    @pytest.mark.parametrize("source, verdict", [
        pytest.param(
            'litmus "fence-after-load"\nmaster M1 { I1: LD R1 a1; I2: FENCE; I3: ST a2 #1; }\n'
            'master M2 { I4: LD R2 a2; }\nallowed M2:R2 = 1\n', "Reachable",
            marks=pytest.mark.xfail(strict=True, reason="a load ahead of a fence is observed "
                                    "only by its issuer, so no other master passes the fence"),
            id="load-ahead-of-fence"),
        pytest.param(
            'litmus "trailing-fence"\nmaster M1 { I1: ST a1 #1; I2: FENCE; I3: LD R1 a1; I4: FENCE; }\n'
            'forbidden M1:R1 = 0\n', "Holds",
            marks=pytest.mark.xfail(strict=True, reason="an observation may name any issued "
                                    "fence of its issuer, not the one that orders it"),
            id="any-fence-will-do"),
        pytest.param(
            corpus.corpus_path("mp-fence").read_text().replace(
                "I23: LD R2 data", "I23: SCLD.ACQ R2 data"), "Holds",
            marks=pytest.mark.xfail(strict=True, reason="ObserveScAcqLoad has no fence guard"),
            id="acquire-load-behind-fence"),
    ])
    def test_verdict(self, source, verdict):
        assert check_outcome(parse(source)).kind == verdict


class TestReplay:
    def test_empty_trace_is_init(self, iriw_fence):
        assert replay(iriw_fence.config, ()) == init_state(iriw_fence.config)

    def test_out_of_order_issue_fails(self, iriw_fence):
        with pytest.raises(ReplayError) as err:
            replay(iriw_fence.config, (EventDescriptor(name="IssueStore", s="I12"),))
        assert err.value.step == 0
        assert err.value.cause.guard == "grd3"

    @pytest.mark.parametrize("k", [0, 2])
    def test_unknown_event_reports_its_step(self, iriw_fence, k):
        good = (
            EventDescriptor(name="IssueStore", s="I11"),
            EventDescriptor(name="IssueStore", s="I12"),
        )
        trace = good[:k] + (EventDescriptor(name="NotAnEvent", s="I11"),)
        with pytest.raises(ReplayError) as err:
            replay(iriw_fence.config, trace)
        assert err.value.step == k
        assert err.value.cause.guard == "grd0"

    @pytest.mark.parametrize("doc", [
        {"name": "IssueStore", "s": ["I11"]},
        {"name": ["IssueStore"], "s": "I11"},
        {"name": "ObserveStoreWithoutFence", "s": "I11", "m": {"id": "M2"}},
    ])
    def test_json_list_or_object_in_a_step_reports_its_step(self, iriw_fence, doc):
        trace = (EventDescriptor(name="IssueStore", s="I11"), EventDescriptor.from_json(doc))
        with pytest.raises(ReplayError) as err:
            replay(iriw_fence.config, trace)
        assert err.value.step == 1
        assert err.value.cause.guard == "grd0"

    def test_after_store_load_without_witness_keeps_after(self, iriw_fence):
        # With guards off, an after-store observation that names no
        # witness store leaves every after set as it was.
        cfg = iriw_fence.config
        trace = (
            EventDescriptor(name="IssueLoad", l="I21"),
            EventDescriptor(name="ObserveLoadAfterStoreWithoutFence", l="I21", m="M2"),
        )
        states = replay_unguarded(cfg, trace)
        n_instr = compile_config(cfg).n_instr
        assert [len(st.after) for st in states] == [n_instr] * 3
        assert states[-1].after == states[0].after
        names = {v.invariant for st in states for v in check_state_invariants(st, cfg)}
        assert "inv7" not in names

    def test_counterexample_prefixes_replay(self, iriw_nofence):
        v = check_outcome(iriw_nofence)
        for cut in range(len(v.counterexample) + 1):
            replay(iriw_nofence.config, v.counterexample[:cut])


class TestTraceOrderings:
    def test_fence_trace_passes_all(self, iriw_fence):
        from memlit.testgen import PairGoal, TestTarget, find_trace

        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (3, 3))))
        report = check_trace_orderings(iriw_fence.config, tc.trace)
        assert report.po.status == "pass"
        assert report.co.status == "pass"
        assert report.hb.status in ("pass", "not-applicable")

    def test_nofence_trace_po_not_applicable(self, iriw_nofence):
        v = check_outcome(iriw_nofence)
        report = check_trace_orderings(iriw_nofence.config, v.counterexample)
        assert report.po.status == "not-applicable"
        assert report.co.status == "pass"

    def test_corrupted_pre_post_fence_swap_fails_po(self, iriw_fence):
        cfg = iriw_fence.config
        trace = (
            EventDescriptor(name="IssueStore", s="I11"),
            EventDescriptor(name="IssueStore", s="I12"),
            EventDescriptor(name="IssueLoad", l="I21"),
            EventDescriptor(name="IssueFence", f="I22"),
            EventDescriptor(name="IssueLoad", l="I23"),
            # Post-fence load observed before the pre-fence load: invalid.
            EventDescriptor(name="ObserveLoadHappensBeforeWithFence", l="I23", s="I12", m="M2", f="I22"),
            EventDescriptor(name="ObserveLoadHappensBeforeWithFence", l="I21", s="I11", m="M2", f="I22"),
        )
        with pytest.raises(ReplayError):
            replay_states(cfg, trace)
        report = check_trace_orderings(cfg, trace)
        assert report.po.status == "fail"
        assert any("I23" in w for w in report.po.witnesses)
        assert report.co.status == "pass"

    def test_random_exploration_traces_pass(self, iriw_fence):
        from memlit.testgen import PairGoal, TestTarget, find_trace

        for pair in ((0, 0), (1, 2), (3, 0)):
            tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), pair)))
            assert check_trace_orderings(iriw_fence.config, tc.trace).all_pass()

    def test_guard_valid_traces_never_violate_orderings(self, all_corpus):
        # Corollary of guard correctness: whatever interleaving the
        # machine admits, the three ordering properties hold on it.
        from memlit.kernel import to_descriptor
        from memlit.model import compile_config as cc_of

        rng = random.Random(99)
        for name, t in all_corpus.items():
            cc = cc_of(t.config)
            for _ in range(40):
                walk = random_walk(t.config, rng)
                trace = tuple(to_descriptor(cc, ev) for ev, _ in walk)
                report = check_trace_orderings(t.config, trace)
                assert report.all_pass(), (name, report)
