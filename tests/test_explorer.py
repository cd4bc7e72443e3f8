"""Exploration, verdicts, replay and trace-ordering checkers."""

import gc
import random

import pytest

from memlit.explorer import (
    ReplayError,
    StateLimitExceeded,
    canonical_key,
    check_outcome,
    check_trace_orderings,
    explore,
    explore_test,
    replay,
    replay_states,
)
from memlit.kernel import (
    EventDescriptor,
    check_state_invariants,
    fire,
    init_state,
    pack,
    successors,
)
from memlit.litmus import parse
from memlit.model import InstrKind, SystemConfig, compile_config

from oracle import (
    dfs_register_sets,
    enumerate_paths,
    random_config,
    random_walk,
    sc_register_files,
)
from test_kernel import make_config

# Seeded random_config(max_per_master=2) samples the oracle checks cover.
SAMPLED_SEEDS = 120


class TestCanonicalKey:
    def test_repeated_init_states_agree(self, iriw_fence):
        a = init_state(iriw_fence.config)
        b = init_state(iriw_fence.config)
        assert canonical_key(a) == canonical_key(b)

    def test_lov_difference_changes_key(self, iriw_fence):
        cfg = iriw_fence.config
        st = init_state(cfg)
        st2 = fire(st, cfg, EventDescriptor(name="IssueStore", s="I11"))
        st3 = fire(st2, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"))
        assert canonical_key(st2) != canonical_key(st3)

    def test_commuting_observations_converge(self, iriw_fence):
        cfg = iriw_fence.config
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        obs_m2 = EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2")
        obs_m3 = EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M3")
        one = fire(fire(st, cfg, obs_m2), cfg, obs_m3)
        other = fire(fire(st, cfg, obs_m3), cfg, obs_m2)
        assert canonical_key(one) == canonical_key(other)


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

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_counts_do_not_change_results(self, iriw_fence, workers):
        seq = explore_test(iriw_fence)
        par = explore_test(iriw_fence, workers=workers)
        assert seq.state_count == par.state_count
        assert seq.transition_count == par.transition_count
        assert seq.final_register_maps == par.final_register_maps
        assert seq.trigger_register_maps == par.trigger_register_maps
        assert seq.event_tally == par.event_tally

    def test_result_json_field_names(self, iriw_fence):
        doc = explore_test(iriw_fence).to_json()
        assert set(doc) == {"name", "stateCount", "transitions", "finalRegisterMaps", "eventTally"}
        assert doc["stateCount"] == 8124
        assert len(doc["finalRegisterMaps"]) == 15
        assert doc["finalRegisterMaps"] == sorted(
            doc["finalRegisterMaps"], key=lambda d: sorted((m, sorted(v.items())) for m, v in d.items())
        )


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
    # Every explored state of every corpus test satisfies the machine
    # invariants; a violation would abort with a witness trace.
    for name, t in all_corpus.items():
        res = explore(t.config, check_invariants=True, name=name)
        assert res.state_count > 0


def test_invariant_violation_aborts_with_witness(iriw_fence, monkeypatch):
    import memlit.explorer as explorer_mod
    from memlit.kernel import Violation

    real = explorer_mod.check_state_invariants

    def planted(state, config):
        if state.issued:
            return [Violation("planted", "injected for the abort path")]
        return real(state, config)

    monkeypatch.setattr(explorer_mod, "check_state_invariants", planted)
    with pytest.raises(explorer_mod.InvariantViolated) as err:
        explore(iriw_fence.config, check_invariants=True)
    assert err.value.violations[0].invariant == "planted"
    # The witness trace replays up to the offending state.
    assert len(err.value.trace) == 1


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
        # check_invariants runs every search state, unpacked, through
        # check_state_invariants, which catches pack/unpack slips.
        for seed in range(SAMPLED_SEEDS):
            cfg = random_config(random.Random(seed), max_per_master=2)
            watched = frozenset(i.id for i in cfg.instructions() if i.is_load())
            res = explore(cfg, check_invariants=True, watched_loads=watched)
            finals, triggers, seen = dfs_register_sets(cfg, watched)
            assert res.final_register_maps == frozenset(finals), seed
            assert res.trigger_register_maps == frozenset(triggers), seed
            assert res.state_count == seen, seed

    def test_nine_instruction_writer_fence_variant_matches_dfs(self, iriw_fence_all):
        res = explore_test(iriw_fence_all)
        finals, triggers, seen = dfs_register_sets(
            iriw_fence_all.config, iriw_fence_all.watched_loads
        )
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


@pytest.mark.parametrize("seed", range(6))
def test_worker_partitioning_on_random_configs(seed):
    rng = random.Random(1000 + seed)
    cfg = random_config(rng, max_per_master=2)
    seq = explore(cfg, name="x")
    par = explore(cfg, workers=3, name="x")
    assert seq.state_count == par.state_count
    assert seq.transition_count == par.transition_count
    assert seq.final_register_maps == par.final_register_maps
    assert seq.event_tally == par.event_tally


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

    def test_verdict_stable_across_workers(self, iriw_nofence):
        one = check_outcome(iriw_nofence, workers=1)
        two = check_outcome(iriw_nofence, workers=2)
        assert one.kind == two.kind == "Violated"
        assert one.state_count == two.state_count
        assert one.counterexample == two.counterexample


class TestReplay:
    def test_empty_trace_is_init(self, iriw_fence):
        assert replay(iriw_fence.config, ()) == init_state(iriw_fence.config)

    def test_out_of_order_issue_fails(self, iriw_fence):
        with pytest.raises(ReplayError) as err:
            replay(iriw_fence.config, (EventDescriptor(name="IssueStore", s="I12"),))
        assert err.value.step == 0
        assert err.value.cause.guard == "grd3"

    @pytest.mark.parametrize("enforce_guards", [True, False])
    @pytest.mark.parametrize("k", [0, 2])
    def test_unknown_event_reports_its_step(self, iriw_fence, k, enforce_guards):
        good = (
            EventDescriptor(name="IssueStore", s="I11"),
            EventDescriptor(name="IssueStore", s="I12"),
        )
        trace = good[:k] + (EventDescriptor(name="NotAnEvent", s="I11"),)
        with pytest.raises(ReplayError) as err:
            if enforce_guards:
                replay(iriw_fence.config, trace)
            else:
                replay_states(iriw_fence.config, trace, enforce_guards=False)
        assert err.value.step == k
        assert err.value.cause.guard == "grd0"

    def test_after_store_load_without_witness_keeps_after(self, iriw_fence):
        # With guards off, an after-store observation that names no
        # witness store leaves every after set as it was.
        cfg = iriw_fence.config
        trace = (
            EventDescriptor(name="IssueLoad", l="I21"),
            EventDescriptor(name="ObserveLoadAfterStoreWithoutFence", l="I21", m="M2"),
        )
        states = replay_states(cfg, trace, enforce_guards=False)
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
            check_trace_orderings(cfg, trace)
        report = check_trace_orderings(cfg, trace, enforce_guards=False)
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
