"""Test generation: target search, documents, generalisation, suites."""

import json
import random

import pytest

from memlit.coverage import cover
from memlit.explorer import explore_test, replay
from memlit.litmus import LitmusTest, OutcomeMode, RegisterIs, format_test, parse
from memlit.model import Instruction, InstrKind, SystemConfig
from memlit.testgen import (
    InvalidBounds,
    PairGoal,
    TestCase,
    TestTarget,
    Unreachable,
    emit_test,
    find_trace,
    generalize,
    generate_suite,
    load_test,
    verify_test,
)

from oracle import in_class


def issue_count(trace) -> int:
    return sum(1 for ev in trace if ev.name.startswith("Issue"))


class TestFindTrace:
    def test_all_zero_target_issues_exactly_six(self, iriw_fence):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (0, 0))))
        assert issue_count(tc.trace) == 6
        assert verify_test(tc).ok

    def test_forbidden_pair_unreachable(self, iriw_fence):
        with pytest.raises(Unreachable) as err:
            find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (2, 2))))
        assert err.value.states_explored > 0

    def test_goal_true_at_init_with_no_watch_gives_empty_trace(self):
        # Without loads, the initial state already observes every load.
        store = Instruction("I11", InstrKind.STORE, "M1", 1, address="a", value=1)
        config = SystemConfig.build(["M1"], {"M1": [store]})
        test = LitmusTest("no-loads", config, RegisterIs("M1", "R1", 0), OutcomeMode.ALLOWED)
        assert test.watched_loads == frozenset()
        tc = find_trace(test, TestTarget(goal=None))
        assert tc.trace == ()

    def test_every_covered_pair_reachable_and_verified(self, iriw_fence):
        rel = cover(iriw_fence, explore_test(iriw_fence), ("M2", "M3"))
        for i, j in sorted(rel.covered):
            tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (i, j))))
            res = verify_test(emit_test(tc))
            assert res.ok, (i, j, res.problems)
            # Shortest traces issue only what the outcome needs: the six
            # reader-side instructions plus any store whose value shows up.
            stores = sum(1 for ev in tc.trace if ev.name == "IssueStore")
            assert issue_count(tc.trace) == 6 + stores

    def test_must_cover_events_fire(self, iriw_fence):
        target = TestTarget(
            goal=PairGoal(("M2", "M3"), (0, 0)),
            must_cover=frozenset({"ObserveLoadHappensBeforeWithFence"}),
        )
        tc = find_trace(iriw_fence, target)
        assert any(ev.name == "ObserveLoadHappensBeforeWithFence" for ev in tc.trace)

    def test_only_these_restricts_observe_events(self, iriw_fence):
        target = TestTarget(
            goal=PairGoal(("M2", "M3"), (0, 0)),
            must_cover=frozenset({"ObserveLoadHappensBeforeWithFence"}),
            only_these=True,
        )
        tc = find_trace(iriw_fence, target)
        observed_names = {ev.name for ev in tc.trace if not ev.name.startswith("Issue")}
        assert observed_names == {"ObserveLoadHappensBeforeWithFence"}

    def test_only_these_can_make_target_unreachable(self, iriw_fence):
        # All-ones needs store observations, which the filter forbids.
        target = TestTarget(
            goal=PairGoal(("M2", "M3"), (3, 3)),
            must_cover=frozenset({"ObserveLoadHappensBeforeWithFence"}),
            only_these=True,
        )
        with pytest.raises(Unreachable):
            find_trace(iriw_fence, target)

    def test_unknown_event_name_rejected(self, iriw_fence):
        with pytest.raises(ValueError):
            find_trace(
                iriw_fence,
                TestTarget(goal=None, must_cover=frozenset({"ObserveEverything"})),
            )

    def test_goal_other_than_pair_rejected(self, iriw_fence):
        with pytest.raises(ValueError, match="PairGoal or None"):
            find_trace(iriw_fence, TestTarget(goal=RegisterIs("M2", "R1", 0)))


class TestDocuments:
    def test_emit_load_round_trip(self, iriw_fence):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (1, 1))))
        text = emit_test(tc)
        again = load_test(text)
        assert again == tc
        assert emit_test(again) == text

    def test_tampered_expected_fails_verification(self, iriw_fence):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (0, 0))))
        doc = json.loads(emit_test(tc))
        doc["expected"]["M2"]["R1"] = 1
        res = verify_test(json.dumps(doc))
        assert not res.ok
        assert any("expected" in p for p in res.problems)

    def test_truncated_trace_fails_verification(self, iriw_fence):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (0, 0))))
        doc = json.loads(emit_test(tc))
        doc["steps"] = doc["steps"][:-1]
        res = verify_test(json.dumps(doc))
        assert not res.ok

    def test_corrupted_step_reports_replay_failure(self, iriw_fence):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (0, 0))))
        doc = json.loads(emit_test(tc))
        doc["steps"][0], doc["steps"][2] = doc["steps"][2], doc["steps"][0]
        res = verify_test(json.dumps(doc))
        assert not res.ok
        assert any("replay" in p for p in res.problems)

    @pytest.mark.parametrize(
        "defect, wanted",
        [
            ("not-json", "not a test document"),
            ("no-litmus", "not a test document"),
            ("not-utf8", "not a test document"),
            ("pair-label-Cx", "target names no combo M2:Cx"),
            ("pair-label-C99", "target names no combo M2:C99"),
            ("pair-master-M9", "target names no combo M9:C0"),
            ("target-list", "malformed target or outcome field"),
            ("allowed-int", "malformed target or outcome field"),
        ],
    )
    def test_malformed_document_fails_without_raising(self, iriw_fence, defect, wanted):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (0, 0))))
        doc = json.loads(emit_test(tc))
        text = None
        if defect == "not-json":
            text = "{"
        elif defect == "no-litmus":
            del doc["litmus"]
        elif defect == "not-utf8":
            text = json.dumps(doc).encode().replace(b"iriw-fence-target", b"\xff")
        elif defect.startswith("pair-label-"):
            doc["target"]["pair"]["M2"] = defect.rsplit("-", 1)[1]
        elif defect == "pair-master-M9":
            doc["target"]["pair"] = {"M9": "C0"}
        elif defect == "target-list":
            doc["target"] = []
        else:
            doc["allowed"] = 3
        res = verify_test(json.dumps(doc) if text is None else text)
        assert not res.ok
        assert any(wanted in p for p in res.problems), res.problems


class TestPlatformCase:
    """A test's platform case: every register outcome with all loads
    observed, and the exploration's witness trace to one of them."""

    def test_iriw_allowed_outcomes_exclude_forbidden_pair(self, iriw_fence):
        res = explore_test(iriw_fence)
        case = TestCase(iriw_fence.name, format_test(iriw_fence), res.witness,
                        allowed=res.trigger_maps())
        assert len(case.allowed) == 15
        forbidden = {"M2": {"R1": 1, "R2": 0}, "M3": {"R1": 1, "R2": 0}}
        for rf in case.allowed:
            assert not all(rf[m][r] == v for m, regs in forbidden.items() for r, v in regs.items())
        assert verify_test(case).ok


class TestWitness:
    """Exploration and suite witnesses come from their own exploration and
    equal the trace of a separate goal-free ``find_trace`` search."""

    def test_platform_case_on_corpus(self, all_corpus):
        for name, test in all_corpus.items():
            expected = find_trace(test, TestTarget(goal=None)).trace
            assert explore_test(test).witness == expected, name

    def test_suite_samples(self, iriw_fence):
        # The small per-sample cap keeps this fast; 300 samples still keep
        # more than 50.
        suite = generate_suite(generalize(iriw_fence, 3), 300, seed=11,
                               max_states_per_sample=1000)
        kept = [s.case for s in suite.samples if s.case is not None]
        assert len(kept) >= 50
        for case in kept:
            expected = find_trace(parse(case.litmus), TestTarget(goal=None)).trace
            assert case.trace == expected, case.name


class TestGeneralize:
    def test_class_admits_its_seed(self, iriw_fence):
        cls = generalize(iriw_fence, 3)
        assert in_class(cls, iriw_fence.config)

    def test_zero_bounds_class_of_empty_programs(self, iriw_fence):
        cls = generalize(iriw_fence, 0)
        rng = random.Random(5)
        cfg = cls.sample(rng, tag="Z")
        assert all(len(p) == 0 for p in cfg.programs)
        assert not in_class(cls, iriw_fence.config)

    def test_negative_bounds_rejected(self, iriw_fence):
        with pytest.raises(InvalidBounds):
            generalize(iriw_fence, -1)

    def test_policy_fence_after_first_load_structural(self, iriw_fence, iriw_nofence):
        # The policy's own fence belongs to the class even when the seed
        # has no fence.
        for seed in (iriw_fence, iriw_nofence):
            cls = generalize(seed, 4, sync_policy="fence-after-first-load")
            rng = random.Random(17)
            for i in range(100):
                cfg = cls.sample(rng, tag=f"P{i}X")
                assert in_class(cls, cfg), cfg
                for prog in cfg.programs:
                    loads = [ix for ix, ins in enumerate(prog) if ins.is_load()]
                    if loads:
                        first = loads[0]
                        assert first + 1 < len(prog)
                        assert prog[first + 1].kind is InstrKind.FENCE

    def test_policy_none_rejected(self, iriw_nofence):
        with pytest.raises(InvalidBounds):
            generalize(iriw_nofence, 3, sync_policy="none")

    def test_samples_are_valid_members(self, iriw_fence):
        cls = generalize(iriw_fence, 3)
        rng = random.Random(23)
        for i in range(50):
            cfg = cls.sample(rng, tag=f"V{i}X")
            cfg.validate()
            assert in_class(cls, cfg)


class TestGenerateSuite:
    def test_count_zero_empty_suite(self, iriw_fence):
        cls = generalize(iriw_fence, 2)
        suite = generate_suite(cls, 0, seed=1)
        assert suite.samples == []

    def test_same_seed_identical_documents(self, iriw_fence):
        cls = generalize(iriw_fence, 2)
        a = generate_suite(cls, 3, seed=42, max_states_per_sample=30_000)
        b = generate_suite(cls, 3, seed=42, max_states_per_sample=30_000)
        assert json.dumps(a.manifest(), sort_keys=True) == json.dumps(b.manifest(), sort_keys=True)
        for sa, sb in zip(a.samples, b.samples):
            if sa.case is None:
                assert sb.case is None
            else:
                assert emit_test(sa.case) == emit_test(sb.case)

    def test_samples_verify_and_replay_into_allowed(self, iriw_fence):
        cls = generalize(iriw_fence, 2)
        suite = generate_suite(cls, 4, seed=9, max_states_per_sample=30_000)
        produced = [s for s in suite.samples if s.case is not None]
        for s in produced:
            res = verify_test(emit_test(s.case))
            assert res.ok, res.problems
            test = parse(s.case.litmus)
            final = replay(test.config, s.case.trace)
        assert suite.manifest()["count"] == 4

    def test_emitted_litmus_outcome_holds(self, iriw_fence):
        # The synthesized required-outcome is exactly the allowed set, so
        # checking the emitted litmus text must report Holds.
        from memlit.explorer import check_outcome

        cls = generalize(iriw_fence, 2)
        suite = generate_suite(cls, 3, seed=11, max_states_per_sample=30_000)
        for s in suite.samples:
            if s.case is None:
                continue
            verdict = check_outcome(parse(s.case.litmus))
            assert verdict.kind == "Holds"
