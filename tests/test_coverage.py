"""Register-combination coverage and suite event coverage."""

from itertools import permutations

import pytest

from memlit.coverage import cover, event_coverage, reg_combos
from memlit.explorer import explore, explore_test
from memlit.kernel import EVENT_NAMES


class TestRegCombos:
    def test_two_registers_two_values(self):
        combos = reg_combos({"R1", "R2"}, {0, 1})
        assert combos == [
            {"R1": 0, "R2": 0},
            {"R1": 0, "R2": 1},
            {"R1": 1, "R2": 0},
            {"R1": 1, "R2": 1},
        ]

    def test_single_register_single_value(self):
        assert reg_combos({"R1"}, {0}) == [{"R1": 0}]

    def test_three_values_cardinality(self):
        assert len(reg_combos({"R1"}, {0, 1, 2})) == 3

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            reg_combos(set(), {0})


class TestCover:
    def test_iriw_fence_fifteen_of_sixteen(self, iriw_fence):
        res = explore_test(iriw_fence)
        rel = cover(iriw_fence, res, ("M2", "M3"))
        assert rel.total == 16
        assert len(rel.covered) == 15
        assert rel.uncovered() == [(2, 2)]

    def test_nofence_all_sixteen(self, iriw_nofence):
        res = explore_test(iriw_nofence)
        rel = cover(iriw_nofence, res, ("M2", "M3"))
        assert len(rel.covered) == 16

    def test_writer_fence_orders_stores_for_everyone(self, iriw_fence_all):
        # With the writer fenced, no reader can see the second store
        # without the first, so the whole M3=C2 column drops out.
        res = explore_test(iriw_fence_all)
        rel = cover(iriw_fence_all, res, ("M2", "M3"))
        assert len(rel.covered) == 12
        assert set(rel.uncovered()) == {(0, 2), (1, 2), (2, 2), (3, 2)}

    def test_never_triggering_watch_gives_empty_relation(self, iriw_fence):
        # The relation collects pairs only from states where every watched
        # load has been observed; with no such state it stays empty.
        import dataclasses

        res = dataclasses.replace(
            explore_test(iriw_fence), trigger_register_maps=frozenset()
        )
        rel = cover(iriw_fence, res, ("M2", "M3"))
        assert rel.covered == set()
        assert rel.to_json()["coveredCount"] == 0

    def test_corpus_loads_always_eventually_all_observe(self, all_corpus):
        # Observation guards never wedge a whole corpus test: some
        # interleaving observes every load.
        for name, t in all_corpus.items():
            res = explore_test(t)
            assert res.trigger_register_maps, name

    def test_unknown_watched_master_rejected(self, iriw_fence):
        res = explore_test(iriw_fence)
        with pytest.raises(KeyError):
            cover(iriw_fence, res, ("M2", "M9"))

    def test_cover_same_from_explore_and_explore_test(self, all_corpus):
        # Every exploration collects trigger data, so cover needs no
        # particular entry point.
        for name, t in all_corpus.items():
            by_config, by_test = explore(t.config), explore_test(t)
            for pair in permutations(t.config.masters, 2):
                assert cover(t, by_config, pair) == cover(t, by_test, pair), (name, pair)

    def test_forbidden_pair_never_covered_when_outcome_holds(self, iriw_fence):
        from memlit.explorer import check_outcome

        assert check_outcome(iriw_fence).kind == "Holds"
        res = explore_test(iriw_fence)
        rel = cover(iriw_fence, res, ("M2", "M3"))
        assert (2, 2) not in rel.covered

    def test_cover_of_explore_test_counts_fifteen(self, iriw_fence):
        res = explore_test(iriw_fence)
        rel = cover(iriw_fence, res, ("M2", "M3"))
        assert len(rel.covered) == 15


class TestEventCoverage:
    def test_iriw_fence_alone_not_full(self, iriw_fence):
        ec = event_coverage([explore_test(iriw_fence)])
        assert ec.verdict == "NOT-FULL"
        missing = set(ec.uncovered())
        assert "ObserveScRelStore" in missing and "ObserveScAcqLoad" in missing

    def test_three_variant_suite_full(self, iriw_fence_all, iriw_nofence, iriw_atomic):
        results = [explore_test(t) for t in (iriw_fence_all, iriw_nofence, iriw_atomic)]
        ec = event_coverage(results)
        assert ec.verdict == "FULL"
        assert ec.uncovered() == []

    def test_empty_suite_all_uncovered(self):
        ec = event_coverage([])
        assert ec.verdict == "NOT-FULL"
        assert ec.uncovered() == list(EVENT_NAMES)

    def test_writer_fence_needed_for_fenced_store_observation(
        self, iriw_fence, iriw_nofence, iriw_atomic
    ):
        """The canonical iriw trio never fires ObserveStoreWithFence: no
        store has a fence-issuing issuer.  This pins why the aggregate
        suite uses the all-fences variant."""
        results = [explore_test(t) for t in (iriw_fence, iriw_nofence, iriw_atomic)]
        ec = event_coverage(results)
        assert ec.verdict == "NOT-FULL"
        assert ec.uncovered() == ["ObserveStoreWithFence"]

    def test_report_shape(self, iriw_fence):
        doc = event_coverage([explore_test(iriw_fence)]).to_json()
        assert doc["verdict"] == "NOT-FULL"
        assert "iriw-fence" in doc["perTest"]
