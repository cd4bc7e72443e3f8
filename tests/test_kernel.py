"""Kernel semantics: initialisation, guards, actions, state invariants."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlit.kernel import (
    EVENT_NAMES,
    ISSUE_CODES,
    RULES,
    EventDescriptor,
    GuardFailed,
    NotAFence,
    UnknownLoad,
    ahead_of,
    all_event_instances,
    apply_event,
    check_guards,
    check_state_invariants,
    enabled_events,
    fire,
    init_state,
    load_return_value,
    pack,
    successors,
    to_descriptor,
    unpack,
)
from memlit.model import Instruction, InstrKind, InvalidConfig, SystemConfig, compile_config

from oracle import fold_lov, random_config, random_walk


def make_config(programs: dict[str, list[tuple]], init=None) -> SystemConfig:
    """Compact builder: programs map master -> [(kind, addr, val/reg), ...]."""
    built = {}
    for m, instrs in programs.items():
        prog = []
        for ix, spec in enumerate(instrs, start=1):
            kind = spec[0]
            iid = f"{m}_{ix}"
            if kind is InstrKind.FENCE:
                prog.append(Instruction(id=iid, kind=kind, issuer=m, index=ix))
            elif kind in (InstrKind.STORE, InstrKind.SC_REL_STORE):
                prog.append(Instruction(id=iid, kind=kind, issuer=m, index=ix,
                                        address=spec[1], value=spec[2]))
            else:
                prog.append(Instruction(id=iid, kind=kind, issuer=m, index=ix,
                                        address=spec[1], register=spec[2]))
        built[m] = prog
    return SystemConfig.build(list(programs), built, initial_memory=init)


class TestInitState:
    def test_iriw_initialisation(self, iriw_fence):
        st0 = init_state(iriw_fence.config)
        cc = compile_config(iriw_fence.config)
        assert st0.lov[cc.master_index["M2"]][cc.addr_index["a1"]] == 0
        assert st0.cursor[cc.master_index["M1"]] == 1
        assert st0.issued == 0 and st0.observed == 0 and st0.issuedfence == 0
        assert st0.atomic_order == ()

    def test_empty_config(self):
        cfg = SystemConfig.build([], {})
        st0 = init_state(cfg)
        assert st0.issued == 0
        assert st0.cursor == ()
        assert st0.lov == ()

    def test_nonzero_initial_memory_reaches_every_master(self):
        cfg = make_config(
            {"M1": [(InstrKind.LOAD, "a1", "R1")], "M2": [(InstrKind.LOAD, "a1", "R1")]},
            init={"a1": 1},
        )
        st0 = init_state(cfg)
        cc = compile_config(cfg)
        for mi in range(len(cfg.masters)):
            assert st0.lov[mi][cc.addr_index["a1"]] == 1

    def test_registers_start_at_zero(self, iriw_fence):
        st0 = init_state(iriw_fence.config)
        assert all(v == 0 for row in st0.rf for v in row)

    def test_invalid_config_rejected(self):
        bad = Instruction(id="X", kind=InstrKind.STORE, issuer="M1", index=1, address="a1")
        with pytest.raises(InvalidConfig):
            SystemConfig.build(["M1"], {"M1": [bad]})


class TestPacking:
    def test_pack_inverts_unpack_on_reachable_states(self, all_corpus):
        configs = [t.config for t in all_corpus.values()]
        configs += [random_config(random.Random(seed), max_per_master=2) for seed in range(40)]
        for cfg in configs:
            cc = compile_config(cfg)
            root = pack(cc, init_state(cfg))
            assert root == cc.initial_state
            seen = {root}
            stack = [root]
            while stack:
                p = stack.pop()
                view = unpack(cc, p)
                assert pack(cc, view) == p
                assert p < 1 << cc.state_bits
                for _, nxt in successors(cc, p):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)

    def test_unrepresentable_states_rejected(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = init_state(cfg)
        with pytest.raises(ValueError):
            pack(cc, st._replace(atomic_order=(cc.slot("I11"),)))
        with pytest.raises(ValueError):
            pack(cc, st._replace(lov=((7, 0),) + st.lov[1:]))
        after = list(st.after)
        after[cc.slot("I11")] = 1 << cc.slot("I12")
        with pytest.raises(ValueError):
            pack(cc, st._replace(after=tuple(after)))


class TestAheadOf:
    def test_iriw_fence_predecessors(self, iriw_fence):
        assert ahead_of(iriw_fence.config, "I22") == {"I21"}
        assert ahead_of(iriw_fence.config, "I32") == {"I31"}

    def test_fence_first_has_no_predecessors(self):
        cfg = make_config({"M1": [(InstrKind.FENCE,), (InstrKind.STORE, "a1", 1)]})
        assert ahead_of(cfg, "M1_1") == set()

    def test_two_stores_before_fence(self):
        cfg = make_config({
            "M1": [
                (InstrKind.STORE, "a1", 1),
                (InstrKind.STORE, "a2", 1),
                (InstrKind.FENCE,),
                (InstrKind.LOAD, "a1", "R1"),
            ]
        })
        assert ahead_of(cfg, "M1_3") == {"M1_1", "M1_2"}

    def test_not_a_fence(self, iriw_fence):
        with pytest.raises(NotAFence):
            ahead_of(iriw_fence.config, "I21")
        with pytest.raises(NotAFence):
            ahead_of(iriw_fence.config, "nope")


class TestEnabledEvents:
    def test_initial_events_are_per_master_heads(self, iriw_fence):
        st0 = init_state(iriw_fence.config)
        evs = enabled_events(st0, iriw_fence.config)
        assert evs == {
            EventDescriptor(name="IssueStore", s="I11"),
            EventDescriptor(name="IssueLoad", l="I21"),
            EventDescriptor(name="IssueLoad", l="I31"),
        }

    def test_exhausted_state_has_no_events(self):
        cfg = make_config({"M1": [(InstrKind.STORE, "a1", 1)]})
        st = init_state(cfg)
        while True:
            evs = sorted(enabled_events(st, cfg), key=repr)
            if not evs:
                break
            st = fire(st, cfg, evs[0])
        assert enabled_events(st, cfg) == set()

    def test_store_observable_by_every_master_after_issue(self, iriw_fence):
        cfg = iriw_fence.config
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        evs = enabled_events(st, cfg)
        for m in cfg.masters:
            assert EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m=m) in evs

    def test_determinism(self, iriw_fence):
        st0 = init_state(iriw_fence.config)
        assert enabled_events(st0, iriw_fence.config) == enabled_events(st0, iriw_fence.config)


class TestFire:
    def test_observe_store_updates_lov_and_observers(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        st = fire(st, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"))
        assert st.lov[cc.master_index["M2"]][cc.addr_index["a1"]] == 1
        assert cc.mask_to_masters(st.observers[cc.slot("I11")]) == {"M2"}
        assert (st.observed >> cc.slot("I11")) & 1

    def test_double_observation_fails_grd3(self, iriw_fence):
        cfg = iriw_fence.config
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        ev = EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2")
        st = fire(st, cfg, ev)
        with pytest.raises(GuardFailed) as err:
            fire(st, cfg, ev)
        assert err.value.guard == "grd3"

    def test_load_after_store_with_fence_updates_rf_and_after(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = init_state(cfg)
        for ev in (
            EventDescriptor(name="IssueStore", s="I11"),
            EventDescriptor(name="IssueStore", s="I12"),
            EventDescriptor(name="IssueLoad", l="I21"),
            EventDescriptor(name="IssueFence", f="I22"),
            EventDescriptor(name="IssueLoad", l="I23"),
            EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"),
            EventDescriptor(name="ObserveStoreWithoutFence", s="I12", m="M2"),
            EventDescriptor(
                name="ObserveLoadAfterStoreWithFence", l="I21", s="I11", m="M2", f="I22"
            ),
            EventDescriptor(
                name="ObserveLoadAfterStoreWithFence", l="I23", s="I12", m="M2", f="I22"
            ),
        ):
            st = fire(st, cfg, ev)
        assert st.rf[cc.master_index["M2"]][cc.reg_index["R2"]] == 1
        assert cc.mask_to_instr_ids(st.after[cc.slot("I12")]) == {"I23"}

    def test_fire_is_pure(self, iriw_fence):
        cfg = iriw_fence.config
        st = init_state(cfg)
        ev = EventDescriptor(name="IssueStore", s="I11")
        a, b = fire(st, cfg, ev), fire(st, cfg, ev)
        assert a == b
        assert st == init_state(cfg)

    def test_unissued_observation_fails_grd1(self, iriw_fence):
        with pytest.raises(GuardFailed) as err:
            fire(
                init_state(iriw_fence.config), iriw_fence.config,
                EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"),
            )
        assert err.value.guard == "grd1"

    def test_cursor_guards_program_order(self, iriw_fence):
        with pytest.raises(GuardFailed) as err:
            fire(
                init_state(iriw_fence.config), iriw_fence.config,
                EventDescriptor(name="IssueStore", s="I12"),
            )
        assert err.value.guard == "grd3"

    def test_unknown_ids_rejected(self, iriw_fence):
        st = init_state(iriw_fence.config)
        with pytest.raises(GuardFailed):
            fire(st, iriw_fence.config, EventDescriptor(name="IssueStore", s="I99"))
        with pytest.raises(GuardFailed):
            fire(st, iriw_fence.config, EventDescriptor(name="NotAnEvent", s="I11"))
        with pytest.raises(GuardFailed):
            fire(
                st, iriw_fence.config,
                EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M9"),
            )


class TestLoadReturnValue:
    def test_initial_value_when_nothing_observed(self, iriw_fence):
        st = init_state(iriw_fence.config)
        assert load_return_value(st, iriw_fence.config, "M2", "I21") == 0

    def test_observed_store_value(self, iriw_fence):
        cfg = iriw_fence.config
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        st = fire(st, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"))
        assert load_return_value(st, cfg, "M2", "I21") == 1

    def test_two_stores_last_wins(self):
        cfg = make_config({
            "M1": [(InstrKind.STORE, "a1", 1), (InstrKind.STORE, "a1", 2)],
            "M2": [(InstrKind.LOAD, "a1", "R1")],
        })
        st = init_state(cfg)
        for ev in (
            EventDescriptor(name="IssueStore", s="M1_1"),
            EventDescriptor(name="IssueStore", s="M1_2"),
            EventDescriptor(name="ObserveStoreWithoutFence", s="M1_1", m="M2"),
            EventDescriptor(name="ObserveStoreWithoutFence", s="M1_2", m="M2"),
            EventDescriptor(name="IssueLoad", l="M2_1"),
        ):
            st = fire(st, cfg, ev)
        assert load_return_value(st, cfg, "M2", "M2_1") == 2

    def test_unknown_load_rejected(self, iriw_fence):
        st = init_state(iriw_fence.config)
        with pytest.raises(UnknownLoad):
            load_return_value(st, iriw_fence.config, "M2", "I11")
        with pytest.raises(UnknownLoad):
            load_return_value(st, iriw_fence.config, "M3", "I21")


class TestStateInvariants:
    def test_reachable_states_are_clean(self, iriw_fence):
        cfg = iriw_fence.config
        st = init_state(cfg)
        assert check_state_invariants(st, cfg) == []
        rng = random.Random(1)
        for ev, st in random_walk(cfg, rng):
            assert check_state_invariants(st, cfg) == []

    def test_observed_outside_issued_names_inv2(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = init_state(cfg)._replace(observed=1 << cc.slot("I11"))
        names = {v.invariant for v in check_state_invariants(st, cfg)}
        assert "inv2" in names

    def test_load_observed_by_non_issuer_flagged(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        slot = cc.slot("I21")
        st = init_state(cfg)
        bad = st._replace(
            issued=1 << slot,
            observed=1 << slot,
            observers=st.observers[:slot] + (1 << cc.master_index["M3"],) + st.observers[slot + 1:],
            cursor=(1, 2, 1),
        )
        names = {v.invariant for v in check_state_invariants(bad, cfg)}
        assert "load-observer" in names


class TestAtomicGuards:
    def test_release_store_needs_predecessors_visible(self, iriw_atomic):
        cfg = iriw_atomic.config
        st = init_state(cfg)
        st = fire(st, cfg, EventDescriptor(name="IssueScRelStore", s="I11"))
        st = fire(st, cfg, EventDescriptor(name="IssueScRelStore", s="I12"))
        with pytest.raises(GuardFailed) as err:
            fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="I12", m="M3"))
        assert err.value.guard == "grd4"
        assert str(err.value) == (
            "ObserveScRelStore: guard grd4 failed: every access before I12 is visible "
            "to M3 (params {'s': 'I12', 'm': 'M3'})"
        )
        st = fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="I11", m="M3"))
        st = fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="I12", m="M3"))
        cc = compile_config(cfg)
        assert st.atomic_order == (cc.slot("I11"), cc.slot("I12"))

    def test_atomic_stores_visible_in_one_global_order(self):
        cfg = make_config({
            "M1": [(InstrKind.SC_REL_STORE, "a1", 1)],
            "M2": [(InstrKind.SC_REL_STORE, "a2", 1)],
            "M3": [],
        })
        st = init_state(cfg)
        st = fire(st, cfg, EventDescriptor(name="IssueScRelStore", s="M1_1"))
        st = fire(st, cfg, EventDescriptor(name="IssueScRelStore", s="M2_1"))
        # M3 observes M1's store first, pinning the global order.
        st = fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="M1_1", m="M3"))
        with pytest.raises(GuardFailed) as err:
            fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="M2_1", m="M1"))
        assert err.value.guard == "grd5"
        st = fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="M1_1", m="M1"))
        fire(st, cfg, EventDescriptor(name="ObserveScRelStore", s="M2_1", m="M1"))

    def test_acquire_load_blocks_later_accesses(self):
        cfg = make_config({
            "M1": [(InstrKind.SC_ACQ_LOAD, "a1", "R1"), (InstrKind.STORE, "a2", 1)],
            "M2": [],
        })
        st = init_state(cfg)
        st = fire(st, cfg, EventDescriptor(name="IssueScAcqLoad", l="M1_1"))
        st = fire(st, cfg, EventDescriptor(name="IssueStore", s="M1_2"))
        with pytest.raises(GuardFailed) as err:
            fire(st, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="M1_2", m="M2"))
        assert err.value.guard == "grd5"
        st = fire(st, cfg, EventDescriptor(name="ObserveScAcqLoad", l="M1_1", m="M1"))
        fire(st, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="M1_2", m="M2"))


class TestFenceVariantSelection:
    def test_fence_issue_switches_store_observation_variant(self):
        cfg = make_config({
            "M1": [(InstrKind.STORE, "a1", 1), (InstrKind.FENCE,)],
            "M2": [],
        })
        st = init_state(cfg)
        st = fire(st, cfg, EventDescriptor(name="IssueStore", s="M1_1"))
        wof = EventDescriptor(name="ObserveStoreWithoutFence", s="M1_1", m="M2")
        assert wof in enabled_events(st, cfg)
        st = fire(st, cfg, EventDescriptor(name="IssueFence", f="M1_2"))
        with pytest.raises(GuardFailed) as err:
            fire(st, cfg, wof)
        assert err.value.guard == "grd4"
        wf = EventDescriptor(name="ObserveStoreWithFence", s="M1_1", m="M2", f="M1_2")
        assert wf in enabled_events(st, cfg)
        fire(st, cfg, wf)

    def test_post_fence_store_waits_for_pre_fence_observation(self):
        cfg = make_config({
            "M1": [(InstrKind.STORE, "a1", 1), (InstrKind.FENCE,), (InstrKind.STORE, "a2", 1)],
            "M2": [],
        })
        st = init_state(cfg)
        for ev in (
            EventDescriptor(name="IssueStore", s="M1_1"),
            EventDescriptor(name="IssueFence", f="M1_2"),
            EventDescriptor(name="IssueStore", s="M1_3"),
        ):
            st = fire(st, cfg, ev)
        late = EventDescriptor(name="ObserveStoreWithFence", s="M1_3", m="M2", f="M1_2")
        with pytest.raises(GuardFailed) as err:
            fire(st, cfg, late)
        assert err.value.guard == "grd6"
        st = fire(st, cfg, EventDescriptor(name="ObserveStoreWithFence", s="M1_1", m="M2", f="M1_2"))
        fire(st, cfg, late)


class TestDegenerateWitness:
    def test_load_of_never_written_address_observes_without_witness(self):
        cfg = make_config({"M1": [(InstrKind.LOAD, "a1", "R1")]})
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueLoad", l="M1_1"))
        ev = EventDescriptor(name="ObserveLoadWithoutFence", l="M1_1", m="M1")
        assert ev in enabled_events(st, cfg)
        cc = compile_config(cfg)
        done = fire(st, cfg, ev)
        assert done.rf[cc.master_index["M1"]][cc.reg_index["R1"]] == 0

    def test_witness_required_when_a_store_exists(self):
        cfg = make_config({
            "M1": [(InstrKind.LOAD, "a1", "R1")],
            "M2": [(InstrKind.STORE, "a1", 1)],
        })
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueLoad", l="M1_1"))
        with pytest.raises(GuardFailed):
            fire(st, cfg, EventDescriptor(name="ObserveLoadWithoutFence", l="M1_1", m="M1"))
        # The unissued store is a legal before-store witness.
        fire(st, cfg, EventDescriptor(name="ObserveLoadWithoutFence", l="M1_1", m="M1", s="M2_1"))


class TestEnumerationCompleteness:
    """successors() proposes candidates; the guard table is the truth.
    Sweeping the whole event-instance space must find the same enabled set.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_candidates_cover_all_enabled_instances(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng)
        cc = compile_config(cfg)
        state = init_state(cfg)
        walk = random_walk(cfg, rng)
        states = [state] + [s for _, s in walk]
        for st in states[:: max(1, len(states) // 5)]:
            fast = {ev for ev, _ in successors(cc, pack(cc, st))}
            swept = {
                ev for ev in all_event_instances(cc)
                if check_guards(cc, pack(cc, st), ev) is None
            }
            assert fast == swept


class TestGuardRows:
    """Every declared guard is the first failing guard of some event
    instance in a reachable state: no rule carries a dead row."""

    CONFIGS = [
        # IRIW-style: M2's load observed after the store blocks M3's
        # before-store observation of its own load.
        {
            "M1": [(InstrKind.STORE, "a1", 1)],
            "M2": [(InstrKind.LOAD, "a1", "R1"), (InstrKind.FENCE,)],
            "M3": [(InstrKind.LOAD, "a1", "R1"), (InstrKind.FENCE,)],
        },
        # A fenced load behind its master's own unobserved store.
        {
            "M1": [(InstrKind.STORE, "a1", 1), (InstrKind.FENCE,), (InstrKind.LOAD, "a2", "R1")],
            "M2": [(InstrKind.STORE, "a2", 1), (InstrKind.LOAD, "a1", "R2")],
        },
        {
            "M1": [
                (InstrKind.FENCE,),
                (InstrKind.SC_ACQ_LOAD, "a1", "R1"),
                (InstrKind.LOAD, "a2", "R2"),
            ],
            "M2": [(InstrKind.STORE, "a2", 1)],
        },
        {
            "M1": [
                (InstrKind.SC_ACQ_LOAD, "a1", "R1"),
                (InstrKind.LOAD, "a2", "R2"),
                (InstrKind.STORE, "a1", 1),
            ],
            "M2": [(InstrKind.STORE, "a2", 1)],
        },
        {"M1": [(InstrKind.STORE, "a1", 1), (InstrKind.FENCE,), (InstrKind.STORE, "a2", 1)]},
        {
            "M1": [
                (InstrKind.FENCE,),
                (InstrKind.SC_ACQ_LOAD, "a1", "R1"),
                (InstrKind.SC_ACQ_LOAD, "a2", "R2"),
                (InstrKind.STORE, "a1", 1),
            ],
        },
        {
            "M1": [(InstrKind.STORE, "a1", 1), (InstrKind.SC_REL_STORE, "a2", 1)],
            "M2": [(InstrKind.SC_REL_STORE, "a1", 2), (InstrKind.SC_ACQ_LOAD, "a2", "R1")],
        },
    ]

    def test_every_guard_fails_first_somewhere(self):
        first_failing = set()
        for programs in self.CONFIGS:
            cfg = make_config(programs)
            cc = compile_config(cfg)
            seen = {pack(cc, init_state(cfg))}
            stack = list(seen)
            while stack:
                st = stack.pop()
                for ev in all_event_instances(cc):
                    first_failing.add((EVENT_NAMES[ev[0]], check_guards(cc, st, ev)))
                for _, nxt in successors(cc, st):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        dead = [
            (name, f"grd{n}")
            for name, rule in zip(EVENT_NAMES, RULES)
            for n in range(1, len(rule) + 1)
            if (name, f"grd{n}") not in first_failing
        ]
        assert dead == []


class TestTraceProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_monotonic_growth_and_coherence(self, seed):
        rng = random.Random(100 + seed)
        cfg = random_config(rng)
        cc = compile_config(cfg)
        prev = init_state(cfg)
        events = []
        for ev, st in random_walk(cfg, rng):
            events.append(ev)
            assert st.issued & prev.issued == prev.issued
            assert st.observed & prev.observed == prev.observed
            assert st.issuedfence & prev.issuedfence == prev.issuedfence
            for x in range(cc.n_instr):
                assert st.observers[x] & prev.observers[x] == prev.observers[x]
                assert st.after[x] & prev.after[x] == prev.after[x]
            assert all(c1 <= c2 for c1, c2 in zip(prev.cursor, st.cursor))
            assert st.atomic_order[: len(prev.atomic_order)] == prev.atomic_order
            prev = st
        # Independent coherence fold: every load got the last value its
        # master observed for the address.
        final = prev
        fold = fold_lov(cfg, events)
        by_slot = {}
        for step, slot, value in fold["loads"]:
            by_slot[slot] = value
        for slot, value in by_slot.items():
            mi = cc.issuer_ix[slot]
            assert final.rf[mi][cc.reg_ix[slot]] == value
        # And lov itself is the last-observed-store fold, or the initial
        # value where the master observed no store.
        last = {}
        for ev in events:
            code, x, m, _f, _s = ev
            if code not in ISSUE_CODES and cc.kind[x] in (
                InstrKind.STORE, InstrKind.SC_REL_STORE,
            ):
                last[(m, cc.addr_ix[x])] = cc.value_of[x]
        for mi in range(cc.n_masters):
            for ai in range(len(cc.addr_names)):
                expect = last.get((mi, ai), cc.initial_lov[mi][ai])
                assert final.lov[mi][ai] == expect


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_reachable_states_preserve_invariants(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    cfg = random_config(rng)
    for _, state in random_walk(cfg, rng, max_steps=25):
        assert check_state_invariants(state, cfg) == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_event_matches_fire(data):
    """The descriptor-level fire and the internal fast path agree."""
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    cfg = random_config(rng)
    cc = compile_config(cfg)
    state = init_state(cfg)
    for _ in range(10):
        succ = successors(cc, pack(cc, state))
        if not succ:
            break
        ev, nxt = rng.choice(succ)
        nxt = unpack(cc, nxt)
        assert (
            fire(state, cfg, to_descriptor(cc, ev))
            == nxt
            == unpack(cc, apply_event(cc, pack(cc, state), ev))
        )
        state = nxt


def test_readme_event_roster_matches_rules():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    roster = readme.split("## Events", 1)[1].split("```", 2)[1]
    assert tuple(roster.split()) == EVENT_NAMES
    assert len(RULES) == len(EVENT_NAMES)
