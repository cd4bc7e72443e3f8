"""Kernel semantics: initialisation, guards, actions, state invariants."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlit import kernel
from memlit.kernel import (
    EVENT_NAMES,
    ISSUE_CODES,
    RULES,
    EventDescriptor,
    GuardFailed,
    apply_event,
    check_guards,
    successors,
    to_descriptor,
    to_internal,
    unpack,
)
from memlit.litmus import parse
from memlit.model import Instruction, InstrKind, InvalidConfig, SystemConfig, compile_config

from oracle import (
    SAMPLED_SEEDS,
    all_event_instances,
    check_state_invariants,
    enabled_events,
    fire,
    fold_lov,
    full_atomic_order_ok,
    init_state,
    mask_to_instr_ids,
    mask_to_masters,
    pack,
    random_config,
    random_walk,
)


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
        cc = compile_config(iriw_fence.config)
        assert mask_to_instr_ids(cc, kernel.accesses_before(cc, cc.slot("I22"))) == {"I21"}
        assert mask_to_instr_ids(cc, kernel.accesses_before(cc, cc.slot("I32"))) == {"I31"}

    def test_fence_first_has_no_predecessors(self):
        cc = compile_config(make_config({"M1": [(InstrKind.FENCE,), (InstrKind.STORE, "a1", 1)]}))
        assert mask_to_instr_ids(cc, kernel.accesses_before(cc, cc.slot("M1_1"))) == set()

    def test_two_stores_before_fence(self):
        cfg = make_config({
            "M1": [
                (InstrKind.STORE, "a1", 1),
                (InstrKind.STORE, "a2", 1),
                (InstrKind.FENCE,),
                (InstrKind.LOAD, "a1", "R1"),
            ]
        })
        cc = compile_config(cfg)
        assert mask_to_instr_ids(cc, kernel.accesses_before(cc, cc.slot("M1_3"))) == {
            "M1_1", "M1_2"
        }


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
        assert mask_to_masters(cc, st.observers[cc.slot("I11")]) == {"M2"}
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
        assert mask_to_instr_ids(cc, st.after[cc.slot("I12")]) == {"I23"}

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


LARGE = Path(__file__).parents[1] / "bench" / "iriw-3readers.litmus"


def table_events(cc) -> list[tuple]:
    """The internal event of every row of cc's event table."""
    return [row[2] for _, _, rows in kernel._event_table(cc) for row in rows]


class TestDescriptors:
    """``to_internal`` and ``to_descriptor``: the event-descriptor surface
    of traces and test documents."""

    def test_table_rows_round_trip(self, all_corpus):
        configs = [t.config for t in all_corpus.values()] + [parse(LARGE.read_text()).config]
        configs += [random_config(random.Random(seed), 2) for seed in range(SAMPLED_SEEDS)]
        for cfg in configs:
            cc = compile_config(cfg)
            for ev in table_events(cc):
                assert to_internal(cc, to_descriptor(cc, ev)) == ev

    @pytest.mark.parametrize("doc, detail", [
        ({"name": "NotAnEvent", "s": "I11"}, "unknown event name"),
        ({"name": "IssueStore", "s": "I99"}, "unknown instruction 'I99'"),
        ({"name": "ObserveStoreWithoutFence", "s": "I11", "m": "M9"}, "unknown master 'M9'"),
        ({"name": "ObserveStoreWithFence", "s": "I11", "m": "M2", "f": "I99"},
         "unknown instruction 'I99'"),
        ({"name": "ObserveStoreWithoutFence", "s": "I11"}, "missing master parameter"),
        ({"name": "IssueStore"}, "missing instruction parameter"),
        ({"name": "IssueFence", "s": "I22"}, "missing instruction parameter"),
        ({"name": "ObserveScRelStore", "l": "I11", "m": "M2"}, "missing store parameter"),
        ({"name": "ObserveLoadWithoutFence", "s": "I11", "m": "M2"}, "missing load parameter"),
        ({"name": "ObserveScAcqLoad", "m": "M2"}, "missing load parameter"),
        # JSON lists and objects name nothing either.
        ({"name": ["IssueStore"], "s": "I11"}, "unknown event name"),
        ({"name": "IssueStore", "s": ["I11"]}, "unknown instruction ['I11']"),
        ({"name": "IssueLoad", "l": {"id": "I21"}}, "unknown instruction {'id': 'I21'}"),
        ({"name": "ObserveStoreWithoutFence", "s": "I11", "m": {"M2": 1}},
         "unknown master {'M2': 1}"),
        ({"name": "ObserveLoadWithoutFence", "l": "I21", "m": "M2", "s": ["I11"]},
         "unknown instruction ['I11']"),
    ])
    def test_unknown_or_missing_parameters_fail_grd0(self, iriw_fence, doc, detail):
        cc = compile_config(iriw_fence.config)
        with pytest.raises(GuardFailed) as err:
            to_internal(cc, EventDescriptor.from_json(doc))
        assert (err.value.guard, err.value.detail) == ("grd0", detail)

    @pytest.mark.parametrize("doc, internal", [
        # The four non-fence issue rules take s, else l; an issue reads
        # nothing else.
        ({"name": "IssueStore", "l": "I11"}, ("IssueStore", "I11", -1, -1, -1)),
        ({"name": "IssueLoad", "s": "I21"}, ("IssueLoad", "I21", -1, -1, -1)),
        ({"name": "IssueLoad", "s": "I21", "l": "I23"}, ("IssueLoad", "I21", -1, -1, -1)),
        ({"name": "IssueStore", "s": "I11", "m": "M9", "f": "I99"},
         ("IssueStore", "I11", -1, -1, -1)),
        ({"name": "IssueFence", "f": "I22", "s": "I11"}, ("IssueFence", "I22", -1, -1, -1)),
        # An observation keeps every field it names besides its
        # instruction's, bound by its rule or not.
        ({"name": "ObserveStoreWithoutFence", "s": "I11", "m": "M2", "f": "I22", "l": "I99"},
         ("ObserveStoreWithoutFence", "I11", "M2", "I22", -1)),
        ({"name": "ObserveLoadWithoutFence", "l": "I21", "m": "M2", "f": "I32", "s": "I11"},
         ("ObserveLoadWithoutFence", "I21", "M2", "I32", "I11")),
        ({"name": "ObserveScAcqLoad", "l": "I21", "m": "M3", "s": "I12"},
         ("ObserveScAcqLoad", "I21", "M3", -1, "I12")),
    ])
    def test_lenient_inputs_keep_their_internal_event(self, iriw_fence, doc, internal):
        cc = compile_config(iriw_fence.config)
        name, x, m, f, s = internal
        want = (EVENT_NAMES.index(name), cc.slot(x), cc.master_index.get(m, -1),
                cc.slot_of.get(f, -1), cc.slot_of.get(s, -1))
        assert to_internal(cc, EventDescriptor.from_json(doc)) == want

    def test_lenient_steps_replay_like_their_descriptors(self, all_corpus):
        # A step with an issue's access under the other of s and l, or
        # with stray fields no guard or action of its rule reads, leads to
        # the same state as the step to_descriptor gives.
        for test in all_corpus.values():
            cc = compile_config(test.config)
            some = cc.instrs[0].id
            rng = random.Random(test.name)
            p = cc.initial_state
            while succ := successors(cc, p):
                ev, q = rng.choice(succ)
                doc = to_descriptor(cc, ev).to_json()
                variants = []
                if ev[0] in ISSUE_CODES:
                    if "f" in doc:
                        variants.append({**doc, "s": "nothing", "l": "nothing", "m": "nobody"})
                    else:
                        x = doc.pop("s", None) or doc.pop("l")
                        variants += [{**doc, "l": x, "m": "nobody", "f": "nothing"},
                                     {**doc, "s": x, "l": "nothing"}]
                else:
                    if "l" not in doc:
                        variants.append({**doc, "l": "nothing"})
                    if "f" not in doc:
                        variants.append({**doc, "f": some})
                    if doc["name"] == "ObserveScAcqLoad":
                        variants.append({**doc, "s": some})
                for variant in variants:
                    assert kernel.step(cc, p, EventDescriptor.from_json(variant)) == q, variant
                p = q


class TestLoadReturnValue:
    """A load returns its master's last observed value for its address."""

    def test_initial_value_when_nothing_observed(self, iriw_fence):
        cc = compile_config(iriw_fence.config)
        st = init_state(iriw_fence.config)
        assert st.lov[cc.master_index["M2"]][cc.addr_ix[cc.slot("I21")]] == 0

    def test_observed_store_value(self, iriw_fence):
        cfg = iriw_fence.config
        cc = compile_config(cfg)
        st = fire(init_state(cfg), cfg, EventDescriptor(name="IssueStore", s="I11"))
        st = fire(st, cfg, EventDescriptor(name="ObserveStoreWithoutFence", s="I11", m="M2"))
        assert st.lov[cc.master_index["M2"]][cc.addr_ix[cc.slot("I21")]] == 1

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
        cc = compile_config(cfg)
        assert st.lov[cc.master_index["M2"]][cc.addr_ix[cc.slot("M2_1")]] == 2


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

    # The search stops at the first BFS layer that takes a configuration
    # past this many reachable states: a few sampled configurations of
    # three instructions per master reach millions.
    NARROWED_CAP = 10_000

    def test_narrowed_atomic_order_agrees_with_the_full_range(self, all_corpus):
        # grd5 ranges over the release stores of other masters only.  Where
        # grd1-grd4 hold on a reachable state, it must decide as the guard
        # over every release store does.
        configs = [t.config for t in all_corpus.values()] + [
            random_config(random.Random(seed), max_per_master=n)
            for n in (2, 3) for seed in range(SAMPLED_SEEDS)
        ]
        checked = failed = 0
        for cfg in configs:
            cc = compile_config(cfg)
            # Each instance with the masks of grd1-grd4, which are exact.
            rows = [row[:3] for row in (
                kernel._compile_row(cc, (kernel.OBS_SC_REL_STORE, x, m, -1, -1))
                for x in cc.rel_store_slots for m in range(cc.n_masters)) if row]
            if not rows:
                continue
            parents = {cc.initial_state: None}
            frontier, depth, layer = [cc.initial_state], 0, kernel.search_layer(cc)
            while frontier and len(parents) < self.NARROWED_CAP:
                frontier = layer(frontier, parents, [], {}, lambda k: False, 1 << 62, None, depth,
                                 [0] * len(EVENT_NAMES), cc)[0]
                depth += 1
            for p in parents:
                for need, forbid, ev in rows:
                    if p & need == need and not p & forbid:
                        guard = check_guards(cc, p, ev)
                        assert guard in (None, "grd5")
                        assert (guard is None) == full_atomic_order_ok(cc, p, *ev[1:]), (p, ev)
                        checked += 1
                        failed += guard == "grd5"
        assert checked and failed

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
    """On every reachable state, ``successors`` lists distinct events, and
    with their successors they are exactly the instances of the whole
    event-instance space whose guards hold (``check_guards``), each fired
    by ``apply_event``.  The sweep leaves out the instances with a guard
    that compiles to no mask, since ``check_guards`` fails those in every
    state.  The corpus tests and sampled configs are split into shards."""

    CORPUS = ("mp-fence", "mp-relaxed", "load-initial", "iriw-fence-all")
    SHARDS = 12

    @staticmethod
    def may_hold(cc, ev) -> bool:
        code, x, m, f, s = ev
        return all(g.mask is None or g.mask(cc, x, m, f, s) is not None for g in RULES[code])

    @pytest.mark.parametrize("shard", range(SHARDS))
    def test_candidates_cover_all_enabled_instances(self, all_corpus, shard):
        configs = [all_corpus[name].config for name in self.CORPUS]
        configs += [
            random_config(random.Random(seed), max_per_master=2) for seed in range(SAMPLED_SEEDS)
        ]
        for cfg in configs[shard :: self.SHARDS]:
            cc = compile_config(cfg)
            sweep = [ev for ev in all_event_instances(cc) if self.may_hold(cc, ev)]
            seen = {cc.initial_state}
            stack = [cc.initial_state]
            while stack:
                p = stack.pop()
                succ = successors(cc, p)
                assert len({ev for ev, _ in succ}) == len(succ)
                assert set(succ) == {
                    (ev, apply_event(cc, p, ev))
                    for ev in sweep if check_guards(cc, p, ev) is None
                }
                for _, nxt in succ:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)


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
        by_slot = {}
        for step, slot, value in fold_lov(cfg, events):
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
    lines = [line.split() for line in roster.strip().splitlines()]
    assert tuple(name for name, *_ in lines) == EVENT_NAMES
    assert len(RULES) == len(EVENT_NAMES) == len(kernel.PARAMS)
    for (name, *fields), (field, binds, absent), rule in zip(lines, kernel.PARAMS, RULES):
        want = [field, *[p + "?" * (p in absent) for p in binds]]
        # The before-store rules, with no "{s} is issued" guard, may omit
        # the witness of a load that no store can feed.
        assert ("s" in absent) == ("s" in binds and "{s} is issued" not in [g.text for g in rule])
        assert fields == want, name


def test_rule_texts_name_the_declared_parameters():
    for name, (field, binds, absent), rule in zip(EVENT_NAMES, kernel.PARAMS, RULES):
        named = {p for p in "xmfs" for g in rule if f"{{{p}}}" in g.text}
        assert named == {"x", *binds}, name
        assert field in "slf" and not set(binds) - set("mfs") and not set(absent) - set(binds), name
