"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from memlit import corpus
from memlit.cli import main as cli_main
from memlit.coverage import cover, event_coverage, reg_combos
from memlit.explorer import check_outcome, explore_test
from memlit.kernel import to_descriptor
from memlit.litmus import format_test, parse
from memlit.model import compile_config
from memlit.testgen import (
    PairGoal,
    TestTarget,
    Unreachable,
    emit_test,
    find_trace,
    verify_test,
)

from oracle import (
    check_state_invariants,
    dfs_register_sets,
    random_config,
    random_walk,
    replay_states,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def project_pair(test, rf_maps, pair=("M2", "M3")):
    """Register maps projected onto combo-index pairs of two masters."""
    combos = reg_combos(test.config.registers, test.config.values)
    regs = sorted(test.config.registers)
    index_of = {tuple(c[r] for r in regs): i for i, c in enumerate(combos)}
    cc = compile_config(test.config)
    out = set()
    for rf in rf_maps:
        key = tuple(
            tuple(rf[cc.master_index[m]][cc.reg_index[r]] for r in regs) for m in pair
        )
        out.add((index_of[key[0]], index_of[key[1]]))
    return out


def test_criterion_1_iriw_fence_forbidden_unreachable(iriw_fence, capsys):
    start = time.perf_counter()
    verdict = check_outcome(iriw_fence)
    elapsed = time.perf_counter() - start
    exit_code = cli_main(["check", str(corpus.corpus_path("iriw-fence"))])
    capsys.readouterr()
    with capsys.disabled():
        report(
            "1 iriw-fence forbidden outcome unreachable",
            verdict.kind == "Holds" and exit_code == 0 and elapsed < 10.0,
            f"verdict={verdict.kind}, exit={exit_code}, {elapsed:.2f}s",
        )


def test_criterion_2_coverage_fifteen_of_sixteen(iriw_fence, capsys):
    rel = cover(iriw_fence, explore_test(iriw_fence), ("M2", "M3"))
    _finals, triggers, _seen = dfs_register_sets(iriw_fence.config)
    oracle_pairs = project_pair(iriw_fence, triggers)
    ok = (
        rel.total == 16
        and len(rel.covered) == 15
        and rel.uncovered() == [(2, 2)]
        and oracle_pairs == rel.covered
    )
    with capsys.disabled():
        report(
            "2 iriw-fence register coverage 15/16, sole gap (C2,C2)",
            ok,
            f"covered={len(rel.covered)}/{rel.total}, uncovered={rel.uncovered()}, oracle agrees",
        )


def test_criterion_3_no_synchronisation_relaxation(iriw_nofence, capsys):
    verdict = check_outcome(iriw_nofence)
    rel = cover(iriw_nofence, explore_test(iriw_nofence), ("M2", "M3"))
    # Independent route: depth-first enumeration, no canonical keys, no
    # breadth-first bookkeeping.
    _finals, triggers, _seen = dfs_register_sets(iriw_nofence.config)
    oracle_pairs = project_pair(iriw_nofence, triggers)
    ok = (
        verdict.kind == "Violated"
        and verdict.counterexample is not None
        and len(rel.covered) == 16
        and oracle_pairs == rel.covered
    )
    with capsys.disabled():
        report(
            "3 fence deletion: forbidden outcome reachable, 16/16 coverage (oracle-matched)",
            ok,
            f"verdict={verdict.kind}, covered={len(rel.covered)}, oracle={len(oracle_pairs)}",
        )


def test_criterion_4_atomic_variant(iriw_fence, iriw_atomic, capsys):
    verdict = check_outcome(iriw_atomic)
    rel = cover(iriw_atomic, explore_test(iriw_atomic), ("M2", "M3"))
    _finals, triggers, _seen = dfs_register_sets(iriw_atomic.config)
    oracle_pairs = project_pair(iriw_atomic, triggers)
    fence_rel = cover(iriw_fence, explore_test(iriw_fence), ("M2", "M3"))

    ok = verdict.kind == "Holds" and oracle_pairs == rel.covered and (2, 2) not in rel.covered
    detail = f"verdict={verdict.kind}, covered={len(rel.covered)}/16 (oracle agrees)"
    if rel.covered != fence_rel.covered:
        # Expected, reported rather than tuned away: release ordering also
        # forbids every pair in which the second reader observes the second
        # store without the first, so (C0,C2), (C1,C2) and (C3,C2) drop
        # out on top of the fence variant's missing (C2,C2).
        extra = sorted(set(fence_rel.covered) - set(rel.covered))
        detail += (
            f"; atomic release ordering additionally rules out {extra}, "
            f"vs the fence variant's 15/16"
        )
    with capsys.disabled():
        report("4 atomic variant: forbidden outcome unreachable", ok, detail)


def test_criterion_5_test_generation(iriw_fence, capsys, tmp_path):
    rel = cover(iriw_fence, explore_test(iriw_fence), ("M2", "M3"))
    assert len(rel.covered) == 15
    issue_counts = {}
    for i, j in sorted(rel.covered):
        tc = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (i, j))))
        res = verify_test(emit_test(tc))
        assert res.ok, (i, j, res.problems)
        issues = sum(1 for ev in tc.trace if ev.name.startswith("Issue"))
        stores = sum(1 for ev in tc.trace if ev.name == "IssueStore")
        # Six issue events cover the reader programs; stores are issued
        # only when the target needs their values, so the all-zero target
        # takes exactly six.
        assert issues == 6 + stores, (i, j, issues, stores)
        issue_counts[(i, j)] = issues

    assert issue_counts[(0, 0)] == 6

    with pytest.raises(Unreachable):
        find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (2, 2))))
    exit_code = cli_main([
        "gen", str(corpus.corpus_path("iriw-fence")), "--target", "M2:C2,M3:C2",
        "--out", str(tmp_path / "never.json"),
    ])
    capsys.readouterr()
    with capsys.disabled():
        report(
            "5 generation: 15 targets produced+verified, (C0,C0) uses 6 issues, "
            "(C2,C2) unreachable/exit 4",
            exit_code == 4,
            f"issue counts 6..{max(issue_counts.values())}, exit={exit_code}",
        )


def test_criterion_6_suite_event_coverage(
    iriw_fence, iriw_fence_all, iriw_nofence, iriw_atomic, capsys
):
    suite = [explore_test(t) for t in (iriw_fence_all, iriw_nofence, iriw_atomic)]
    full = event_coverage(suite)
    alone = event_coverage([explore_test(iriw_fence)])
    ok = full.verdict == "FULL" and alone.verdict == "NOT-FULL"
    with capsys.disabled():
        report(
            "6 suite coverage: fence/no-fence/atomic FULL, iriw-fence alone NOT-FULL",
            ok,
            f"suite={full.verdict}, alone={alone.verdict} missing {alone.uncovered()}",
        )


def test_criterion_7a_invariant_preservation(capsys):
    rng = random.Random(20260810)
    configs = [random_config(rng) for _ in range(50)]
    traces = 0
    states_checked = 0
    for cfg in configs:
        cc = compile_config(cfg)
        for _ in range(200):
            walk = random_walk(cfg, rng)
            trace = tuple(to_descriptor(cc, ev) for ev, _ in walk)
            states = replay_states(cfg, trace)
            for st in states:
                violations = check_state_invariants(st, cfg)
                assert violations == [], (cfg, trace, violations)
            states_checked += len(states)
            traces += 1
    ok = traces >= 10_000
    with capsys.disabled():
        report(
            "7a invariant preservation on random replayed traces",
            ok,
            f"{traces} traces / {len(configs)} configs / {states_checked} states, 0 violations",
        )


def test_criterion_7b_oracle_equivalence_on_corpus(all_corpus, capsys):
    checked = []
    for name, test in all_corpus.items():
        if len(test.config.instructions()) > 8:
            continue
        res = explore_test(test)
        finals, triggers, seen = dfs_register_sets(test.config)
        assert res.final_register_maps == frozenset(finals), name
        assert res.trigger_register_maps == frozenset(triggers), name
        assert res.state_count == seen, name
        checked.append(name)
    with capsys.disabled():
        report(
            "7b explorer equals depth-first oracle on corpus tests with <= 8 instructions",
            len(checked) >= 3,
            f"checked: {', '.join(checked)}",
        )


def test_criterion_7c_worker_determinism(iriw_fence, capsys):
    runs = [explore_test(iriw_fence) for _ in range(3)]
    counts = [r.state_count for r in runs]
    covers = [cover(iriw_fence, r, ("M2", "M3")).covered for r in runs]
    ok = (
        len(set(counts)) == 1
        and covers[0] == covers[1] == covers[2]
        and len({r.transition_count for r in runs}) == 1
    )
    with capsys.disabled():
        report(
            "7c exploration determinism across 3 runs",
            ok,
            f"stateCount={counts[0]}, coverage={len(covers[0])} pairs",
        )


def test_criterion_7d_parser_round_trip(all_corpus, capsys):
    for name, test in all_corpus.items():
        source = corpus.corpus_path(name).read_text()
        assert parse(format_test(parse(source))) == parse(source), name
    with capsys.disabled():
        report(
            "7d parser round-trip over the full corpus",
            True,
            f"{len(all_corpus)} tests",
        )
