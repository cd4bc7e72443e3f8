"""Functional coverage: register-value combinations per test, and event
coverage across a suite of tests.

A register combination (combo) is one total assignment of values to a
master's registers.  Combos are enumerated in a fixed order and named
C0, C1, ...; the coverage relation of a test is the set of combo pairs of
the two watched masters reached in states where every load has been
observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .explorer import ExplorationResult
from .kernel import EVENT_NAMES
from .litmus import LitmusTest

RegCombo = dict[str, int]


def reg_combos(registers: set[str] | frozenset[str], values: set[int] | frozenset[int]) -> list[RegCombo]:
    """All |values|^|registers| combos, ordered with the last register
    varying fastest: C0 maps every register to the smallest value."""
    if not registers or not values:
        raise ValueError("register and value domains must be nonempty")
    regs = sorted(registers)
    vals = sorted(values)
    return [dict(zip(regs, vs)) for vs in product(vals, repeat=len(regs))]


def combo_label(index: int) -> str:
    return f"C{index}"


@dataclass
class CoverageRelation:
    """Reached combo pairs for an ordered pair of watched masters."""

    test: str
    watched: tuple[str, str]
    combos: list[RegCombo]
    covered: set[tuple[int, int]]

    @property
    def total(self) -> int:
        return len(self.combos) ** 2

    def uncovered(self) -> list[tuple[int, int]]:
        n = len(self.combos)
        return [p for p in product(range(n), repeat=2) if p not in self.covered]

    def to_json(self) -> dict:
        return {
            "test": self.test,
            "watched": list(self.watched),
            "combos": {combo_label(i): c for i, c in enumerate(self.combos)},
            "covered": [[combo_label(i), combo_label(j)] for i, j in sorted(self.covered)],
            "uncovered": [[combo_label(i), combo_label(j)] for i, j in self.uncovered()],
            "coveredCount": len(self.covered),
            "total": self.total,
        }


def cover(
    test: LitmusTest, result: ExplorationResult, watched: tuple[str, str]
) -> CoverageRelation:
    """Register-combination coverage of ``watched`` masters.

    ``result`` must come from exploring the test's configuration; the
    relation holds one pair per register snapshot reached in a state where
    every load was observed.
    """
    for m in watched:
        if m not in test.config.masters:
            raise KeyError(f"watched master {m!r} not in configuration")

    combos = reg_combos(test.config.registers, test.config.values)
    regs = sorted(test.config.registers)
    index_of = {tuple(c[r] for r in regs): i for i, c in enumerate(combos)}

    cc = result.compiled
    reg_positions = [cc.reg_index[r] for r in regs]
    m_ix = [cc.master_index[m] for m in watched]
    covered = set()
    for rf in result.trigger_register_maps:
        key = tuple(
            tuple(rf[mi][p] for p in reg_positions) for mi in m_ix
        )
        covered.add((index_of[key[0]], index_of[key[1]]))
    return CoverageRelation(
        test=test.name, watched=watched, combos=combos, covered=covered
    )


@dataclass
class EventCoverage:
    """Which kernel events each test fired, and whether the suite as a
    whole fired all of them."""

    per_test: dict[str, dict[str, bool]]
    aggregate: dict[str, bool]

    @property
    def verdict(self) -> str:
        return "FULL" if all(self.aggregate.values()) else "NOT-FULL"

    def uncovered(self) -> list[str]:
        return [name for name in EVENT_NAMES if not self.aggregate[name]]

    def to_json(self) -> dict:
        return {
            "perTest": {
                t: sorted(e for e, fired in fired_map.items() if fired)
                for t, fired_map in self.per_test.items()
            },
            "aggregate": sorted(e for e, fired in self.aggregate.items() if fired),
            "uncovered": self.uncovered(),
            "verdict": self.verdict,
        }


def event_coverage(results: list[ExplorationResult]) -> EventCoverage:
    """Aggregate fired-event coverage over exploration results."""
    per_test: dict[str, dict[str, bool]] = {}
    aggregate = {name: False for name in EVENT_NAMES}
    for i, res in enumerate(results):
        fired = {name: res.event_tally.get(name, 0) > 0 for name in EVENT_NAMES}
        per_test[res.name or f"test{i}"] = fired
        for name, hit in fired.items():
            aggregate[name] = aggregate[name] or hit
    return EventCoverage(per_test=per_test, aggregate=aggregate)
