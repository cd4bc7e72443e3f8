"""Command-line front end.

Exit codes: 0 success / outcome as expected; 1 outcome violated or an
allowed outcome unreachable; 2 parse, validation or usage error; 3 state
limit exceeded; 4 generation target unreachable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import testgen
from .coverage import combo_label, cover, event_coverage, reg_combos
from .explorer import (
    DEFAULT_MAX_STATES,
    StateLimitExceeded,
    Verdict,
    check_outcome,
    explore_test,
)
from .kernel import EVENT_NAMES
from .litmus import LitmusTest, ParseError, ValidationError, format_test, parse
from .testgen import PairGoal, TestTarget, Unreachable

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_STATE_LIMIT = 3
EXIT_UNREACHABLE = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load_test(path: str) -> LitmusTest:
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError, ParseError, ValidationError) as e:
        raise _CliError(EXIT_USAGE, f"{path}: {e}") from None


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise _CliError(EXIT_USAGE, f"{path}: {e}") from None


def _emit(doc: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _watch_pair(test: LitmusTest, spec: str) -> tuple[str, str]:
    names = [w.strip() for w in spec.split(",")]
    if len(names) != 2:
        raise _CliError(EXIT_USAGE, f"--watch expects two masters, got {spec!r}")
    for m in names:
        if m not in test.config.masters:
            raise _CliError(EXIT_USAGE, f"unknown master {m!r} in --watch")
    if names[0] == names[1]:
        # One master has one register file: pairs of two combos never cover.
        raise _CliError(EXIT_USAGE, f"--watch names master {names[0]!r} twice")
    return names[0], names[1]


def _parse_target(test: LitmusTest, spec: str) -> PairGoal:
    """Target syntax: ``M2:C0,M3:C1`` (combo labels per watched master)."""
    combos = reg_combos(test.config.registers, test.config.values)
    index_of = {combo_label(i): i for i in range(len(combos))}
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2:
        raise _CliError(EXIT_USAGE, f"--target expects two master:combo entries, got {spec!r}")
    masters = []
    indices = []
    for part in parts:
        if ":" not in part:
            raise _CliError(EXIT_USAGE, f"bad target entry {part!r}, expected like M2:C0")
        master, label = part.split(":", 1)
        if master not in test.config.masters:
            raise _CliError(EXIT_USAGE, f"unknown master {master!r} in --target")
        if label not in index_of:
            raise _CliError(
                EXIT_USAGE, f"bad combo label {label!r} (test has combos C0 to C{len(combos) - 1})"
            )
        masters.append(master)
        indices.append(index_of[label])
    return PairGoal((masters[0], masters[1]), (indices[0], indices[1]))


def _run_check(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    try:
        verdict: Verdict = check_outcome(test, max_states=args.max_states)
    except StateLimitExceeded as e:
        raise _CliError(EXIT_STATE_LIMIT, str(e)) from None
    doc = {"test": test.name, "mode": test.outcome_mode.value, **verdict.to_json()}
    if verdict.counterexample is not None and args.trace_out:
        trace_doc = {
            "test": test.name,
            "steps": [ev.to_json() for ev in verdict.counterexample],
        }
        _write(args.trace_out, json.dumps(trace_doc, indent=2, sort_keys=True) + "\n")
    human = (
        f"{test.name}: {verdict.kind} ({test.outcome_mode.value} outcome, "
        f"{verdict.state_count} states)"
    )
    _emit(doc, args.json, human)
    return EXIT_OK if verdict.ok else EXIT_VIOLATED


def _run_cover(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    watched = _watch_pair(test, args.watch)
    try:
        res = explore_test(test, max_states=args.max_states)
    except StateLimitExceeded as e:
        raise _CliError(EXIT_STATE_LIMIT, str(e)) from None
    rel = cover(test, res, watched)
    doc = rel.to_json()
    uncovered = ", ".join(f"({a},{b})" for a, b in doc["uncovered"]) or "none"
    human = (
        f"{test.name}: covered {len(rel.covered)}/{rel.total} register combination "
        f"pairs for ({watched[0]},{watched[1]}); uncovered: {uncovered}"
    )
    _emit(doc, args.json, human)
    return EXIT_OK


def _run_gen(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    goal = _parse_target(test, args.target)
    must_cover = frozenset(
        e.strip() for e in args.cover_events.split(",") if e.strip()
    ) if args.cover_events else frozenset()
    unknown = must_cover - set(EVENT_NAMES)
    if unknown:
        raise _CliError(EXIT_USAGE, f"unknown events in --cover-events: {sorted(unknown)}")
    if args.only and not must_cover:
        raise _CliError(EXIT_USAGE, "--only needs --cover-events")
    target = TestTarget(goal=goal, must_cover=must_cover, only_these=args.only)
    try:
        tc = testgen.find_trace(test, target, max_states=args.max_states)
    except Unreachable as e:
        raise _CliError(EXIT_UNREACHABLE, f"{test.name}: {e}") from None
    except StateLimitExceeded as e:
        raise _CliError(EXIT_STATE_LIMIT, str(e)) from None
    text = testgen.emit_test(tc)
    if args.out:
        _write(args.out, text)
        if not args.json:
            print(f"{test.name}: wrote {args.out} ({len(tc.trace)} steps)")
        else:
            print(json.dumps({"written": args.out, "steps": len(tc.trace)}, sort_keys=True))
    else:
        print(text, end="")
    return EXIT_OK


def _run_fuzz(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    try:
        cls = testgen.generalize(
            test,
            args.max_len,
            sync_policy=args.policy,
        )
        suite = testgen.generate_suite(
            cls, args.count, args.seed, max_states_per_sample=args.sample_states
        )
    except testgen.InvalidBounds as e:
        raise _CliError(EXIT_USAGE, str(e)) from None
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _CliError(EXIT_USAGE, f"{out_dir}: {e}") from None
    for sample in suite.samples:
        if sample.case is None:
            continue
        _write(out_dir / f"{sample.case.name}.json", testgen.emit_test(sample.case))
    _write(out_dir / "manifest.json", json.dumps(suite.manifest(), indent=2, sort_keys=True) + "\n")
    kept = sum(1 for s in suite.samples if s.case is not None)
    skipped = len(suite.samples) - kept
    _emit(
        suite.manifest(),
        args.json,
        f"{test.name}: generated {kept} tests in {out_dir} ({skipped} skipped)",
    )
    return EXIT_OK


def _run_suite(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise _CliError(EXIT_USAGE, f"{args.dir}: not a directory")
    litmus_files = sorted(root.glob("*.litmus"))
    doc_files = sorted(p for p in root.glob("*.json") if p.name != "manifest.json")
    if not litmus_files and not doc_files:
        raise _CliError(EXIT_USAGE, f"{args.dir}: no .litmus or test .json files")

    results = []
    lines = []
    failures = 0
    for path in litmus_files:
        test = _load_test(str(path))
        try:
            res = explore_test(test, max_states=args.max_states)
        except StateLimitExceeded as e:
            raise _CliError(EXIT_STATE_LIMIT, f"{path}: {e}") from None
        results.append(res)
        fired = sorted(n for n, c in res.event_tally.items() if c)
        lines.append(f"{path.name}: explored {res.state_count} states, fired {len(fired)} event kinds")

    replayed = []
    for path in doc_files:
        try:
            tc = testgen.load_test(path.read_bytes())
        except (OSError, ValueError) as e:  # JSON and Unicode errors too
            verdict = testgen.VerifyResult(False, [f"not a test document: {e}"])
        else:
            verdict = testgen.verify_test(tc)
        status = "pass" if verdict.ok else "fail"
        if not verdict.ok:
            failures += 1
        replayed.append({"file": path.name, "status": status, "problems": verdict.problems})
        lines.append(f"{path.name}: replay {status}")
        lines += [f"  {problem}" for problem in verdict.problems]
        if verdict.ok:
            # Trace replays contribute their fired events to the tally.
            tally = {name: 0 for name in EVENT_NAMES}
            for ev in tc.trace:
                tally[ev.name] += 1
            results.append(_TraceTally(path.name, tally))

    ec = event_coverage(results)
    doc = {
        "tests": [r.name for r in results],
        "replayed": replayed,
        "eventCoverage": ec.to_json(),
    }
    lines.append(f"event coverage: {ec.verdict}")
    if ec.uncovered():
        lines.append("uncovered events: " + ", ".join(ec.uncovered()))
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_VIOLATED if failures else EXIT_OK


class _TraceTally:
    """Adapter so replayed trace documents feed event coverage."""

    def __init__(self, name: str, tally: dict[str, int]):
        self.name = name
        self.event_tally = tally


def _run_fmt(args: argparse.Namespace) -> int:
    test = _load_test(args.file)
    text = format_test(test)
    if args.json:
        print(json.dumps({"test": test.name, "canonical": text}, indent=2, sort_keys=True))
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlit",
        description="Weak-memory litmus tests: exhaustive checking, coverage and test generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, max_states: bool = True) -> None:
        p.add_argument("--json", action="store_true", help="emit a single JSON document")
        if max_states:
            p.add_argument(
                "--max-states", type=int, default=DEFAULT_MAX_STATES, metavar="N",
                help="abort exploration beyond N states (exit 3)",
            )

    p = sub.add_parser("check", help="verify a litmus test outcome over all interleavings")
    p.add_argument("file")
    common(p)
    p.add_argument("--trace-out", metavar="PATH", help="write the counterexample trace as JSON")
    p.set_defaults(func=_run_check)

    p = sub.add_parser("cover", help="register-combination coverage of two masters")
    p.add_argument("file")
    common(p)
    p.add_argument("--watch", required=True, metavar="M2,M3", help="ordered master pair")
    p.set_defaults(func=_run_cover)

    p = sub.add_parser("gen", help="generate a regression test reaching a coverage target")
    p.add_argument("file")
    common(p)
    p.add_argument("--target", required=True, metavar="M2:C0,M3:C0")
    p.add_argument("--cover-events", metavar="E1,E2", help="events the trace must fire")
    p.add_argument("--only", action="store_true",
                   help="allow no observe events beyond --cover-events")
    p.add_argument("--out", metavar="PATH", help="write the test document here")
    p.set_defaults(func=_run_gen)

    p = sub.add_parser("fuzz", help="sample platform tests from a generalised program class")
    p.add_argument("file")
    common(p, max_states=False)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="suite seed (reproducible)")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--max-len", type=int, default=3, help="per-master program length bound")
    p.add_argument("--policy", default="free", choices=testgen.SYNC_POLICIES)
    p.add_argument(
        "--sample-states", type=int, default=50_000, metavar="N",
        help="per-sample exploration cap; larger samples are skipped",
    )
    p.set_defaults(func=_run_fuzz)

    p = sub.add_parser("suite", help="explore/replay a directory of tests, report event coverage")
    p.add_argument("dir")
    common(p)
    p.set_defaults(func=_run_suite)

    p = sub.add_parser("fmt", help="print the canonical form of a litmus file")
    p.add_argument("file")
    common(p, max_states=False)
    p.set_defaults(func=_run_fmt)

    return parser


def _check_lower_bounds(args: argparse.Namespace) -> None:
    """Reject state caps and length bounds below 1; subcommands without
    such an option lack the field."""
    for dest in ("max_states", "sample_states", "max_len"):
        n = getattr(args, dest, 1)
        if n < 1:
            flag = "--" + dest.replace("_", "-")
            raise _CliError(EXIT_USAGE, f"{flag} must be at least 1, got {n}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_lower_bounds(args)
        return args.func(args)
    except _CliError as e:
        print(e.message, file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
