"""The three benchmark workloads: their inputs, CLI commands and the
correctness gate each command's output must pass.

Every input is a litmus file whose masters, registers and addresses are
renamed from the run's seed.  Registers and addresses keep their sorted
order and masters their declaration order, so every seed explores an
isomorphic state space: state counts, verdicts, coverage labels and fuzz
samples are the same for every seed, and so is the work.  The fuzz suite
seed is fixed for the same reason (see README.md).
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from memlit import EventDescriptor, parse, replay
from memlit.model import compile_config
from memlit.testgen import verify_test

HERE = Path(__file__).resolve().parent

# check: (verdict, stateCount, exit code, counterexample length or None)
CHECK_EXPECT = {
    "iriw-fence": ("Holds", 8124, 0, None),
    "iriw-nofence": ("Violated", 5247, 1, 12),
    "iriw-atomic": ("Holds", 14694, 0, None),
    "iriw-fence-all": ("Holds", 4484, 0, None),
    "mp-fence": ("Holds", 166, 0, None),
    "mp-relaxed": ("Reachable", 132, 0, 7),
    "load-initial": ("Holds", 3, 0, None),
}

_NOT_C2 = [["C0", "C2"], ["C1", "C2"], ["C2", "C2"], ["C3", "C2"]]
# cover on every test with two or more masters:
# (watched master positions, coveredCount, total, uncovered pairs)
COVER_EXPECT = {
    "iriw-fence": ((1, 2), 15, 16, [["C2", "C2"]]),
    "iriw-nofence": ((1, 2), 16, 16, []),
    "iriw-atomic": ((1, 2), 12, 16, _NOT_C2),
    "iriw-fence-all": ((1, 2), 12, 16, _NOT_C2),
    "mp-fence": ((0, 1), 3, 16, [
        ["C0", "C2"], ["C1", "C0"], ["C1", "C1"], ["C1", "C2"], ["C1", "C3"],
        ["C2", "C0"], ["C2", "C1"], ["C2", "C2"], ["C2", "C3"],
        ["C3", "C0"], ["C3", "C1"], ["C3", "C2"], ["C3", "C3"],
    ]),
    "mp-relaxed": ((0, 1), 4, 16, [
        ["C1", "C0"], ["C1", "C1"], ["C1", "C2"], ["C1", "C3"],
        ["C2", "C0"], ["C2", "C1"], ["C2", "C2"], ["C2", "C3"],
        ["C3", "C0"], ["C3", "C1"], ["C3", "C2"], ["C3", "C3"],
    ]),
}

# gen on M2,M3: (test, combo pair, --cover-events, exit code, shortest trace length)
COVER_EVENTS = "ObserveStoreWithFence,ObserveLoadAfterStoreWithFence"
GEN_EXPECT = [
    ("iriw-fence", ("C0", "C0"), None, 0, 10),
    ("iriw-nofence", ("C0", "C0"), None, 0, 8),
    ("iriw-atomic", ("C0", "C0"), None, 0, 8),
    ("iriw-fence-all", ("C0", "C0"), None, 0, 10),
    # Searches the product of machine states and fired-event sets.
    ("iriw-fence-all", ("C3", "C3"), COVER_EVENTS, 0, 17),
    # Unreachable: exhausts find_trace and exits 4.
    ("iriw-fence", ("C2", "C2"), None, 4, None),
]

LARGE_FILE = HERE / "iriw-3readers.litmus"
LARGE_STATES = 131_752
LARGE_QUICK = ("iriw-fence-all", 4484)  # smoke-mode stand-in for the large file

FUZZ_SEED = 7
FUZZ_COUNT = 12
FUZZ_QUICK = {"count": 9, "sample_states": 5000}
SKIP_REASONS = {
    "empty program, not expressible",
    "no loads, no register outcome",
    "state limit",
    "loads never all observed",
}

Check = Callable[[int, str, str], list]


@dataclass
class Command:
    """One CLI invocation and the gate its (exit code, stdout, stderr) must pass."""

    argv: list[str]
    check: Check


@dataclass
class Workload:
    commands: list[Command]
    before_pass: Callable[[], None] = lambda: None
    manifest: Callable[[], dict | None] = lambda: None


def corpus_file(name: str, src_root: Path) -> Path:
    return src_root / "memlit" / "corpus" / f"{name}.litmus"


# ---------------------------------------------------------------------------
# Seeded renaming
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_COMMENT = re.compile(r"#(?!\d)[^\n]*")


def _fresh(rng: random.Random, prefix: str, names) -> dict[str, str]:
    """Order-preserving fresh names: same-width numbers sort like the originals."""
    picks = sorted(rng.sample(range(1000, 10000), len(names)))
    return {old: f"{prefix}{n}" for old, n in zip(sorted(names), picks)}


def renamed(text: str, rng: random.Random) -> str:
    """Litmus source with masters, registers and addresses renamed."""
    cfg = parse(text).config
    mapping = {
        **_fresh(rng, "P", cfg.masters),
        **_fresh(rng, "r", cfg.registers),
        **_fresh(rng, "x", cfg.addresses),
    }
    body = _COMMENT.sub("", text)
    # The test name is a string literal and keeps its spelling.
    head, _, rest = body.partition('"')
    name, _, rest = rest.partition('"')
    rest = _IDENT.sub(lambda m: mapping.get(m.group(), m.group()), rest)
    return f'{head}"{name}"{rest}'


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _witness_problems(text: str, steps: list) -> list[str]:
    """Replay a counterexample or witness: its final state must observe
    every watched load and satisfy the outcome predicate."""
    test = parse(text)
    try:
        final = replay(test.config, tuple(EventDescriptor.from_json(e) for e in steps))
    except Exception as e:  # a trace that does not replay is a wrong output
        return [f"counterexample does not replay: {e}"]
    cc = compile_config(test.config)
    if any(not (final.observed >> cc.slot(lid)) & 1 for lid in test.watched_loads):
        return ["counterexample leaves watched loads unobserved"]
    regs = {m: dict(zip(cc.reg_names, row)) for m, row in zip(cc.masters, final.rf)}
    if not test.outcome.evaluate(regs):
        return ["outcome predicate is false at the counterexample's end"]
    return []


def check_verdict(text: str, name: str, verdict: str, states: int, code: int,
                  cex_len: int | None) -> Check:
    def check(rc: int, out: str, err: str) -> list[str]:
        doc = _json(out)
        if rc != code or doc is None:
            return [f"check {name}: exit {rc}, expected {code}; stderr {err.strip()!r}"]
        got = (doc.get("test"), doc.get("verdict"), doc.get("stateCount"))
        if got != (name, verdict, states):
            return [f"check {name}: got {got}, expected {(name, verdict, states)}"]
        cex = doc.get("counterexample")
        if cex_len is None:
            return [] if cex is None else [f"check {name}: unexpected counterexample"]
        if not isinstance(cex, list) or len(cex) != cex_len:
            return [f"check {name}: counterexample is not {cex_len} steps long"]
        # Only forbidden/Violated and allowed/Reachable carry one here.
        return [f"check {name}: {p}" for p in _witness_problems(text, cex)]

    return check


def check_cover(name: str, watched: list[str], covered: int, total: int,
                uncovered: list) -> Check:
    want = (name, watched, covered, total, uncovered)

    def check(rc: int, out: str, err: str) -> list[str]:
        doc = _json(out)
        if rc != 0 or doc is None:
            return [f"cover {name}: exit {rc}; stderr {err.strip()!r}"]
        got = tuple(doc.get(k) for k in ("test", "watched", "coveredCount", "total", "uncovered"))
        return [] if got == want else [f"cover {name}: got {got}, expected {want}"]

    return check


def check_gen(name: str, pair: dict[str, str], code: int, steps: int | None) -> Check:
    def check(rc: int, out: str, err: str) -> list[str]:
        if rc != code:
            return [f"gen {name} {pair}: exit {rc}, expected {code}; stderr {err.strip()!r}"]
        if code == 4:
            ok = not out and "no reachable state" in err
            return [] if ok else [f"gen {name} {pair}: exit 4 without the unreachable message"]
        doc = _json(out)
        if doc is None:
            return [f"gen {name} {pair}: output is not a test document"]
        problems = []
        if len(doc.get("steps", ())) != steps:
            problems.append(f"trace is {len(doc.get('steps', ()))} steps, expected {steps}")
        if doc.get("target", {}).get("pair") != pair:
            problems.append(f"target {doc.get('target')} is not {pair}")
        verdict = verify_test(out)
        problems += verdict.problems if not verdict.ok else []
        return [f"gen {name} {pair}: {p}" for p in problems]

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _write(work: Path, name: str, text: str) -> str:
    path = work / f"{name}.litmus"
    path.write_text(text)
    return str(path)


def corpus(rng: random.Random, src_root: Path, work: Path) -> Workload:
    """check, cover and gen on every shipped corpus test."""
    files, masters, texts = {}, {}, {}
    for name in CHECK_EXPECT:
        text = renamed(corpus_file(name, src_root).read_text(), rng)
        files[name] = _write(work, name, text)
        masters[name] = parse(text).config.masters
        texts[name] = text

    cmds = [
        Command(["check", files[n], "--json"], check_verdict(texts[n], n, *exp))
        for n, exp in CHECK_EXPECT.items()
    ]
    for n, ((i, j), covered, total, uncovered) in COVER_EXPECT.items():
        watched = [masters[n][i], masters[n][j]]
        cmds.append(Command(
            ["cover", files[n], "--watch", ",".join(watched), "--json"],
            check_cover(n, watched, covered, total, uncovered),
        ))
    for n, combos, events, code, steps in GEN_EXPECT:
        pair = dict(zip(masters[n][1:3], combos))
        argv = ["gen", files[n], "--target", ",".join(f"{m}:{c}" for m, c in pair.items())]
        if events:
            argv += ["--cover-events", events]
        cmds.append(Command(argv, check_gen(n, pair, code, steps)))
    return Workload(cmds)


def large(rng: random.Random, src_root: Path, work: Path, quick: bool) -> Workload:
    """One exhaustive check of a 4-master IRIW whose visited set grows to
    about 130k live states."""
    if quick:
        source, states = corpus_file(LARGE_QUICK[0], src_root), LARGE_QUICK[1]
    else:
        source, states = LARGE_FILE, LARGE_STATES
    text = renamed(source.read_text(), rng)
    name = parse(text).name
    path = _write(work, "large", text)
    return Workload([
        Command(["check", path, "--json"], check_verdict(text, name, "Holds", states, 0, None)),
    ])


def fuzz(rng: random.Random, src_root: Path, work: Path, quick: bool) -> Workload:
    """A fixed fuzz suite from the renamed iriw-fence, then `suite` over it."""
    text = renamed(corpus_file("iriw-fence", src_root).read_text(), rng)
    seed_file = _write(work, "fuzz-seed", text)
    out_dir = work / "suite"
    count = FUZZ_QUICK["count"] if quick else FUZZ_COUNT
    argv = ["fuzz", seed_file, "--max-len", "3", "--count", str(count),
            "--seed", str(FUZZ_SEED), "--out", str(out_dir), "--json"]
    if quick:
        argv += ["--sample-states", str(FUZZ_QUICK["sample_states"])]
    first: dict = {}

    def written() -> list[str]:
        return sorted(p.name for p in out_dir.glob("*.json") if p.name != "manifest.json")

    def check_fuzz(rc: int, out: str, err: str) -> list[str]:
        doc = _json(out)
        if rc != 0 or doc is None:
            return [f"fuzz: exit {rc}; stderr {err.strip()!r}"]
        problems = []
        if _json((out_dir / "manifest.json").read_text()) != doc:
            problems.append("manifest.json differs from the printed manifest")
        samples = doc.get("samples", [])
        if len(samples) != count:
            problems.append(f"{len(samples)} samples, expected {count}")
        kept = sorted(f"{s['name']}.json" for s in samples if s["skipped"] is None)
        if kept != written():
            problems.append(f"documents written {written()} != kept samples {kept}")
        bad = {s["skipped"] for s in samples} - SKIP_REASONS - {None}
        if bad:
            problems.append(f"unknown skip reasons {sorted(bad)}")
        first.setdefault("manifest", doc)
        if doc != first["manifest"]:
            problems.append("manifest differs from the first pass: output is not deterministic")
        return [f"fuzz: {p}" for p in problems]

    def check_suite(rc: int, out: str, err: str) -> list[str]:
        doc = _json(out)
        if doc is None:
            return [f"suite: exit {rc}; stderr {err.strip()!r}"]
        replayed = doc.get("replayed", [])
        problems = [f"suite: {r['file']} {r['status']}: {r['problems']}"
                    for r in replayed if r.get("status") != "pass"]
        if rc != 0:
            problems.append(f"suite: exit {rc}")
        if sorted(r["file"] for r in replayed) != written():
            problems.append("suite: did not replay every written document")
        return problems

    def before_pass() -> None:
        shutil.rmtree(out_dir, ignore_errors=True)

    return Workload(
        [Command(argv, check_fuzz), Command(["suite", str(out_dir), "--json"], check_suite)],
        before_pass=before_pass,
        manifest=lambda: first.get("manifest"),
    )


def build(name: str, seed: int, src_root: Path, work: Path, quick: bool) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if name == "corpus":
        return corpus(rng, src_root, work)
    if name == "fuzz":
        return fuzz(rng, src_root, work, quick)
    return large(rng, src_root, work, quick)
