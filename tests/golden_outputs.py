"""Golden outputs: byte-exact CLI and explorer results the model must keep.

``render()`` recomputes every golden file in memory; ``test_golden``
compares it with the files committed under ``tests/golden/``.  After a
deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/golden_outputs.py

The commands are those of the benchmark's corpus workload, run on the
shipped corpus files, plus a small seeded fuzz suite under each sync
policy and the exploration facts of seeded random configurations.
"""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from memlit import corpus
from memlit.cli import main
from memlit.explorer import DEFAULT_MAX_STATES, _explore_full
from memlit.kernel import register_file, registers

from oracle import random_config

GOLDEN_DIR = Path(__file__).parent / "golden"

_COVER_EVENTS = "ObserveStoreWithFence,ObserveLoadAfterStoreWithFence"
# (file name, argv after the corpus path's command and path)
GEN = [
    ("gen-iriw-fence-C0-C0", "iriw-fence", ["--target", "M2:C0,M3:C0"]),
    ("gen-iriw-nofence-C0-C0", "iriw-nofence", ["--target", "M2:C0,M3:C0"]),
    ("gen-iriw-atomic-C0-C0", "iriw-atomic", ["--target", "M2:C0,M3:C0"]),
    ("gen-iriw-fence-all-C0-C0", "iriw-fence-all", ["--target", "M2:C0,M3:C0"]),
    ("gen-iriw-fence-all-C3-C3-cover-events", "iriw-fence-all",
     ["--target", "M2:C3,M3:C3", "--cover-events", _COVER_EVENTS]),
    ("gen-iriw-fence-C2-C2-unreachable", "iriw-fence", ["--target", "M2:C2,M3:C2"]),
]
COVER_WATCH = {
    "iriw-fence": "M2,M3",
    "iriw-nofence": "M2,M3",
    "iriw-atomic": "M2,M3",
    "iriw-fence-all": "M2,M3",
    "mp-fence": "M1,M2",
    "mp-relaxed": "M1,M2",
}
FUZZ_ARGS = ["--max-len", "3", "--count", "12", "--seed", "7", "--sample-states", "5000"]
RANDOM_SEEDS = range(200)
RANDOM_MAX_PER_MASTER = 2


def _run(argv: list[str]) -> str:
    """One in-process CLI run, as its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _cli_goldens() -> dict[str, str]:
    files = {}
    for name in corpus.CORPUS_NAMES:
        path = str(corpus.corpus_path(name))
        files[f"cli/check-{name}.txt"] = _run(["check", path, "--json"])
    for name, watch in COVER_WATCH.items():
        path = str(corpus.corpus_path(name))
        files[f"cli/cover-{name}.txt"] = _run(["cover", path, "--watch", watch, "--json"])
    for slug, name, args in GEN:
        files[f"cli/{slug}.txt"] = _run(["gen", str(corpus.corpus_path(name)), *args])
    return files


def _fuzz_run(prefix: str, extra: list[str]) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "suite"
        argv = ["fuzz", str(corpus.corpus_path("iriw-fence")), *FUZZ_ARGS, *extra,
                "--out", str(out), "--json"]
        files = {f"{prefix}/stdout.txt": _run(argv)}
        for doc in sorted(out.iterdir()):
            files[f"{prefix}/{doc.name}"] = doc.read_text()
    return files


def _fuzz_goldens() -> dict[str, str]:
    return {
        **_fuzz_run("fuzz", []),
        **_fuzz_run("fuzz-fence-after-first-load", ["--policy", "fence-after-first-load"]),
    }


def random_config_facts(seed: int) -> dict:
    """Exploration facts of one seeded random config, watching every load."""
    cfg = random_config(random.Random(seed), max_per_master=RANDOM_MAX_PER_MASTER)
    res, space = _explore_full(cfg, max_states=DEFAULT_MAX_STATES, name="", stop_predicate=None)
    cc = res.compiled
    return {
        "seed": seed,
        "stateCount": res.state_count,
        "transitions": res.transition_count,
        "eventTally": res.event_tally,
        "finals": [register_file(cc, registers(cc, p)) for p in space.finals],
        "witness": None if res.witness is None else [ev.to_json() for ev in res.witness],
    }


def _random_goldens() -> dict[str, str]:
    lines = [json.dumps(random_config_facts(seed), sort_keys=True) for seed in RANDOM_SEEDS]
    return {"random-configs.jsonl": "\n".join(lines) + "\n"}


def render() -> dict[str, str]:
    """Every golden file, by path relative to ``GOLDEN_DIR``."""
    return {**_cli_goldens(), **_fuzz_goldens(), **_random_goldens()}


def committed() -> dict[str, str]:
    return {
        str(p.relative_to(GOLDEN_DIR)): p.read_text()
        for p in sorted(GOLDEN_DIR.rglob("*"))
        if p.is_file()
    }


def write() -> None:
    for rel, text in render().items():
        path = GOLDEN_DIR / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


if __name__ == "__main__":
    write()
