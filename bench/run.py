"""memlit benchmark: end-to-end CLI latency on three workloads, and
per-layer timings from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke     # every workload once, small, both modes
    python3 bench/run.py             # every workload, full size, both modes

With ``--workload`` the process runs that one workload on a single thread:
it times fresh ``python -S -m memlit --help`` processes for ``setup_s``, then
calls ``memlit.cli.main`` in process for one warm-up pass and as many timed
passes as fit in ``--seconds``, checks every command's output, prints a
report and, as its last line, one JSON object with the metrics named in
BENCHMARK.json.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics instead.  Without ``--workload`` each workload
runs in its own fresh process.  A run record goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("corpus", "fuzz", "large")
SETUP_PROBES = 21


clock = time.perf_counter


def rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_record_header(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "memlit").rglob("*")):
        if path.suffix in (".py", ".litmus"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "commit": commit,
        "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def setup_times() -> tuple[list[float], int]:
    """Wall time of fresh ``python -S -m memlit --help`` processes, after
    one discarded run that writes the bytecode cache; and how many failed.
    memlit needs only the standard library, and ``-S`` keeps the start-up
    hooks of whatever site-packages the machine has out of the figure."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    times, failed = [], 0
    for i in range(SETUP_PROBES + 1):
        start = clock()
        # No timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which would round every figure up to that grid.
        rc = subprocess.run([sys.executable, "-S", "-m", "memlit", "--help"], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        elapsed = clock() - start
        failed += rc != 0
        if i:
            times.append(elapsed)
    return times, failed


class Runner:
    """Runs passes of a workload's commands in process and gates their output."""

    def __init__(self, cli, probe):
        self.cli = cli
        self.probe = probe
        self.attempted = 0
        self.problems: list[str] = []

    def invoke(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # a crash is a failed command, never a lost run
                rc = -1
                err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, workload, tracer=None) -> tuple[float, list[tuple[float, int]]]:
        """One pass, traced if a tracer is given: its wall seconds, summed
        over its commands, and (ms, states explored) per command.  Outputs
        are checked after the pass, outside its timing and its trace."""
        workload.before_pass()
        results = []
        if tracer:
            tracer.install()
        try:
            for cmd in workload.commands:
                gc.collect()  # each command starts from a collected heap, as a fresh process does
                states = self.probe.states
                t0 = clock()
                rc, out, err = self.invoke(cmd.argv)
                results.append((cmd, rc, out, err, (clock() - t0) * 1000,
                                self.probe.states - states))
        finally:
            if tracer:
                tracer.uninstall()
        for cmd, rc, out, err, _, _ in results:
            self.attempted += 1
            try:
                found = cmd.check(rc, out, err)
            except Exception:
                found = [f"{cmd.argv[0]}: output check raised {traceback.format_exc()}"]
            if found:
                self.problems.append("; ".join(found))
        per_cmd = [(ms, states) for _, _, _, _, ms, states in results]
        return sum(ms for ms, _ in per_cmd) / 1000, per_cmd


def measure(args) -> int:
    if not (SRC / "memlit" / "cli.py").is_file():
        print(f"bench: no memlit sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup, setup_failed = setup_times()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from memlit import cli

    import tracing
    import workloads

    rss_after_import = rss_kb()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        # The warm-up pass runs the workload at smoke size: the same code
        # paths, without a second 10 s search on fuzz and large.
        warm_up, wl = (
            workloads.build(args.workload, args.seed, SRC, work / sub, quick)
            for sub, quick in (("warm-up", True), ("timed", args.quick))
        )
        patches = tracing.Patches()
        probe = tracing.StateProbe()
        probe.install(patches)
        runner = Runner(cli, probe)
        tracer = tracing.Tracer()
        untraced, traced, cmds = [], [], []

        t0 = clock()
        runner.run_pass(warm_up)
        while True:
            wall, per_cmd = runner.run_pass(wl)
            untraced.append(wall)
            cmds += per_cmd
            if args.trace:
                traced.append(runner.run_pass(wl, tracer)[0])
            # Stop before a pass as slow as the slowest so far would overrun.
            next_pass = max(untraced) + max(traced, default=0)
            if clock() - t0 + next_pass > args.seconds:
                break
        patches.undo()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    attempted = runner.attempted + SETUP_PROBES + 1
    failed = len(runner.problems) + setup_failed
    lat = [ms for ms, _ in cmds]
    explored = [(ms, states) for ms, states in cmds if states]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(untraced),
        "cmd_ms_p50": nearest_rank(lat, 0.5),
        "cmd_ms_p90": nearest_rank(lat, 0.9),
        "states_per_s": (sum(s for _, s in explored) / (sum(ms for ms, _ in explored) / 1000)
                         if explored else 0.0),
        "peak_rss_mb": rss_kb() / 1024,
    }
    record = run_record_header(args)
    record.update(passes={"warm_up": 1, "untraced": len(untraced), "traced": len(traced)},
                  attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  problems=runner.problems, end_to_end=e2e,
                  setup_samples=setup, pass_walls=untraced)
    lines = [
        f"bench {args.workload}: seed {args.seed}, python {record['python']}, "
        f"nproc {record['nproc']}, commit {record['commit']}, "
        f"source {record['source_sha256'][:12]}",
        f"  warm-up + {len(untraced)} untraced + {len(traced)} traced passes; "
        f"{attempted} operations, {failed} failed (fail_frac {failed / attempted:.4f})",
        f"  setup_s       {e2e['setup_s']:.4f} s   median of {len(setup)} fresh "
        "`python -S -m memlit --help`",
        f"  wall_s        {e2e['wall_s']:.4f} s   median of {len(untraced)} passes of "
        f"{len(wl.commands)} commands",
    ]
    for q, name in ((0.5, "cmd_ms_p50"), (0.9, "cmd_ms_p90")):
        n_beyond = len(lat) - math.ceil(q * len(lat))
        note = "" if n_beyond >= 10 else "; fewer than 10 samples beyond it"
        lines.append(f"  {name:13s} {e2e[name]:.3f} ms  nearest rank of {len(lat)} commands{note}")
    lines.append(f"  states_per_s  {e2e['states_per_s']:.1f}   "
                 f"{sum(s for _, s in explored)} states / "
                 f"{sum(ms for ms, _ in explored) / 1000:.3f} s of {len(explored)} exploring commands")
    lines.append(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB")

    if args.trace:
        layers = tracing.layer_metrics(tracer, len(traced), wl.manifest(),
                                       rss_kb() - rss_after_import)
        traced_wall = statistics.median(traced)
        layers["trace.overhead"] = 100 * (traced_wall / e2e["wall_s"] - 1)
        stages = tracing.stage_map(layers, statistics.mean(traced))
        record.update(per_layer=layers, stage_map=stages, traced_pass_walls=traced)
        lines.append(f"  traced pass {traced_wall:.4f} s, overhead "
                     f"{layers['trace.overhead']:+.1f}% against the untraced pass")
        lines.append("  ROADMAP stages, seconds per traced pass and share of it:")
        for r in stages:
            lines.append(f"    {r['stage']:46s} {r['s']:9.4f} s {100 * r['share']:6.1f}%  "
                         f"{' + '.join(r['metrics'])}")
        lines += [f"  {k:30s} {v:.6g}" for k, v in layers.items()]
        metrics, kind = layers, "per_layer"
    else:
        metrics, kind = e2e, "end_to_end"

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for problem in runner.problems[:20]:
        lines.append(f"  FAIL {problem}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, untraced then traced; exit 1
    unless every run passes its correctness gate and emits every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1 if args.smoke else args.seconds
    bad = 0
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                argv.append("--quick")
            res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            print(res.stdout, end="")
            print(res.stderr, end="", file=sys.stderr)
            try:
                result = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            problems = []
            if res.returncode != 0:
                problems.append(f"exit {res.returncode}")
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json {kind}: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            if not result.get("correct") or result.get("failed"):
                problems.append("correctness gate failed")
            print(f"== {workload} trace={trace}: {'; '.join(problems) or 'ok'}", flush=True)
            bad += bool(problems)
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload in this process (default: all, each in its own)")
    p.add_argument("--seed", type=int, default=1, help="renames every input; same seed, same inputs")
    p.add_argument("--seconds", type=float, default=36, help="measuring time, warm-up included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced passes")
    p.add_argument("--quick", action="store_true", help="small inputs (smoke test sizes)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload once at small size, both modes, checking every metric")
    args = p.parse_args()
    if args.workload:
        return measure(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
