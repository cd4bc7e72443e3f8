"""Per-layer spans and counters for the traced benchmark run.

Spans come from wrapping the module bindings through which memlit's layers
call each other, so nothing under ``src/`` changes.  Each span adds its
duration to its name's total and to its parent's child time; a span's own
(self) time is its duration minus its children.  Stages with no call
boundary of their own are measured as self time: guard evaluation is the
self time of ``successors`` and visited-set hashing and insertion the self
time of the breadth-first searches.  Garbage collection, timed through
``gc.callbacks``, counts as a child of the span it interrupts: it is
reported once, as ``python.gc_s``, and the time of a leaf layer (parse,
format, compile, enumeration, apply, predicate, trace, cover, sampling) is
its self time, without collections.  The composite layers
(``kernel.successors_s``, ``explorer.bfs_s``, ``testgen.find_trace_s``,
``testgen.verify_s``) report their whole span, children and collections
included.

Spans are aggregated by name in memory; nothing is kept per call.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

from memlit import cli, explorer, kernel, testgen

# (module or class, attribute, span name) for the plain timed bindings.
SPANS = [
    (cli, "main", "cli.main"),
    (cli, "parse", "litmus.parse"),
    (testgen, "parse", "litmus.parse"),
    (cli, "format_test", "litmus.format"),
    (testgen, "format_test", "litmus.format"),
    (kernel, "compile_config", "model.compile"),
    (explorer, "compile_config", "model.compile"),
    (testgen, "compile_config", "model.compile"),
    (explorer, "successors", "kernel.successors"),
    (kernel, "apply_event", "kernel.apply"),
    (explorer, "to_descriptor", "explorer.trace"),
    (testgen, "to_descriptor", "explorer.trace"),
    (cli, "check_outcome", "explorer.check_outcome"),
    (cli, "explore_test", "explorer.explore_test"),
    (cli, "cover", "coverage.cover"),
    (testgen, "find_trace", "testgen.find_trace"),
    (testgen, "generate_suite", "testgen.generate_suite"),
    (testgen, "verify_test", "testgen.verify"),
    (testgen.ProgramClass, "sample", "testgen.sample"),
]


class Patches:
    """Attribute replacements that ``undo`` puts back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class StateProbe:
    """Counts the states each exploration visits, read at the
    ``_explore_full`` boundary: one wrapper call per search, so it is
    installed in untraced runs too.  A search that hits the state limit
    visited ``max_states + 1`` states and threw them away."""

    def __init__(self):
        self.states = 0
        self.transitions = 0
        self.limit_hits = 0
        self.wasted = 0
        self.largest = 0

    def install(self, patches: Patches) -> None:
        inner = explorer._explore_full

        def explore_full(*args, **kwargs):
            try:
                out = inner(*args, **kwargs)
            except explorer.StateLimitExceeded as e:
                self._add(e.max_states + 1, 0)
                self.limit_hits += 1
                self.wasted += e.max_states + 1
                raise
            self._add(out[0].state_count, out[0].transition_count)
            return out

        patches.set(explorer, "_explore_full", explore_full)

    def _add(self, states: int, transitions: int) -> None:
        self.states += states
        self.transitions += transitions
        self.largest = max(self.largest, states)


class Tracer:
    """Span totals, self times and counters, summed over traced passes."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.candidates = 0
        self.expanded = 0  # product-space nodes find_trace expanded
        self.probe = StateProbe()  # states of the traced passes only
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[float] = []
        self._gc_start = 0.0
        self._patches = Patches()

    def span(self, name: str, fn):
        stack, total, own, calls = self._stack, self.total, self.own, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                total[name] += elapsed
                own[name] += elapsed - child
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every layer binding, until ``uninstall``."""
        patches = self._patches
        self.probe.install(patches)
        for owner, attr, name in SPANS:
            patches.set(owner, attr, self.span(name, getattr(owner, attr)))
        patches.set(explorer, "_explore_full", self.span("explorer.bfs", explorer._explore_full))

        enum = kernel.iter_candidate_events

        def candidates(cc, st):
            evs = list(enum(cc, st))
            self.candidates += len(evs)
            return evs

        patches.set(kernel, "iter_candidate_events", self.span("kernel.enum", candidates))

        succ = self.span("kernel.successors", testgen.successors)

        def expand(cc, st):
            self.expanded += 1
            return succ(cc, st)

        patches.set(testgen, "successors", expand)

        compiled = explorer._compiled_predicate
        patches.set(explorer, "_compiled_predicate",
                    lambda cc, test: self.span("explorer.predicate", compiled(cc, test)))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self._patches.undo()

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return  # the benchmark's own gc.collect() between commands
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._gc_start
        self.gc_s += elapsed
        self.gc_collections += 1
        self._stack[-1] += elapsed


# The seven stages of the search named in ROADMAP.md, and the per-layer
# metrics whose sum measures each one.
STAGES = [
    ("parse and compile", ("litmus.parse_s", "model.compile_s")),
    ("candidate enumeration", ("kernel.enum_s",)),
    ("guard evaluation", ("kernel.guard_s",)),
    ("successor construction", ("kernel.apply_s",)),
    ("visited set", ("explorer.self_s", "testgen.find_trace_self_s")),
    ("predicate", ("explorer.predicate_s",)),
    ("trace reconstruction", ("explorer.trace_s",)),
]


def layer_metrics(tr: Tracer, passes: int, manifest: dict | None,
                  rss_growth_kb: int) -> dict[str, float]:
    """Per-pass layer figures from ``passes`` identical traced passes."""
    t, own, n, probe = tr.total, tr.own, tr.calls, tr.probe

    def per(x: float) -> float:
        return x / passes

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    skipped = [s["skipped"] for s in (manifest or {}).get("samples", [])]
    return {
        "litmus.parse_s": per(own["litmus.parse"]),
        "litmus.parse_calls": per(n["litmus.parse"]),
        "litmus.format_s": per(own["litmus.format"]),
        "litmus.format_calls": per(n["litmus.format"]),
        "model.compile_s": per(own["model.compile"]),
        "model.compile_calls": per(n["model.compile"]),
        "kernel.successors_s": per(t["kernel.successors"]),
        "kernel.successors_calls": per(n["kernel.successors"]),
        "kernel.enum_s": per(own["kernel.enum"]),
        "kernel.candidates": per(tr.candidates),
        "kernel.apply_s": per(own["kernel.apply"]),
        "kernel.apply_calls": per(n["kernel.apply"]),
        "kernel.guard_s": per(own["kernel.successors"]),
        "kernel.guard_pass_ratio": ratio(n["kernel.apply"], tr.candidates),
        "explorer.bfs_s": per(t["explorer.bfs"]),
        "explorer.self_s": per(own["explorer.bfs"]),
        "explorer.states": per(probe.states),
        "explorer.transitions": per(probe.transitions),
        "explorer.new_state_ratio": ratio(probe.states, probe.transitions),
        "explorer.predicate_s": per(own["explorer.predicate"]),
        "explorer.predicate_calls": per(n["explorer.predicate"]),
        "explorer.trace_s": per(own["explorer.trace"]),
        "explorer.state_limit_hits": per(probe.limit_hits),
        "explorer.wasted_states": per(probe.wasted),
        "explorer.bytes_per_state": ratio(rss_growth_kb * 1024, probe.largest),
        "python.gc_s": per(tr.gc_s),
        "python.gc_collections": per(tr.gc_collections),
        "coverage.cover_s": per(own["coverage.cover"]),
        "testgen.find_trace_s": per(t["testgen.find_trace"]),
        "testgen.find_trace_self_s": per(own["testgen.find_trace"]),
        "testgen.find_trace_expanded": per(tr.expanded),
        "testgen.sample_s": per(own["testgen.sample"]),
        "testgen.verify_s": per(t["testgen.verify"]),
        "testgen.verify_calls": per(n["testgen.verify"]),
        "testgen.samples_kept": skipped.count(None),
        "testgen.samples_skipped_empty": skipped.count("empty program, not expressible"),
        "testgen.samples_skipped_limit": skipped.count("state limit"),
        "cli.self_s": per(own["cli.main"]),
    }


def stage_map(layers: dict[str, float], pass_s: float) -> list[dict]:
    """Seconds per traced pass and share of the pass for each stage, then
    garbage collection and whatever no span covers."""
    rows = [{"stage": name, "metrics": list(keys), "s": sum(layers[k] for k in keys)}
            for name, keys in STAGES]
    rows.append({"stage": "garbage collection", "metrics": ["python.gc_s"],
                 "s": layers["python.gc_s"]})
    rows.append({"stage": "rest (cli, cover, sampling, replay, emission)", "metrics": [],
                 "s": pass_s - sum(r["s"] for r in rows)})
    for r in rows:
        r["share"] = r["s"] / pass_s if pass_s else 0.0
    return rows
