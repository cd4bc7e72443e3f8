"""The benchmark's tracer against the live module bindings it wraps.

``bench/tracing.py`` patches memlit's module attributes by name, so a
renamed or removed binding breaks the benchmark run; loading it here makes
that a test failure instead."""

import importlib.util
import json
from pathlib import Path

from memlit import cli, corpus, explorer, kernel, testgen

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_records_a_check_and_a_gen(capsys, tmp_path):
    out = tmp_path / "t.json"
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.main(["check", str(corpus.corpus_path("mp-fence"))]) == 0
        assert cli.main([
            "gen", str(corpus.corpus_path("iriw-fence")), "--target", "M2:C0,M3:C0",
            "--out", str(out),
        ]) == 0
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert json.loads(out.read_text())["steps"]
    assert tr.calls["kernel.successors"] > 0 and tr.total["kernel.successors"] > 0
    assert tr.calls["cli.main"] == 2 and tr.calls["testgen.find_trace"] == 1
    assert tr.expanded > 0
    assert tr.probe.states == 3934  # the check's 166 and the gen's 3768
    # Every binding is put back.
    assert explorer.successors is kernel.successors is testgen.successors
    assert explorer._explore_full.__module__ == "memlit.explorer"
