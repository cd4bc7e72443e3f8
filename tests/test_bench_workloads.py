"""The benchmark's output gates against the CLI they judge.

``bench/workloads.py`` checks each command of a benchmark run: verdicts,
state counts, coverage, generated documents, and counterexamples replayed
through ``memlit.replay``, whose ``MachineState`` it reads.  A change to
any of these fails the benchmark as incorrect output; running the corpus
workload's gates here makes it a test failure instead.  The corpus files
are read from the imported package, so an installed package is tested
against its own shipped files."""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import memlit
from memlit import cli

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).parents[1] / "bench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)


def test_corpus_workload_passes_every_gate(tmp_path):
    src_root = Path(memlit.__file__).parents[1]
    work = workloads.build("corpus", 1, src_root, tmp_path, quick=False)
    assert len(work.commands) == 19
    problems = []
    for cmd in work.commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(cmd.argv)
        problems += cmd.check(rc, out.getvalue(), err.getvalue())
    assert problems == []
