"""Command-line behavior: exit codes, JSON output, file handling; and the
README's lists of CLI flags and public names."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import memlit
from memlit import corpus
from memlit.cli import _build_parser, main
from memlit.testgen import PairGoal, TestTarget, emit_test, find_trace


@pytest.fixture()
def fence_path():
    return str(corpus.corpus_path("iriw-fence"))


@pytest.fixture()
def nofence_path():
    return str(corpus.corpus_path("iriw-nofence"))


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_holds_exit_zero(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "check", fence_path)
        assert code == 0
        assert "Holds" in out

    def test_violated_exit_one_and_trace_out(self, capsys, nofence_path, tmp_path):
        trace_file = tmp_path / "cex.json"
        code, out, _ = run_cli(capsys, "check", nofence_path, "--trace-out", str(trace_file))
        assert code == 1
        assert "Violated" in out
        doc = json.loads(trace_file.read_text())
        assert doc["test"] == "iriw-nofence"
        assert doc["steps"]

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text('litmus "x"\nmaster M1 { I1: ST a1 ; }\nallowed M1:R1 = 0\n')
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "2:" in err  # line:column diagnostic

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent.litmus")
        assert code == 2

    def test_json_output_single_document(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "check", fence_path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Holds"
        assert doc["stateCount"] > 0

    def test_state_limit_exit_three(self, capsys, fence_path):
        code, _, err = run_cli(capsys, "check", fence_path, "--max-states", "10")
        assert code == 3

    def test_deeply_nested_outcome_exit_two(self, capsys, tmp_path):
        deep = tmp_path / "deep.litmus"
        deep.write_text(
            'litmus "deep"\nmaster M1 { I11: LD R1 a1; }\n'
            f"forbidden {'(' * 2000}M1:R1 = 1{')' * 2000}\n"
        )
        code, out, err = run_cli(capsys, "check", str(deep), "--json")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "outcome nests too deeply" in err

    @pytest.mark.parametrize("load", ["LD R1 a1", "SCLD.ACQ R1 a1"])
    def test_release_store_after_load_becomes_visible(self, capsys, tmp_path, load):
        # Sequential consistency reaches M2:R2 = 1 by running M1 first.
        path = tmp_path / "rel.litmus"
        path.write_text(
            'litmus "rel-after-load"\n'
            f"master M1 {{ I11: {load}; I12: SCST.REL a2 #1; }}\n"
            "master M2 { I21: LD R2 a2; }\n"
            "allowed M2:R2 = 1\n"
        )
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "Reachable"

    def test_removed_flags_exit_two(self, fence_path, nofence_path, tmp_path):
        for argv in (
            ["check", fence_path, "--workers", "4"],
            ["fuzz", fence_path, "--count", "1", "--seed", "1", "--out", str(tmp_path),
             "--max-states", "10"],
            ["fuzz", nofence_path, "--count", "1", "--seed", "1", "--out", str(tmp_path),
             "--policy", "none"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv

    def test_unwritable_trace_out_exit_two(self, capsys, nofence_path, tmp_path):
        path = tmp_path / "missing" / "cex.json"
        code, _, err = run_cli(capsys, "check", nofence_path, "--trace-out", str(path))
        assert code == 2
        assert len(err.splitlines()) == 1 and str(path) in err


class TestCover:
    def test_fifteen_of_sixteen(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "cover", fence_path, "--watch", "M2,M3")
        assert code == 0
        assert "15/16" in out
        assert "(C2,C2)" in out

    def test_json_report(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "cover", fence_path, "--watch", "M2,M3", "--json")
        doc = json.loads(out)
        assert doc["coveredCount"] == 15
        assert doc["uncovered"] == [["C2", "C2"]]

    def test_unknown_master_exit_two(self, capsys, fence_path):
        code, _, err = run_cli(capsys, "cover", fence_path, "--watch", "M2,M9")
        assert code == 2

    def test_nofence_sixteen(self, capsys, nofence_path):
        code, out, _ = run_cli(capsys, "cover", nofence_path, "--watch", "M2,M3")
        assert code == 0
        assert "16/16" in out


class TestGen:
    def test_target_written(self, capsys, fence_path, tmp_path):
        out_file = tmp_path / "t.json"
        code, out, _ = run_cli(
            capsys, "gen", fence_path, "--target", "M2:C0,M3:C0", "--out", str(out_file)
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["target"]["pair"] == {"M2": "C0", "M3": "C0"}

    def test_unreachable_exit_four(self, capsys, fence_path):
        code, _, err = run_cli(capsys, "gen", fence_path, "--target", "M2:C2,M3:C2")
        assert code == 4
        assert "no reachable state" in err

    def test_bad_target_exit_two(self, capsys, fence_path):
        code, _, _ = run_cli(capsys, "gen", fence_path, "--target", "M2:C9,M3:C0")
        assert code == 2

    def test_stdout_document_is_json(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "gen", fence_path, "--target", "M2:C3,M3:C3")
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "iriw-fence-target"

    def test_unwritable_out_exit_two(self, capsys, fence_path, tmp_path):
        path = tmp_path / "missing" / "t.json"
        code, out, err = run_cli(
            capsys, "gen", fence_path, "--target", "M2:C0,M3:C0", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and str(path) in err

    def test_cover_events_only(self, capsys, fence_path, tmp_path):
        out_file = tmp_path / "t.json"
        code, _, _ = run_cli(
            capsys, "gen", fence_path, "--target", "M2:C0,M3:C0",
            "--cover-events", "ObserveLoadHappensBeforeWithFence", "--only",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        names = {s["name"] for s in doc["steps"] if not s["name"].startswith("Issue")}
        assert names == {"ObserveLoadHappensBeforeWithFence"}


class TestFuzz:
    def test_seed_required(self, fence_path):
        with pytest.raises(SystemExit) as err:
            main(["fuzz", fence_path, "--count", "1", "--out", "/tmp/x"])
        assert err.value.code == 2

    def test_out_naming_a_file_exit_two(self, capsys, fence_path, tmp_path):
        path = tmp_path / "taken"
        path.write_text("")
        code, out, err = run_cli(
            capsys, "fuzz", fence_path, "--count", "1", "--seed", "1", "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and str(path) in err

    def test_reproducible_bytes(self, capsys, fence_path, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _, _ = run_cli(
                capsys, "fuzz", fence_path, "--count", "2", "--seed", "5",
                "--out", str(d), "--max-len", "2",
            )
            assert code == 0
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_json_manifest_on_stdout(self, capsys, fence_path, tmp_path):
        code, out, _ = run_cli(
            capsys, "fuzz", fence_path, "--count", "1", "--seed", "8",
            "--out", str(tmp_path / "j"), "--max-len", "2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 8 and doc["count"] == 1

    def test_policy_flag_shapes_samples(self, capsys, fence_path, tmp_path):
        out = tmp_path / "pol"
        code, _, _ = run_cli(
            capsys, "fuzz", fence_path, "--count", "2", "--seed", "3",
            "--out", str(out), "--max-len", "3", "--policy", "fence-after-first-load",
        )
        assert code == 0
        from memlit.litmus import parse as parse_litmus
        from memlit.testgen import load_test

        for doc in out.glob("suite-*.json"):
            cfg = parse_litmus(load_test(doc.read_text()).litmus).config
            for prog in cfg.programs:
                loads = [i for i, ins in enumerate(prog) if ins.is_load()]
                if loads:
                    assert prog[loads[0] + 1].kind.value == "FENCE"


class TestSuite:
    def test_full_three_variant_suite(self, capsys, tmp_path):
        for name in ("iriw-fence-all", "iriw-nofence", "iriw-atomic"):
            (tmp_path / f"{name}.litmus").write_text(corpus.corpus_path(name).read_text())
        code, out, _ = run_cli(capsys, "suite", str(tmp_path))
        assert code == 0
        assert "event coverage: FULL" in out

    def test_single_test_not_full(self, capsys, tmp_path, fence_path):
        (tmp_path / "iriw-fence.litmus").write_text(corpus.corpus_path("iriw-fence").read_text())
        code, out, _ = run_cli(capsys, "suite", str(tmp_path))
        assert code == 0
        assert "NOT-FULL" in out

    def test_replays_generated_documents(self, capsys, fence_path, tmp_path):
        out_dir = tmp_path / "gen"
        run_cli(capsys, "fuzz", fence_path, "--count", "2", "--seed", "5",
                "--out", str(out_dir), "--max-len", "2")
        code, out, _ = run_cli(capsys, "suite", str(out_dir))
        assert code == 0
        assert "replay pass" in out

    def test_json_single_document(self, capsys, tmp_path, fence_path):
        (tmp_path / "iriw-fence.litmus").write_text(corpus.corpus_path("iriw-fence").read_text())
        code, out, _ = run_cli(capsys, "suite", str(tmp_path), "--json")
        doc = json.loads(out)
        assert doc["eventCoverage"]["verdict"] == "NOT-FULL"

    def test_empty_directory_exit_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "suite", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("defect", ["not-json", "no-litmus", "not-utf8", "bad-pair-label"])
    def test_malformed_document_fails(self, capsys, tmp_path, iriw_fence, defect):
        case = find_trace(iriw_fence, TestTarget(goal=PairGoal(("M2", "M3"), (0, 0))))
        doc = json.loads(emit_test(case))
        if defect == "not-json":
            data = b"{"
        elif defect == "no-litmus":
            del doc["litmus"]
            data = json.dumps(doc).encode()
        elif defect == "not-utf8":
            data = json.dumps(doc).encode().replace(b"iriw-fence-target", b"iriw-\xff")
        else:
            doc["target"]["pair"]["M2"] = "Cx"
            data = json.dumps(doc).encode()
        (tmp_path / "t.json").write_bytes(data)
        code, out, _ = run_cli(capsys, "suite", str(tmp_path), "--json")
        assert code == 1
        [replayed] = json.loads(out)["replayed"]
        assert replayed["status"] == "fail" and replayed["problems"]


class TestFmt:
    def test_canonical_output_reparses(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "fmt", fence_path)
        assert code == 0
        from memlit.litmus import parse

        assert parse(out).name == "iriw-fence"

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text("not litmus at all")
        code, _, _ = run_cli(capsys, "fmt", str(bad))
        assert code == 2


@pytest.mark.parametrize(
    "source, message",
    [
        # '#' before a non-digit starts a comment, so the error must point
        # at the store, not at the next line.
        ('litmus "t"\nmaster M1 { I1: ST a1 #\u00b2; I2: LD R1 a1; }\nallowed M1:R1 = 0\n',
         ": 2:17: expected store value like #1 for store I1"),
        ('litmus "t"\ninit { a1 = \u00b2; }\nmaster M1 { I1: LD R1 a1; }\nallowed M1:R1 = 0\n',
         ": 2:13: unexpected character"),
        ('litmus "t"\nmaster M1 { I1: LD R1 a1; }\nallowed M1:R1 = ' + "1" * 5000 + "\n",
         ": 3:17: integer literal of 5000 digits is too long"),
        (b'litmus "\xff"\nmaster M1 { I1: LD R1 a1; }\nallowed M1:R1 = 0\n',
         "can't decode byte 0xff"),
    ],
    ids=["superscript-store-value", "superscript-init-value", "5000-digit-literal", "not-utf8"],
)
def test_bad_litmus_input_exit_two(capsys, tmp_path, source, message):
    path = tmp_path / "bad.litmus"
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and str(path) in err
    assert message in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "{fence}"], "--max-states"),
        (["cover", "{fence}", "--watch", "M2,M3"], "--max-states"),
        (["gen", "{fence}", "--target", "M2:C0,M3:C0"], "--max-states"),
        (["suite", "{dir}"], "--max-states"),
        (["fuzz", "{fence}", "--count", "1", "--seed", "1", "--out", "{dir}"], "--sample-states"),
        (["fuzz", "{fence}", "--count", "1", "--seed", "1", "--out", "{dir}"], "--max-len"),
    ],
    ids=["check", "cover", "gen", "suite", "fuzz", "fuzz-max-len"],
)
def test_state_cap_below_one_exit_two(capsys, tmp_path, fence_path, argv, flag):
    argv = [a.format(fence=fence_path, dir=tmp_path) for a in argv]
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2, value
        assert out == ""
        assert err == f"{flag} must be at least 1, got {value}\n"
    assert list(tmp_path.iterdir()) == []


def _synopsis_flags(readme: str) -> dict[str, set[str]]:
    """The flags the README's CLI synopsis lists, per subcommand."""
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    flags: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        words = line.split()
        if not line.startswith(" "):
            command = words[1]
            flags[command] = set()
        flags[command] |= {w.strip("[]") for w in words if w.strip("[").startswith("--")}
    return flags


def test_readme_synopsis_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    subparsers = next(a for a in _build_parser()._actions if a.choices)
    parsed = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert _synopsis_flags(readme) == parsed


def test_readme_public_names_match_all():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    line = next(l for l in library.splitlines() if l.startswith("Public names"))
    assert re.findall(r"`(\w+)`", line.split(":", 1)[1]) == memlit.__all__


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "memlit", "check", str(corpus.corpus_path("load-initial"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Holds" in proc.stdout
