"""Command-line behavior: exit codes, JSON output, file handling."""

import json
import subprocess
import sys

import pytest

from memlit import corpus
from memlit.cli import main


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

    def test_workers_flag_same_verdict(self, capsys, fence_path):
        code, out, _ = run_cli(capsys, "check", fence_path, "--workers", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Holds"
        assert doc["stateCount"] == 8124


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "memlit", "check", str(corpus.corpus_path("load-initial"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Holds" in proc.stdout
