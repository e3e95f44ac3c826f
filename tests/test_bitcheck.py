"""tools/bitcheck.py's report and exit codes, without git or a protocol run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bitcheck.py"
_spec = importlib.util.spec_from_file_location("bitcheck", _PATH)
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


@pytest.fixture
def trees(tmp_path):
    def make(rev: dict[str, bytes], head: dict[str, bytes]):
        return _tree(tmp_path / "rev", rev), _tree(tmp_path / "head", head)
    return make


def test_identical_trees_report_nothing(trees):
    files = {"run/scores.csv": b"id,score\n0,1.5\n", "toy/manifest": b"seed=123\n"}
    assert bitcheck.compare(*trees(files, dict(files))) == []


def test_a_differing_byte_is_reported_with_its_offset(trees):
    rev, head = trees({"a/scores.csv": b"0,1.25\n"}, {"a/scores.csv": b"0,1.35\n"})
    assert bitcheck.compare(rev, head) == ["differs: a/scores.csv at byte 4 (7 vs 7 bytes)"]
    # a prefix differs at the shorter file's end
    rev, head = trees({"a/scores.csv": b"0,1.25\n"}, {"a/scores.csv": b"0,1.25\n1,2\n"})
    assert bitcheck.compare(rev, head) == ["differs: a/scores.csv at byte 7 (7 vs 11 bytes)"]


def test_files_on_one_side_only_are_listed(trees):
    rev, head = trees({"same": b"x", "old/maps.bin": b"m"}, {"same": b"x", "new/eval.csv": b"e"})
    assert bitcheck.compare(rev, head) == [
        "only in REV: old/maps.bin",
        "only in working tree: new/eval.csv",
    ]


def test_a_differing_manifest_lists_the_lines_of_one_side(trees):
    rev, head = trees({"run/manifest": b"seed=0\nscorer=recon\nnfe=50\n"},
                      {"run/manifest": b"seed=0\nnfe=50\nsteps=3\n"})
    assert bitcheck.compare(rev, head) == [
        "differs: run/manifest at byte 7 (27 vs 22 bytes)",
        "  - scorer=recon",
        "  + steps=3",
    ]


def test_trainlog_seconds_are_masked_and_nothing_else(trees):
    log = "epoch,loss,seconds\n1,0.5,{}\n2,0.25,{}\n"
    rev, head = trees({"run/trainlog.csv": log.format(1.5, 3.0).encode()},
                      {"run/trainlog.csv": log.format(1.75, 3.5).encode()})
    assert bitcheck.compare(rev, head) == []
    (head / "run/trainlog.csv").write_bytes(b"epoch,loss,seconds\n1,0.5,9\n2,0.26,9\n")
    assert bitcheck.compare(rev, head) == [
        "differs: run/trainlog.csv at byte 24 (27 vs 27 bytes)"  # in the masked text
    ]


def test_mask_seconds_empties_the_seconds_column_only():
    raw = b"epoch,seconds,loss\n1,0.25,0.5\n2,0.5,0.25\n"
    assert bitcheck._mask_seconds(raw) == b"epoch,,loss\n1,,0.5\n2,,0.25\n"


def test_each_protocol_command_writes_a_directory_of_its_own():
    steps = list(bitcheck._steps())
    outs = [argv[argv.index("--out") + 1] for argv, _, _ in steps]
    assert len(set(outs)) == len(outs)
    assert len({name for _, name, _ in steps}) == len(steps)
    # both stochastic scorers score in four batches of the 128-row split too
    batched = {argv[2] for argv, _, text in steps
               if argv[0] == "score" and "infer_batch = 32\n" in text}
    assert batched == set(bitcheck.NOISE_SCORERS) == {"irf-noisy", "recon"}


def test_a_failed_checkout_prints_one_line_and_exits_2(monkeypatch, capsys):
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        if "rev-parse" in cmd:
            return subprocess.CompletedProcess(cmd, 0, stdout="0123456789abcdef\n", stderr="")
        return subprocess.CompletedProcess(
            cmd, 128, stdout="", stderr="Preparing worktree\nfatal: disk full\n")

    def no_protocol(*args):
        raise AssertionError("the protocol ran without a checkout")

    monkeypatch.setattr(subprocess, "run", run)
    monkeypatch.setattr(bitcheck, "run_protocol", no_protocol)
    assert bitcheck.main(["abc"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "bitcheck: cannot check out abc (0123456789ab): fatal: disk full\n"
    assert [cmd[3] for cmd in calls] == ["rev-parse", "worktree"]
