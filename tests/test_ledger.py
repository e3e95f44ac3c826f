"""tools/ledger.py's summaries and comparisons, on synthetic perfbench records."""

import argparse
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ledger  # noqa: E402

MACHINE = {"nproc": 2, "affinity": 2, "cpu_model": "cpu", "numpy": "2.4.6",
           "openblas": "OpenBLAS 0.3", "blas_threads_env": "1", "blas_threads_runtime": 1,
           "python": "3.11.7", "scipy": "1.17.1"}
BOUNDS = {"train_samples_per_s": {"better": "higher", "bound": 0.24},
          "setup_s": {"better": "lower", "bound": 0.25}}


def record(seed, train, setup, *, commit="a" * 40, digest="d0", workload="toy", raw=None,
           **machine):
    return {
        "workload": workload, "seed": seed, "seconds": 25.0, "attempted": 10, "failed": 0,
        "metrics": {"train_samples_per_s": {"value": train, "unit": "samples/s"},
                    "setup_s": {"value": setup, "unit": "s"}},
        "samples": {"train_samples_per_s": {"n": 12, "raw": train if raw is None else raw},
                    "setup_s": {"n": 5, "raw": 2 * setup}},
        "fingerprint": {**MACHINE, **machine, "git_commit": commit, "source_digest": digest},
    }


def test_summary_holds_median_quartiles_count_and_raw_median():
    trains = [100.0, 140.0, 120.0, 110.0, 130.0]
    body = ledger.summarize([record(s, t, 0.5, raw=t / 2) for s, t in enumerate(trains, 1)],
                            "aaaaaaa")
    toy = body["workloads"]["toy"]
    m = toy["metrics"]["train_samples_per_s"]
    assert (m["median"], m["q1"], m["q3"], m["iqr"], m["count"]) == (120.0, 110.0, 130.0, 20.0, 5)
    assert m["raw_median"] == 60.0
    assert m["by_seed"]["2"] == {"value": 140.0, "raw": 70.0, "n": 12}
    assert toy["metrics"]["setup_s"]["raw_median"] == 1.0
    assert toy["seeds"] == [1, 2, 3, 4, 5]
    assert (toy["failed_ops"], toy["attempted_ops"]) == (0, 50)
    assert body["git_commit"] == "a" * 40 and body["source_digest"] == "d0"
    assert body["machine"] == MACHINE


def test_one_record_has_zero_iqr():
    m = ledger.summarize([record(1, 100.0, 0.5)], "x")["workloads"]["toy"]["metrics"]
    assert m["train_samples_per_s"]["iqr"] == 0.0


@pytest.mark.parametrize("other", [{"commit": "b" * 40}, {"digest": "d1"}, {"nproc": 4},
                                   {"blas_threads_runtime": 2}])
def test_records_of_two_commits_sources_or_machines_are_never_pooled(other):
    records = [record(1, 100.0, 0.5), record(2, 200.0, 0.5, **other)]
    with pytest.raises(ledger.LedgerError):
        ledger.summarize(records, "x")


def _bodies(parent_trains, cand_trains, parent_setup=0.5, cand_setup=0.5):
    parent = ledger.summarize([record(s, t, parent_setup) for s, t in enumerate(parent_trains)],
                              "parent")
    cand = ledger.summarize([record(s, t, cand_setup, digest="d1")
                             for s, t in enumerate(cand_trains)], "cand")
    return cand, parent


def test_compare_prints_ratio_gain_parent_iqr_and_pairs_won():
    cand, parent = _bodies([100.0, 110.0, 120.0], [150.0, 105.0, 180.0], cand_setup=0.4)
    lines = ledger.compare(cand, parent, BOUNDS)
    assert lines[0] == "candidate cand against parent parent"
    rows = {line.split()[1]: line.split() for line in lines[2:]}
    train = rows["train_samples_per_s"]
    assert train[2:8] == ["110", "150", "1.364", "1.364", "0.091", "2/3"]
    assert train[8:] == ["past-iqr"]
    setup = rows["setup_s"]  # lower is better: the gain is the inverse ratio
    assert setup[4:8] == ["0.800", "1.250", "0.000", "3/3"]
    assert setup[8:] == ["past-iqr"]


def test_compare_flags_a_metric_worse_past_its_bound_only():
    cand, parent = _bodies([100.0, 100.0], [70.0, 80.0], cand_setup=0.6)
    rows = {line.split()[1]: line.split() for line in ledger.compare(cand, parent, BOUNDS)[2:]}
    assert rows["train_samples_per_s"][8:] == ["past-iqr", "WORSE-PAST-BOUND"]  # 0.75 < 0.76
    assert rows["setup_s"][8:] == ["past-iqr"]  # 1.2 is inside the 0.25 bound
    cand, parent = _bodies([100.0, 100.0], [100.0, 100.0])
    rows = {line.split()[1]: line.split() for line in ledger.compare(cand, parent, BOUNDS)[2:]}
    assert rows["train_samples_per_s"][4:] == ["1.000", "1.000", "0.000", "0/2"]


def _write(path: Path, body: dict, written: str, **machine) -> Path:
    path.write_text(json.dumps({**body, "written": written,
                                "machine": {**body["machine"], **machine}}))
    return path


def test_compare_defaults_to_the_newest_earlier_file_on_the_same_machine(tmp_path, capsys):
    cand, parent = _bodies([100.0], [200.0])
    cand_path = _write(tmp_path / "BENCH_cand.json", cand, "2026-01-05T00:00:00+00:00")
    _write(tmp_path / "BENCH_old.json", {**parent, "label": "old"}, "2026-01-01T00:00:00+00:00")
    _write(tmp_path / "BENCH_new.json", {**parent, "label": "new"}, "2026-01-04T00:00:00+00:00")
    _write(tmp_path / "BENCH_later.json", {**parent, "label": "later"},
           "2026-01-06T00:00:00+00:00")
    _write(tmp_path / "BENCH_other.json", {**parent, "label": "other"},
           "2026-01-04T12:00:00+00:00", nproc=8)
    assert ledger.main(["--compare", str(cand_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "candidate cand against parent new"
    assert ledger.main(["--compare", str(cand_path), str(tmp_path / "BENCH_old.json")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "candidate cand against parent old"


def test_compare_without_a_readable_parent_exits_2(tmp_path, capsys):
    cand, _ = _bodies([100.0], [200.0])
    cand_path = _write(tmp_path / "BENCH_cand.json", cand, "2026-01-05T00:00:00+00:00")
    assert ledger.main(["--compare", str(cand_path)]) == 2
    assert capsys.readouterr().err.startswith("ledger: no earlier BENCH file")
    (tmp_path / "BENCH_bad.json").write_text("{")
    assert ledger.main(["--compare", str(cand_path), str(tmp_path / "BENCH_bad.json")]) == 2
    assert capsys.readouterr().err.startswith("ledger: cannot read")


@pytest.mark.parametrize("text, seeds", [("3", [3]), ("1-4", [1, 2, 3, 4])])
def test_seed_ranges(text, seeds):
    assert ledger._seeds(text) == seeds


@pytest.mark.parametrize("text", ["4-1", "a-b", "", "1-"])
def test_bad_seed_ranges_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        ledger._seeds(text)
