"""Benchmark ledger: paired perfbench runs of a git revision and the working tree.

Usage: python tools/ledger.py [REV] --seeds A-B [--workloads toy,blobs,online]
       python tools/ledger.py --compare CANDIDATE.json [PARENT.json]

The first form checks REV (default HEAD) out with `git worktree add
--detach` (the helper `bitcheck.py` uses too) and runs
`perfbench/run.py --workload W --seed N --seconds S --trace 0`, with S
the `run_seconds` of `BENCHMARK.json` (25), in that checkout and in the
working tree that holds this script, for each seed in turn and, within a
seed, for each workload. The tree that runs first
alternates from one seed to the next, so neither tree always meets the
host's state first. Each run writes `.perfbench_out/<W>-seed<N>-trace0.json`
under its own tree, and a later run of the same seed overwrites it, so the
record is read right after its run.

Each tree's records form one group, named by `fingerprint.git_commit`
plus `source_digest`. Records of two commits or two source digests are
never pooled: a tree whose sources changed during the run is refused, and
so is a group whose records disagree on the machine (cores, CPU model,
NumPy, OpenBLAS, BLAS threads). perfbench
reads no commit in a worktree, whose `.git` is a file, so the ledger puts
in the commit of the tree it ran. Each group is written to the root of the
working tree as `BENCH_<label>.json`, where the label is the short commit
when the tree's `src/` and `perfbench/` are those of its commit, and
`src-<source digest>` for a working tree with edits there. Per workload and
metric it holds the median, the quartiles and their IQR, the sample count,
every run's value by seed, and the median raw wall (`samples[<metric>].raw`
of perfbench: unscaled by its speed probe, so a `setup_s` claim can be
read on both). It also holds the seeds and the machine fingerprint. Then
the comparison of the working tree against REV is printed.

`--compare` prints, per workload and metric, the candidate's median over
the parent's, the gain (that ratio, inverted for a metric where lower is
better, so above 1 is better), the parent's IQR relative to its median,
how many seed-matched pairs the candidate won, and flags: `past-iqr` when
the medians differ by more than the parent's IQR, `WORSE-PAST-BOUND` when
the candidate is worse than the parent by more than the metric's
`BENCHMARK.json` bound, as a fraction of the parent's median.
Without a PARENT it takes the newest BENCH file written before the
candidate on the same machine. Exit status: 0, or 2 on a usage error, a
checkout or perfbench run that fails, or a BENCH file that cannot be read.
One run takes about 30 s on a 2-core box, so ten seeds of the three
workloads in both trees take about half an hour. An interrupt (Ctrl-C)
removes the worktree; a killed ledger leaves it listed by `git worktree
list`, for `git worktree remove --force`.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

from worktree import CheckoutError, checkout

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("toy", "blobs", "online")
MACHINE_FIELDS = ("nproc", "affinity", "cpu_model", "numpy", "openblas",
                  "blas_threads_env", "blas_threads_runtime")


class LedgerError(Exception):
    pass


def _seeds(text: str) -> list[int]:
    first, dash, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last if dash else first) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected A-B or A with A <= B, got {text!r}")
    return seeds


def _workloads(text: str) -> list[str]:
    names = text.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workloads {unknown}, expected {WORKLOADS}")
    return names


def _key(record: dict) -> tuple[str, str]:
    fp = record["fingerprint"]
    return fp["git_commit"], fp["source_digest"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict], label: str) -> dict:
    """The BENCH file body of one group's records."""
    if len({_key(r) for r in records}) != 1:
        raise LedgerError(f"{label}: records of different commits or sources are never pooled")
    machines = {tuple(r["fingerprint"][f] for f in MACHINE_FIELDS) for r in records}
    if len(machines) != 1:
        raise LedgerError(f"{label}: records from different machines: {sorted(machines)}")
    commit, digest = _key(records[0])
    workloads: dict[str, dict] = {}
    for record in records:
        entry = workloads.setdefault(record["workload"], {"seeds": [], "failed_ops": 0,
                                                          "attempted_ops": 0, "runs": {}})
        entry["seeds"].append(record["seed"])
        entry["failed_ops"] += record["failed"]
        entry["attempted_ops"] += record["attempted"]
        for name, metric in record["metrics"].items():
            raw = record["samples"].get(name, {}).get("raw", metric["value"])
            run = entry["runs"].setdefault(name, {"unit": metric["unit"], "by_seed": {}})
            run["by_seed"][str(record["seed"])] = {"value": metric["value"], "raw": raw,
                                                   "n": record["samples"].get(name, {}).get("n")}
    for entry in workloads.values():
        metrics = {}
        for name, run in sorted(entry.pop("runs").items()):
            values = [v["value"] for v in run["by_seed"].values()]
            q1, median, q3 = _quartiles(values)
            metrics[name] = {
                "unit": run["unit"], "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                "count": len(values),
                "raw_median": statistics.median(v["raw"] for v in run["by_seed"].values()),
                "by_seed": run["by_seed"],
            }
        entry["metrics"] = metrics
    fp = records[0]["fingerprint"]
    return {
        "label": label,
        "git_commit": commit,
        "source_digest": digest,
        "written": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seconds": records[0]["seconds"],
        "machine": {k: v for k, v in fp.items() if k not in ("git_commit", "source_digest")},
        "workloads": workloads,
    }


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bounds() -> dict[str, dict]:
    return {m["name"]: m for m in _benchmark()["end_to_end"]}


def compare(candidate: dict, parent: dict, bounds: dict[str, dict]) -> list[str]:
    """One line per workload and metric both files hold."""
    lines = [f"candidate {candidate['label']} against parent {parent['label']}",
             f"{'workload':8} {'metric':26} {'parent':>11} {'candidate':>11} {'ratio':>7} "
             f"{'gain':>6} {'IQR/med':>8} {'won':>6}  flags"]
    for workload, cand in candidate["workloads"].items():
        par = parent["workloads"].get(workload)
        if par is None:
            continue
        for name, c in cand["metrics"].items():
            p = par["metrics"].get(name)
            if p is None or p["median"] == 0 or c["median"] == 0:
                continue
            ratio = c["median"] / p["median"]
            higher = bounds.get(name, {}).get("better", "lower") == "higher"
            gain = ratio if higher else 1.0 / ratio
            seeds = sorted(set(c["by_seed"]) & set(p["by_seed"]), key=int)
            won = sum((c["by_seed"][s]["value"] > p["by_seed"][s]["value"]) == higher
                      and c["by_seed"][s]["value"] != p["by_seed"][s]["value"] for s in seeds)
            flags = []
            if abs(c["median"] - p["median"]) > p["iqr"]:
                flags.append("past-iqr")
            bound = bounds.get(name, {}).get("bound")
            if bound is not None and (ratio < 1.0 - bound if higher else ratio > 1.0 + bound):
                flags.append("WORSE-PAST-BOUND")
            lines.append(f"{workload:8} {name:26} {p['median']:11.5g} {c['median']:11.5g} "
                         f"{ratio:7.3f} {gain:6.3f} {p['iqr'] / p['median']:8.3f} "
                         f"{won:>2}/{len(seeds):<3}  {' '.join(flags)}")
    return lines


def _read_bench(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise LedgerError(f"cannot read {path}: {exc}") from exc


def _newest_parent(candidate_path: Path, candidate: dict) -> Path:
    machine = [candidate["machine"].get(f) for f in MACHINE_FIELDS]
    earlier = []
    for path in candidate_path.parent.glob("BENCH_*.json"):
        if path.resolve() == candidate_path.resolve():
            continue
        other = _read_bench(path)
        if ([other["machine"].get(f) for f in MACHINE_FIELDS] == machine
                and other["written"] <= candidate["written"]):
            earlier.append((other["written"], path))
    if not earlier:
        raise LedgerError(f"no earlier BENCH file on the same machine beside {candidate_path}")
    return max(earlier)[1]


def _is_clean(tree: Path) -> bool:
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                             "--untracked-files=all", "--", "src", "perfbench"],
                            capture_output=True, text=True, check=True)
    return status.stdout.strip() == ""


def _run(tree: Path, workload: str, seed: int, seconds: float, commit: str) -> dict:
    """One perfbench run in `tree`; its record, with the tree's commit."""
    record_path = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if not record_path.is_file():
        tail = "\n".join(res.stderr.strip().splitlines()[-5:])
        raise LedgerError(f"{workload} seed {seed} in {tree} wrote no record "
                          f"(exit {res.returncode}):\n{tail}")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record["fingerprint"]["git_commit"] = commit
    return record


def _write(records: list[dict], label: str) -> tuple[Path, dict]:
    body = summarize(records, label)
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path, body


def run_ledger(rev: str, seeds: list[int], workloads: list[str]) -> list[str]:
    seconds = _benchmark()["run_seconds"]
    head_commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
    with checkout(ROOT, rev, "irfad-ledger-") as (sha, rev_tree, _):
        if sha == head_commit and _is_clean(ROOT):
            raise LedgerError(f"{rev} is the working tree's commit, with no edits to compare")
        trees = [(rev_tree, sha), (ROOT, head_commit)]
        records: dict[Path, list[dict]] = {ROOT: [], rev_tree: []}
        for i, seed in enumerate(seeds):
            for workload in workloads:
                for tree, commit in trees if i % 2 == 0 else trees[::-1]:
                    record = _run(tree, workload, seed, seconds, commit)
                    records[tree].append(record)
                    side = "rev" if tree == rev_tree else "working tree"
                    print(f"ledger: seed {seed} {workload} {side}: "
                          f"{'ok' if record['correct'] else 'FAILED'}", flush=True)
    digest = records[ROOT][0]["fingerprint"]["source_digest"]
    head_label = head_commit[:7] if _is_clean(ROOT) else f"src-{digest}"
    rev_path, rev_body = _write(records[rev_tree], sha[:7])
    head_path, head_body = _write(records[ROOT], head_label)
    print(f"ledger: wrote {rev_path.name} and {head_path.name}")
    return compare(head_body, rev_body, _bounds())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ledger.py", description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--seeds", type=_seeds)
    parser.add_argument("--workloads", type=_workloads, default=list(WORKLOADS))
    parser.add_argument("--compare", nargs="+", metavar="BENCH", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.compare is not None:
            if len(args.compare) > 2:
                parser.error("--compare takes a candidate and at most one parent")
            candidate = _read_bench(args.compare[0])
            parent_path = (args.compare[1] if len(args.compare) == 2
                           else _newest_parent(args.compare[0], candidate))
            lines = compare(candidate, _read_bench(parent_path), _bounds())
        elif args.seeds is None:
            parser.error("--seeds is required unless --compare is given")
        else:
            lines = run_ledger(args.rev, args.seeds, args.workloads)
    except (CheckoutError, LedgerError) as exc:
        sys.stderr.write(f"ledger: {exc}\n")
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
