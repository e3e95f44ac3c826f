"""Check that the working tree writes the same bytes as a git revision.

Usage: python tools/bitcheck.py [REV]        (REV defaults to HEAD)

REV is checked out with `git worktree add --detach` into a temporary
directory. In that checkout and in the working tree that holds this
script (uncommitted edits included), the same protocol runs, each command
in a fresh `python -m irfad` process with that tree's `src` on PYTHONPATH
and OPENBLAS_NUM_THREADS=1, in a scratch directory of its own and with
relative paths, so that manifests name the same paths:

1. `irfad toy --seed 123` with `epochs = 3`;
2. a blob `gen` (seed 0), then `train` (hidden 256,256,256, batch 64,
   5 epochs, seed 0);
3. `score` of the blob test split with each of the four scorers, with
   `save_maps = true` for irf-mean and irf-noisy;
4. `eval` from the net with each scorer, and `eval` from each scorer's
   `scores.csv`;
5. `score` and `eval` from the net with irf-noisy and recon at
   `infer_batch = 32`, four batches of the 128-row split, so the rows each
   batch reads from irf-noisy's one noise table, and each recon batch's own
   stream (`score-recon/k`, drawn inline as the chain asks), are checked
   beside the one-batch calls of steps 3 and 4 (where a recon call with a
   core to spare draws its noise on a second thread, a few slots ahead of
   the chain).

Then every file the two runs wrote is compared byte for byte. Only the
`seconds` column of `trainlog.csv` is masked. Each differing file is
printed with its first differing offset (in the masked text for
`trainlog.csv`); a differing `manifest` also lists the lines only one side
has. Exit status: 0 when every file matches, 1 on any difference, 2 when
REV cannot be checked out or a protocol command fails in either tree.
Both trees took 9 to 15 s together on a 2-core box.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from worktree import CheckoutError, checkout

SCORERS = ("irf-mean", "irf-noisy", "recon", "ddim")
IRF_SCORERS = ("irf-mean", "irf-noisy")
NOISE_SCORERS = ("irf-noisy", "recon")


def _steps():
    """(argv after `python -m irfad`, config file name, config text) of each
    protocol command, in order."""
    yield ["toy", "--seed", "123", "--out", "toy"], "toy.cfg", "epochs = 3\n"
    yield ["gen", "--seed", "0", "--out", "data"], "gen.cfg", "data = blobs\n"
    yield (["train", "--seed", "0", "--out", "run"], "train.cfg",
           "data = data/train\nhidden = 256,256,256\nembed_dim = 64\n"
           "batch_size = 64\nepochs = 5\n")
    net = "data = data/test\ncheckpoint = run/checkpoint.bin\n"
    for kind in SCORERS:
        maps = "save_maps = true\n" if kind in IRF_SCORERS else ""
        yield (["score", "--scorer", kind, "--out", f"score-{kind}"],
               f"score-{kind}.cfg", net + maps)
        yield (["eval", "--scorer", kind, "--out", f"eval-net-{kind}"],
               f"eval-net-{kind}.cfg", net)
        yield (["eval", "--out", f"eval-csv-{kind}"], f"eval-csv-{kind}.cfg",
               f"data = data/test\nscores_csv = score-{kind}/scores.csv\n")
    for kind in NOISE_SCORERS:
        for command, out in (("score", "score"), ("eval", "eval-net")):
            name = f"{out}-{kind}-batch32"
            yield ([command, "--scorer", kind, "--out", name], f"{name}.cfg",
                   net + "infer_batch = 32\n")


def run_protocol(tree: Path, work: Path) -> None:
    """Run every protocol command with `tree`'s source, inside `work`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    configs = work / "configs"
    configs.mkdir(parents=True)
    for argv, name, text in _steps():
        (configs / name).write_text(text)
        cmd = [sys.executable, "-m", "irfad", *argv, "--config", f"configs/{name}"]
        res = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(f"bitcheck: {' '.join(argv)} failed in {tree} "
                             f"(exit {res.returncode}):\n{res.stderr}")
            raise SystemExit(2)


def _mask_seconds(raw: bytes) -> bytes:
    """trainlog.csv with every field of its `seconds` column emptied."""
    lines = raw.decode("utf-8").split("\n")
    col = lines[0].split(",").index("seconds")
    masked = []
    for line in lines:
        fields = line.split(",")
        if len(fields) > col:
            fields[col] = ""
        masked.append(",".join(fields))
    return "\n".join(masked).encode("utf-8")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(rev_dir: Path, head_dir: Path) -> list[str]:
    """One report line per file that differs, or that only one side wrote."""
    rev_files, head_files = _files(rev_dir), _files(head_dir)
    report = [f"only in REV: {f}" for f in sorted(rev_files - head_files)]
    report += [f"only in working tree: {f}" for f in sorted(head_files - rev_files)]
    for name in sorted(rev_files & head_files):
        a, b = (rev_dir / name).read_bytes(), (head_dir / name).read_bytes()
        if name.endswith("trainlog.csv"):
            a, b = _mask_seconds(a), _mask_seconds(b)
        if a == b:
            continue
        offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        report.append(f"differs: {name} at byte {offset} ({len(a)} vs {len(b)} bytes)")
        if name.endswith("manifest"):
            old, new = a.decode("utf-8").splitlines(), b.decode("utf-8").splitlines()
            report += [f"  - {line}" for line in old if line not in new]
            report += [f"  + {line}" for line in new if line not in old]
    return report


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    rev = argv[0] if argv else "HEAD"
    head = Path(__file__).resolve().parent.parent
    try:
        with checkout(head, rev, "irfad-bitcheck-") as (sha, rev_tree, tmp):
            print(f"bitcheck: {rev} ({sha[:12]}) against the working tree {head}")
            run_protocol(rev_tree, tmp / "out-rev")
            run_protocol(head, tmp / "out-head")
            report = compare(tmp / "out-rev", tmp / "out-head")
            count = len(_files(tmp / "out-rev") | _files(tmp / "out-head"))
    except CheckoutError as exc:
        sys.stderr.write(f"bitcheck: {exc}\n")
        return 2
    for line in report:
        print(line)
    differing = sum(not line.startswith("  ") for line in report)
    print(f"bitcheck: {count} files compared, {differing} differ")
    return 1 if report else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
