"""A git revision checked out beside the working tree, for the tools that
compare the two (`bitcheck.py`, `ledger.py`)."""

from __future__ import annotations

import contextlib
import subprocess
import tempfile
from pathlib import Path


class CheckoutError(Exception):
    """REV does not name a commit, or git cannot check it out."""


@contextlib.contextmanager
def checkout(head: Path, rev: str, prefix: str):
    """Yield (full sha, checkout directory, scratch directory) for `rev`.

    `rev` is resolved in the repository at `head` and checked out with
    `git worktree add --detach` under a fresh temporary directory, which
    also serves as the caller's scratch space. The worktree is removed and
    the directory deleted on leaving the block, by an error too.
    """
    git = ["git", "-C", str(head)]
    sha = subprocess.run([*git, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True)
    if sha.returncode != 0:
        raise CheckoutError(f"unknown revision {rev!r}")
    sha = sha.stdout.strip()
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        path = Path(tmp) / "rev"
        added = subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(path), sha],
                               capture_output=True, text=True)
        if added.returncode != 0:
            detail = (added.stderr.strip().splitlines() or [f"exit {added.returncode}"])[-1]
            raise CheckoutError(f"cannot check out {rev} ({sha[:12]}): {detail}")
        try:
            yield sha, path, Path(tmp)
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(path)], check=False)
