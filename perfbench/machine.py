"""Machine fingerprint recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import subprocess
import time

import numpy as np
from scipy.special import expit

# Median probe times on the 2-core reference box; adjusted timings are in
# seconds of that box (see ``SpeedProbe``).
PROBE_REFERENCE_S = (0.0045, 0.0055)  # (compute, stream)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime() -> tuple[str, int | None]:
    """Config string and thread count of the OpenBLAS NumPy actually loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown", None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", ""), ("openblas_", "64_")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return get_config().decode("utf-8", "replace").strip(), int(get_threads())
    return "unknown", None


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest(src_dir: str) -> str:
    """sha256 over the package sources, so a result names its code without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def fingerprint(root: str, src_dir: str, blas_threads: str) -> dict:
    import numpy
    import scipy

    blas_config, blas_runtime_threads = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads_env": blas_threads,
        "blas_threads_runtime": blas_runtime_threads,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(src_dir),
    }


class SpeedProbe:
    """Times two fixed mixes: ``compute`` (small matmuls with SiLU, and
    interpreter work) and ``stream`` (elementwise ops over arrays larger
    than L2).

    The host this benchmark was built on drifts by about 30 % between
    30-second windows, because other tenants share its cores and memory. A
    timing taken next to a probe and scaled by reference over probe seconds
    keeps the program's own cost and drops most of that drift. On that 2-core
    box, with probes right before and after each unit, ``compute`` cut the
    spread of single units from 24 % to 14 % for 1000 toy requests and from
    18 % to 11 % for ``f1_max`` on 131k scores; for two blob training
    epochs, whose AdamW sweeps all parameters, ``compute`` alone left 11 %
    and ``compute + stream`` 9 %.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 128))
        self._w = rng.standard_normal((128, 128)) * 0.1
        self._big = [rng.standard_normal(1 << 18) for _ in range(3)]

    def _compute(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            h = self._a @ self._w
            h = h * expit(h)
        acc = 0
        for i in range(10_000):
            acc += i * i
        return time.perf_counter() - t0

    def _stream(self) -> float:
        t0 = time.perf_counter()
        x, y, z = self._big
        for _ in range(4):
            r = x * y
            r += z
            np.sqrt(np.abs(r), out=r)
        return time.perf_counter() - t0

    def __call__(self) -> tuple[float, float]:
        """Median seconds of three runs of each mix: (compute, stream)."""
        return (statistics.median(self._compute() for _ in range(3)),
                statistics.median(self._stream() for _ in range(3)))
