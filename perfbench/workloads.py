"""What one benchmark run executes, times and checks.

The batch stages drive the real CLI in-process through ``irfad.cli.main``, so
a stage wall is what a user of ``irfad <stage>`` pays. Scorer throughput and
the per-request loop call the library directly. Every operation (a stage
invocation, a scoring pass, a request or a correctness check) is counted;
a failed one is recorded with its reason.

Timing on a shared host. The host this benchmark was built on changes speed
by up to 1.6x within a second, per core, as other tenants come and go, and
30-second windows differ by about 30 %. So every timed unit is kept short
(well under a second), a speed probe runs before each unit and once at the
end, and each unit is reported scaled by ``PROBE_REFERENCE_S`` over the
median of the probes right before, inside and right after it
(``machine.SpeedProbe``): seconds of the reference box. Units of a
workload's ``stream_stages`` are scaled by the probe's compute and stream
parts together, the others by its compute part. Raw walls are reported next
to them. That is why the timed train stage runs a few epochs while the model
that is scored, evaluated and served is trained once, and why a recon pass is
timed in chunks of ``PASS_CHUNK_ROWS`` rows.

The benchmark reads no timing from the program: not ``bench.csv`` rates, not
``trainlog.csv`` seconds and not ``eval.csv``'s ``samples_per_sec``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import irfad.cli
from irfad import data, irf, net, scoring
from irfad.baselines import DEFAULT_DDIM_STEPS, DEFAULT_RECON_STEPS
from irfad.pipeline import DDIM, IRF_MEAN, RECON, Scorer
from irfad.schedule import linear_schedule
from machine import PROBE_REFERENCE_S, SpeedProbe

MIN_ROUNDS = 3
# Within a round a stage repeats until it has run this long, at most
# MAX_REPEATS times, so that short stages get more samples: the walls of a
# blob scoring pass or `irfad score` (a few milliseconds) vary the most.
UNIT_TARGET_S = 0.8
MAX_REPEATS = 12
# Requests are timed in blocks of at least this many, so that a block's p99
# has ten requests beyond it; online_p99_ms is the median of the blocks' p99,
# which one burst of host interference does not move.
MIN_BLOCK = 1000
MIN_BLOCKS = 3
SETUP_REPEATS = 5
REL_TOL = 1e-9
INFER_BATCH = 256  # the CLI's default infer_batch, so scores.csv matches bitwise
NFE_PER_SAMPLE = {IRF_MEAN: 1, DDIM: DEFAULT_DDIM_STEPS, RECON: DEFAULT_RECON_STEPS}
# Whole batches, so chunking changes no batch the scorer sees.
PASS_CHUNK_ROWS = {RECON: 2 * INFER_BATCH}


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict
    train: dict  # CLI train config without epochs
    train_epochs: int  # the timed train stage
    model_epochs: int  # the model that is scored, evaluated and served
    n_train: int
    t_infer: int
    requests_per_block: int
    # A serving workload trains, loads and warms up its model in set-up, and
    # its requests are traced. The others serve requests only untraced (see
    # Bench.serving).
    serving: bool
    gates: tuple[tuple[str, float], ...]  # eval.csv metric, lower limit
    upsample: tuple[int, int] | None = None
    # Stages scaled by the probe's stream part too: training the blob net
    # sweeps about 10 MB of parameters and AdamW moments per step, and tracked
    # the stream part (ten-run spread 5 % against 12-16 %); the toy net's fit
    # in L2, and its training tracked the compute part alone (8 % against 13 %).
    stream_stages: tuple[str, ...] = ()

    def __post_init__(self):
        if self.requests_per_block < MIN_BLOCK:
            raise ValueError(f"{self.name}: requests_per_block below {MIN_BLOCK}")


_BLOB_GEN = {
    "data": "blobs", "n_train": 512, "n_test": 128, "channels": 4, "height": 8,
    "width": 8, "up_height": 32, "up_width": 32,
}
_BLOB_NET = {"hidden": "256,256,256", "embed_dim": 64, "batch_size": 64}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy",
            gen={"data": "toy"},
            # lr 3e-4 over 20 epochs kept C1's AUROC bound on each of 50 seeds
            # (lowest 0.961); 1e-3, or 10 epochs, fell to 0.953-0.957
            train={"hidden": "128,128,128", "embed_dim": 64, "batch_size": 256, "lr": 3e-4},
            train_epochs=2,
            model_epochs=20,
            n_train=data.TOY_N_TRAIN,
            t_infer=250,
            requests_per_block=2000,
            serving=False,
            gates=(("image_auroc", 0.95),),
        ),
        Workload(
            name="blobs",
            gen=_BLOB_GEN,
            # 20 epochs kept C9's bounds on each of 30 seeds (lowest pixel
            # AUROC 0.917, AU-PRO 0.756)
            train=_BLOB_NET,
            train_epochs=4,
            model_epochs=20,
            n_train=512,
            t_infer=500,
            requests_per_block=1000,
            serving=False,
            gates=(("pixel_auroc", 0.9), ("pixel_aupro", 0.7)),
            upsample=(32, 32),
            stream_stages=("train",),
        ),
        Workload(
            name="online",
            gen=_BLOB_GEN,
            train=_BLOB_NET,
            train_epochs=4,
            model_epochs=10,
            n_train=512,
            t_infer=500,
            requests_per_block=1000,
            serving=True,
            gates=(),
            upsample=(32, 32),
            stream_stages=("train",),
        ),
    )
}


def _write_config(path: str, values: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in values.items())
    return path


def _read_column(path: str, key: str, value: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row[key]: row[value] for row in csv.DictReader(fh)}


def _child_import_seconds(src_dir: str) -> float:
    """Import time of irfad in a fresh interpreter with this process's env."""
    code = (
        "import time; t = time.perf_counter(); import irfad.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Bench:
    """One run of one workload: set-up repeats, then rounds until the deadline."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: str,
                 src_dir: str, tracer=None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.src_dir = src_dir
        self.tracer = tracer
        # Per-request traffic is the serving workload's. Every untraced run
        # reports every end-to-end metric, online_p50_ms too, so the others
        # serve the same requests then; traced, they leave them out.
        self.serving = workload.serving or tracer is None
        self.schedule = linear_schedule()
        self.attempted = 0
        self.failures: list[str] = []
        self.probe = SpeedProbe()
        self.probes: list[tuple[float, float, float]] = []  # (when, compute, stream)
        self.probe_s = 0.0  # time spent probing, kept out of set-up samples
        # (round, stage, sample, start, end, seconds): the units of one sample
        # (one chunked pass) share its id; seconds == end - start except set-up
        self.walls: list[tuple[int, str, int, float, float, float]] = []
        self._sample_ids = itertools.count()
        self.latencies: list[tuple[int, float]] = []  # (index into walls, seconds)
        self.round = -1  # set-up
        self.rounds = 0
        self.checkpoints: dict[str, bytes] = {}  # first payload per train stage
        self.ref_irf: np.ndarray | None = None
        self._next_request = 0
        self.data_dir = os.path.join(work, "data0")
        self.model_dir = os.path.join(work, "model")

    # -- bookkeeping --------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def probe_now(self) -> None:
        t0 = time.perf_counter()
        self.probes.append((t0, *self.probe()))
        self.probe_s += time.perf_counter() - t0

    def speed_scale(self, start: float, end: float, stream: bool = False) -> float:
        """Reference seconds per second of this host between `start` and `end`."""
        near = [p for p in self.probes if start <= p[0] <= end]
        near += [p for p in self.probes if p[0] <= start][-1:]
        near += [p for p in self.probes if p[0] >= end][:1]
        if stream:
            return sum(PROBE_REFERENCE_S) / statistics.median(c + s for _, c, s in near)
        return PROBE_REFERENCE_S[0] / statistics.median(c for _, c, _ in near)

    @contextlib.contextmanager
    def stage(self, name: str, timed: bool = True, sample: int | None = None):
        """Runs one unit of stage `name`; units passed the same `sample` add up."""
        if timed:
            self.probe_now()
        tracing = self.tracer is not None and self.tracer.installed
        with self.tracer.stage(name) if tracing else contextlib.nullcontext():
            t0 = time.perf_counter()
            yield
            t1 = time.perf_counter()
        if timed:
            sample = next(self._sample_ids) if sample is None else sample
            self.walls.append((self.round, name, sample, t0, t1, t1 - t0))

    def cli(self, stage: str, argv: list[str], timed: bool = True) -> bool:
        with self.stage(stage, timed), contextlib.redirect_stdout(io.StringIO()):
            rc = irfad.cli.main(argv)
        return self.check(rc == 0, f"irfad {argv[0]} exited {rc}")

    def _config(self, name: str, values: dict) -> str:
        return _write_config(os.path.join(self.work, name + ".cfg"), values)

    # -- stages ----------------------------------------------------------------

    def gen(self, data_dir: str) -> bool:
        cfg = self._config("gen", self.w.gen)
        return self.cli("gen", ["gen", "--config", cfg, "--seed", str(self.seed),
                                "--out", data_dir])

    def train(self, stage: str, epochs: int, data_dir: str, out: str, timed: bool) -> bool:
        values = {"data": os.path.join(data_dir, "train"), **self.w.train, "epochs": epochs}
        argv = ["train", "--config", self._config(stage, values), "--seed", str(self.seed),
                "--out", out]
        if not self.cli(stage, argv, timed):
            return False
        with open(os.path.join(out, "checkpoint.bin"), "rb") as fh:
            payload = fh.read()
        first = self.checkpoints.setdefault(stage, payload)
        return first is payload or self.check(
            payload == first, f"checkpoint.bin differs between {stage} repeats")

    def _test_config(self, name: str) -> str:
        values = {
            "data": os.path.join(self.data_dir, "test"),
            "checkpoint": os.path.join(self.model_dir, "checkpoint.bin"),
        }
        return self._config(name, values)

    def score_stage(self) -> bool:
        out = os.path.join(self.work, "score")
        argv = ["score", "--config", self._test_config("score"), "--seed", str(self.seed),
                "--scorer", IRF_MEAN, "--out", out]
        return self.cli("score", argv)

    def eval_stage(self) -> bool:
        out = os.path.join(self.work, "eval")
        argv = ["eval", "--config", self._test_config("eval"), "--seed", str(self.seed),
                "--out", out]
        if not self.cli("eval", argv):
            return False
        values = _read_column(os.path.join(out, "eval.csv"), "metric", "value")
        for metric, limit in self.w.gates:
            got = float(values[metric])
            self.check(got >= limit, f"{metric} {got} below {limit}")
        return True

    def load(self) -> None:
        """The benchmark's own load of the trained model and the test split."""
        with self.stage("load", timed=False):
            self.net = net.load_checkpoint(
                os.path.join(self.model_dir, "checkpoint.bin"), self.schedule
            )
            self.X = data.load_dataset(os.path.join(self.data_dir, "test")).samples

    def scorer(self, kind: str) -> Scorer:
        return Scorer(kind, self.net, self.schedule, t_infer=self.w.t_infer,
                      batch_size=INFER_BATCH, noise_seed=self.seed)

    def scoring_pass(self, kind: str, timed: bool) -> bool:
        """One pass over the test split. Untraced, a recon pass is timed in
        chunks of whole batches with a probe between them."""
        scorer = self.scorer(kind)
        n = len(self.X)
        traced = self.tracer is not None
        rows = n if traced else PASS_CHUNK_ROWS.get(kind, n)
        sample = next(self._sample_ids)
        counter = net.EvalCounter()
        parts = []
        for start in range(0, n, rows):
            with self.stage(f"pass:{kind}", timed, sample):
                parts.append(scorer(self.X[start : start + rows], counter).s)
        scores = np.concatenate(parts)
        self.check(True, f"{kind} pass")
        self.check(counter.count == NFE_PER_SAMPLE[kind] * n,
                   f"{kind} used {counter.count} evaluations for {n} samples")
        self.check(bool(np.all(np.isfinite(scores))), f"{kind} produced non-finite scores")
        if kind == IRF_MEAN:
            if self.ref_irf is None:
                self.ref_irf = scores
            else:
                self.check(np.array_equal(scores, self.ref_irf),
                           "irf-mean scores differ between passes")
        return True

    def check_scores_csv(self) -> None:
        path = os.path.join(self.work, "score", "scores.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            written = np.array([float(row["s"]) for row in csv.DictReader(fh)])
        self.check(np.array_equal(written, self.ref_irf),
                   "scores.csv differs from the in-memory irf-mean scores")

    def _serve(self, n_requests: int) -> list:
        """Closed loop, one client: each request waits for the previous one.
        A request is the per-sample public path: ``irf_mean`` +
        ``image_score``, + ``score_map`` where the samples are maps. A vector
        sample's field is (d, 1, 1), as in ``pipeline``."""
        X, n, up = self.X, len(self.X), self.w.upsample
        results = []
        for _ in range(n_requests):
            i = self._next_request % n
            self._next_request += 1
            t0 = time.perf_counter()
            delta = irf.irf_mean(self.net, self.schedule, X[i], self.w.t_infer).delta
            field = delta if delta.ndim == 3 else delta.reshape(-1, 1, 1)
            score = scoring.image_score(field).s
            full = scoring.score_map(field, up).full_scale if up else None
            results.append((i, score, full, time.perf_counter() - t0))
        return results

    def requests(self, n_requests: int) -> None:
        with self.stage("requests"):
            results = self._serve(n_requests)
        block = len(self.walls) - 1
        self.latencies.extend((block, r[3]) for r in results)
        for i, score, full, _ in results:
            self.check(True, "request")
            ref = self.ref_irf[i]
            self.check(
                abs(score - ref) <= REL_TOL * abs(ref)
                and (full is None or full.shape == self.w.upsample
                     and bool(np.all(np.isfinite(full)))),
                f"request for sample {i} scored {score!r}, batched pass {ref!r}",
            )

    # -- set-up and rounds -------------------------------------------------------

    def setup_once(self, k: int) -> bool:
        """gen and writing datasets (imports are timed by the caller); on
        `online` also training, loading the model and one warm-up request."""
        data_dir = os.path.join(self.work, f"data{k}")
        if not self.gen(data_dir):
            return False
        if not self.w.serving:
            return True
        model_dir = os.path.join(self.work, f"model{k}")
        # untraced, so that per-layer training figures cover the timed train
        # stage alone, as on the other workloads, where this runs in round 0
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            if not self.train("train:model", self.w.model_epochs, data_dir, model_dir, False):
                return False
            self.data_dir, self.model_dir = data_dir, model_dir
            self.load()
            self._serve(1)  # warm-up request
        return True

    def setup(self, t_process_start: float) -> bool:
        """SETUP_REPEATS set-ups; the first starts at process start, before
        `import irfad`; the others add a fresh interpreter's import time."""
        if not self.setup_once(0):
            return False
        end = time.perf_counter()
        self.walls.append((-1, "setup", next(self._sample_ids), t_process_start, end,
                           end - t_process_start - self.probe_s))
        for k in range(1, SETUP_REPEATS):
            self.probe_now()
            probing = self.probe_s
            start = time.perf_counter()
            imported = _child_import_seconds(self.src_dir)
            t0 = time.perf_counter()
            if not self.setup_once(k):
                return False
            end = time.perf_counter()
            wall = imported + end - t0 - (self.probe_s - probing)
            self.walls.append((-1, "setup", next(self._sample_ids), start, end, wall))
        return True

    def one_round(self, first: bool) -> bool:
        """Every stage once, each followed by a block of requests if the run
        serves them, so that latencies are sampled across the whole run."""
        block = self.w.requests_per_block
        if first and not self.w.serving:
            if not self.train("train:model", self.w.model_epochs, self.data_dir,
                              self.model_dir, False):
                return False
            self.load()
        if first:
            for kind in (IRF_MEAN, DDIM, RECON):
                self.scoring_pass(kind, timed=False)  # warm-up; sets ref_irf
        short = os.path.join(self.work, "train")
        stages = [
            lambda: self.train("train", self.w.train_epochs, self.data_dir, short, True),
            self.score_stage,
            self.eval_stage,
            *(lambda kind=kind: self.scoring_pass(kind, timed=True)
              for kind in (IRF_MEAN, DDIM, RECON)),
        ]
        for run_stage in stages:
            t0 = time.perf_counter()
            for _ in range(MAX_REPEATS):
                if not run_stage():
                    return False
                if time.perf_counter() - t0 >= UNIT_TARGET_S:
                    break
            if self.serving:
                self.requests(block)
        self.check_scores_csv()
        return True

    def run_rounds(self, after_first=None) -> None:
        """Rounds until the next one would end past the deadline (at least
        MIN_ROUNDS); then top requests up to MIN_BLOCKS blocks if the run
        serves them."""
        start = time.perf_counter()
        last = 0.0
        while not self.failures:
            elapsed = time.perf_counter() - start
            if self.rounds >= MIN_ROUNDS and elapsed + last > self.seconds:
                break
            self.round = self.rounds
            t0 = time.perf_counter()
            if not self.one_round(first=self.rounds == 0):
                break
            last = time.perf_counter() - t0
            self.rounds += 1
            if self.rounds == 1 and after_first is not None:
                after_first()
        while (self.serving and not self.failures
               and len(self.latencies) < MIN_BLOCKS * MIN_BLOCK):
            self.requests(self.w.requests_per_block)
        self.probe_now()  # closes the last unit

    # -- results ---------------------------------------------------------------

    def samples(self, stage: str, rounds=None) -> list[tuple[float, float]]:
        """(raw seconds, reference seconds) of each timed sample of `stage`."""
        sums: dict[int, list[float]] = {}
        for r, name, sample, t0, t1, wall in self.walls:
            if name == stage and (rounds is None or r in rounds):
                raw_adj = sums.setdefault(sample, [0.0, 0.0])
                raw_adj[0] += wall
                raw_adj[1] += wall * self.speed_scale(t0, t1, name in self.w.stream_stages)
        return [tuple(v) for v in sums.values()]

    def stage_walls(self, stage: str, rounds=None) -> list[float]:
        return [adjusted for _, adjusted in self.samples(stage, rounds)]


def percentile_nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(bench: Bench, peak_rss_mb: float) -> dict[str, tuple[float, str, int, float]]:
    """metric -> (value, unit, sample count, value from raw walls)."""
    out = {}

    def both(metric, unit, stat, samples, transform=lambda v: v):
        raw = [transform(r) for r, _ in samples]
        adjusted = [transform(a) for _, a in samples]
        out[metric] = (stat(adjusted), unit, len(samples), stat(raw))

    w, n_test = bench.w, len(bench.X)
    both("setup_s", "s", statistics.median, bench.samples("setup"))
    trained = w.n_train * w.train_epochs
    both("train_samples_per_s", "samples/s", statistics.median, bench.samples("train"),
         lambda s: trained / s)
    for kind, metric in ((IRF_MEAN, "score_irf_samples_per_s"),
                         (DDIM, "score_ddim_samples_per_s"),
                         (RECON, "score_recon_samples_per_s")):
        both(metric, "samples/s", statistics.median, bench.samples(f"pass:{kind}"),
             lambda s: n_test / s)
    both("score_stage_s", "s", statistics.median, bench.samples("score"))
    both("eval_stage_s", "s", statistics.median, bench.samples("eval"))
    blocks: dict[int, list[tuple[float, float]]] = {}
    for block, secs in bench.latencies:
        blocks.setdefault(block, []).append(secs)
    latencies, p99s = [], []
    for block, raw in blocks.items():
        _, _, _, t0, t1, _ = bench.walls[block]
        scale = bench.speed_scale(t0, t1)
        latencies.extend((s, s * scale) for s in raw)
        p99 = percentile_nearest_rank(raw, 0.99)
        p99s.append((p99, p99 * scale))
    both("online_p50_ms", "ms", statistics.median, latencies, lambda s: s * 1e3)
    both("online_p99_ms", "ms", statistics.median, p99s, lambda s: s * 1e3)
    out["peak_rss_mb"] = (peak_rss_mb, "MiB", 1, peak_rss_mb)
    return out
