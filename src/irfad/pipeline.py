"""Batched scoring pipelines shared by the score, eval, and bench commands.

A Scorer wraps one scoring rule behind a uniform callable interface
`scorer(samples, counter) -> ScoreTable`, processing the dataset in fixed
batches. The residual-field scorers compute each batch through
`irf.irf_mean` or `irf.irf_noisy`, which check one network evaluation per
sample, and retain the per-sample fields so pixel-level score maps can be
produced; the multi-step baselines return image scores only.

A call runs its batches on up to min(workers, batches) threads, the
calling thread among them, where `_workers` shares the cores out among
BLAS's own threads; the others are the threads of one executor
(`irfad-scorer`), and with one batch or one worker none starts. Batches
are independent and NumPy and BLAS release the GIL, so the threads share
the cores without a change to any output bit or evaluation count.

Both stochastic scorers draw their noise per batch, in batch order, as a
thread takes the batch, so the bits are those of one thread scoring the
batches in order. One case differs: a reconstruction call with one batch
and more than one worker runs its chain on the calling thread alone, so a
one-thread executor (`irfad-noise`) draws the chain's slots on the idle
core, in draw order, while the chain reads them. It draws at most
`_NOISE_AHEAD` slots beyond the one the chain holds (`_ahead`), into that
many arrays plus one, which the slots take in turn, so the call holds
those arrays, not all `recon_steps` slots.
Leaving a call, by its end, a failure or an interrupt, cancels every task
not yet started and joins every thread it started (`_threads`). Each call
re-derives its noise stream from (seed, pass label), so a pass is
deterministic for a given configuration.

Every call refuses non-finite scores with a NumericError before it
returns, so no caller writes them.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines
from .data import Dataset, quote
from .errors import NumericError, ParameterError
from .metrics import EvalReport, aupro, auroc, average_precision, f1_max, shared_ranking
from .irf import irf_mean, irf_noisy
from .net import EvalCounter, NoisePredictor
from .net import time_embedding  # noqa: F401 -- unused; perfbench/spans.py wraps this binding
from .rng import make_rng
from .schedule import NoiseSchedule, check_step
from .scoring import bilinear_upsample, feature_scale_maps, image_scores

IRF_MEAN = "irf-mean"
IRF_NOISY = "irf-noisy"
RECON = "recon"
DDIM = "ddim"
SCORER_KINDS = (IRF_MEAN, IRF_NOISY, RECON, DDIM)
# recon noise slots submitted beyond the one the chain holds. With 2, a
# draw runs through each evaluation; with 1 the chain waits for every draw,
# and a one-batch blob recon call took 1.3-1.5x as long (2-core box)
_NOISE_AHEAD = 2


@dataclass(frozen=True)
class ScoreTable:
    """Per-sample image scores; components only exist for IRF scorers."""

    s: np.ndarray
    s_diff: np.ndarray | None = None
    s_nll: np.ndarray | None = None
    deltas: np.ndarray | None = None  # (n, c, h, w) residual fields


@functools.cache
def _openblas_get_num_threads():
    """`get_num_threads` of the OpenBLAS NumPy loaded, or None where it
    cannot be found (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get
    return None


def _workers() -> int:
    """Threads for a Scorer call: the CPUs this process may run on, shared
    out among BLAS's own threads, since every worker calls BLAS. With BLAS
    on every core this is 1, and a call runs as one thread did before."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        cores = os.cpu_count() or 1
    get = _openblas_get_num_threads()
    return max(1, cores // max(1, get() if get is not None else 1))


def field_shape(sample_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """Samples are (c, h, w) fields; 1-D vectors degenerate to (d, 1, 1)."""
    if len(sample_shape) == 3:
        return sample_shape
    if len(sample_shape) == 1:
        return (sample_shape[0], 1, 1)
    raise ParameterError(f"unsupported sample shape {sample_shape}")


@contextlib.contextmanager
def _threads(workers: int, name: str):
    """An executor of up to `workers` threads named `name`_N, shut down on
    leaving the block: the tasks that have not started are cancelled and
    every thread is joined. An interrupt during the join starts the join
    again and is re-raised once every thread has ended."""
    pool = ThreadPoolExecutor(workers, thread_name_prefix=name)
    try:
        yield pool
    finally:
        interrupt = None
        while True:
            try:
                pool.shutdown(cancel_futures=True)
                break
            except BaseException as exc:  # interrupted while joining
                interrupt = interrupt or exc
        if interrupt is not None:
            raise interrupt


def _ahead(pool: ThreadPoolExecutor, fn, items, depth: int):
    """`map(fn, items)` on `pool`, in order, with at most `depth` calls
    submitted beyond the result the caller holds. The first `depth` calls
    are submitted now; each later request submits one more call before it
    waits for its result. A failed call re-raises with its own type."""
    pending = collections.deque(pool.submit(fn, item) for item in itertools.islice(items, depth))

    def results():
        while pending:
            yield pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in itertools.islice(items, 1))

    return results()


class Scorer:
    """One scoring rule over batches; callable as scorer(samples, counter)."""

    def __init__(
        self,
        kind: str,
        net: NoisePredictor,
        schedule: NoiseSchedule,
        t_infer: int,
        batch_size: int = 256,
        noise_seed: int = 0,
        recon_t_start: int = baselines.DEFAULT_RECON_T_START,
        recon_steps: int = baselines.DEFAULT_RECON_STEPS,
        ddim_steps: int = baselines.DEFAULT_DDIM_STEPS,
    ):
        if kind not in SCORER_KINDS:
            raise ParameterError(f"unknown scorer {quote(kind)}, expected one of {SCORER_KINDS}")
        if batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        self.kind = kind
        self.net = net
        self.schedule = schedule
        self.t_infer = check_step(t_infer, schedule.T)
        self.batch_size = int(batch_size)
        self.noise_seed = int(noise_seed)
        self.recon_t_start = int(recon_t_start)
        self.recon_steps = int(recon_steps)
        self.ddim_steps = int(ddim_steps)
        if kind == RECON:  # refuse bad steps before a call allocates noise
            self.recon_t_start = check_step(recon_t_start, schedule.T)
            baselines.substep_grid(self.recon_t_start, self.recon_steps)
        elif kind == DDIM:
            baselines.substep_grid(schedule.T, self.ddim_steps)

    def __call__(self, samples: np.ndarray, counter: EvalCounter | None = None) -> ScoreTable:
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.shape[0]
        if n == 0:
            raise ParameterError("cannot score zero samples")
        cshape = field_shape(samples.shape[1:])
        X = samples.reshape(n, -1)
        if X.shape[1] != self.net.spec.d:
            raise ParameterError(
                f"dataset dim {X.shape[1]} != checkpoint dim {self.net.spec.d}"
            )
        # an overflow shows as a non-finite score, refused below for every scorer
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind in (IRF_MEAN, IRF_NOISY):
                table = self._score_irf(X.reshape((n,) + cshape), counter)
            else:
                table = self._score_baseline(X, counter)
        if not np.isfinite(table.s).all():
            bad = np.flatnonzero(~np.isfinite(table.s))
            raise NumericError(
                f"non-finite {self.kind} scores for {bad.size} of {n} samples "
                f"(first: sample {bad[0]})"
            )
        return table

    def _batches(self, n: int):
        for start in range(0, n, self.batch_size):
            yield start, min(start + self.batch_size, n)

    def _run_batches(self, n: int, score, counter, draw=None) -> None:
        """Call `score(start, stop, noise, own_counter)` once per batch of n
        rows, on min(workers, batches) threads, the caller's among them.

        Threads take their next batch from one lock-guarded iterator and draw
        its `noise = draw(start, stop)` (None without `draw`) under that lock,
        so a random stream is consumed in batch order whichever thread takes
        the batch, and the noise is allocated by the thread that reads it. Each
        thread counts on its own EvalCounter, so the one-evaluation check in
        `irf` sees its own batch only; after the join `counter` gains the sum
        by `count +=`, since each evaluation has passed through `add`
        once. Started threads compute under the caller's floating-point error
        handling. The first failure stops the other threads from taking
        batches and is re-raised once every thread has been joined.
        """
        spans = self._batches(n)
        batches = -(-n // self.batch_size)
        workers = min(_workers(), batches) if batches > 1 else 1
        counters = [EvalCounter() for _ in range(workers)]
        lock = threading.Lock()
        errors: list[BaseException] = []

        def work(own: EvalCounter) -> None:
            try:
                while not errors:
                    with lock:
                        span = next(spans, None)
                        if span is None:
                            return
                        noise = draw(*span) if draw is not None else None
                    score(*span, noise, own)
                    del noise  # at most one batch of noise per thread
            except BaseException as exc:
                errors.append(exc)

        def work_as_caller(own: EvalCounter, fp_errors: dict) -> None:
            with np.errstate(**fp_errors):
                work(own)

        # one worker needs no executor, which costs about 20 us a call to make
        threads = _threads(workers - 1, "irfad-scorer") if workers > 1 else contextlib.nullcontext()
        with threads as pool:
            try:
                for own in counters[1:]:
                    pool.submit(work_as_caller, own, np.geterr())
                work(counters[0])
            except BaseException as exc:  # a thread that would not start, or an interrupt
                errors.append(exc)
        if errors:
            error = errors[0]
            errors.clear()  # the traceback's frames hold this list
            raise error
        if counter is not None:
            counter.count += sum(own.count for own in counters)

    def _score_irf(self, fields, counter) -> ScoreTable:
        draw = None
        if self.kind == IRF_NOISY:
            rng = make_rng(self.noise_seed, "score-noisy")

            def draw(start, stop):  # the rows in C order, as one draw for the table
                return rng.standard_normal((stop - start,) + fields.shape[1:])

        deltas = np.empty(fields.shape)

        def score(start, stop, eps, own):
            x0 = fields[start:stop]
            if eps is None:
                res = irf_mean(self.net, self.schedule, x0, self.t_infer, own)
            else:
                res = irf_noisy(self.net, self.schedule, x0, self.t_infer, eps, own)
            deltas[start:stop] = res.delta

        self._run_batches(len(fields), score, counter, draw)
        s_diff, s_nll = image_scores(deltas)
        return ScoreTable(s=s_diff + s_nll, s_diff=s_diff, s_nll=s_nll, deltas=deltas)

    def _score_baseline(self, X, counter) -> ScoreTable:
        n, d = X.shape
        scores = np.empty(n)
        if self.kind == DDIM:

            def score(start, stop, noise, own):
                scores[start:stop] = baselines.ddim_invert_batch(
                    self.net, self.schedule, X[start:stop], self.ddim_steps, own
                )

            self._run_batches(n, score, counter)
            return ScoreTable(s=scores)

        rng = make_rng(self.noise_seed, "score-recon")

        def fill(slot):
            return rng.standard_normal(out=slot)

        def draw(start, stop):
            if pool is None:
                # one array per slot: with one (steps, rows, d) block the blob
                # benchmark's peak RSS read 1-9 MiB above separate arrays'
                slots = (np.empty((stop - start, d)) for _ in range(self.recon_steps))
                return list(map(fill, slots))
            # the chain is done with a slot when it asks for the next, so the
            # look-ahead's slots take turns in _NOISE_AHEAD + 1 arrays: fresh
            # arrays per slot read 2-3 % slower on the blob recon pass (2-core box)
            ring = [np.empty((stop - start, d)) for _ in range(_NOISE_AHEAD + 1)]
            slots = (ring[k % len(ring)] for k in range(self.recon_steps))
            return _ahead(pool, fill, slots, _NOISE_AHEAD)

        def score(start, stop, noise, own):
            scores[start:stop] = baselines.reconstruct_batch(
                self.net, self.schedule, X[start:stop], self.recon_t_start, self.recon_steps,
                noise, own)

        # one batch runs on the calling thread alone: draw its noise on an
        # idle core while the chain runs, a few slots ahead of it
        alongside = n <= self.batch_size and _workers() > 1
        with _threads(1, "irfad-noise") if alongside else contextlib.nullcontext() as pool:
            self._run_batches(n, score, counter, draw)
        return ScoreTable(s=scores)


def pixel_maps(table: ScoreTable, target: tuple[int, int]) -> np.ndarray:
    """Upsampled (n, H, W) score maps from the retained residual fields."""
    if table.deltas is None:
        raise ParameterError("pixel maps require a residual-field scorer")
    return bilinear_upsample(feature_scale_maps(table.deltas), target[0], target[1])


def evaluate_scorer(
    scorer: Scorer,
    dataset: Dataset,
    fpr_limit: float = 0.3,
) -> tuple[EvalReport, ScoreTable]:
    """Score a dataset and assemble the metric report.

    Pixel-level metrics are computed when the dataset carries masks and the
    scorer retains residual fields; the score maps are drawn at the masks'
    resolution.
    """
    counter = EvalCounter()
    table = scorer(dataset.samples, counter)
    with shared_ranking():  # one sort for the image metrics, one for the pixel metrics
        report = EvalReport(
            image_auroc=auroc(table.s, dataset.labels),
            image_ap=average_precision(table.s, dataset.labels),
            image_f1=f1_max(table.s, dataset.labels),
            nfe=counter.count,
        )
        if dataset.masks is not None and table.deltas is not None:
            maps = pixel_maps(table, dataset.masks.shape[1:])
            flat_scores = maps.reshape(-1)
            flat_labels = dataset.masks.reshape(-1)
            report.pixel_auroc = auroc(flat_scores, flat_labels)
            report.pixel_ap = average_precision(flat_scores, flat_labels)
            report.pixel_f1 = f1_max(flat_scores, flat_labels)
            report.pixel_aupro = aupro(maps, dataset.masks, fpr_limit)
    return report, table
