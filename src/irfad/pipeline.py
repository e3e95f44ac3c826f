"""Batched scoring pipelines shared by the score, eval, and bench commands.

A Scorer wraps one scoring rule behind a uniform callable interface
`scorer(samples, counter) -> ScoreTable`, processing the dataset in fixed
batches. The residual-field scorers compute each batch through
`irf.irf_mean` or `irf.irf_noisy`, which check one network evaluation per
sample, and retain the per-sample fields so pixel-level score maps can be
produced; the multi-step baselines return image scores only.

Scoring a pass is deterministic for a given configuration: the noisy-state
scorer re-derives its noise stream from (seed, pass label) on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import baselines
from .data import Dataset
from .errors import ParameterError
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


@dataclass(frozen=True)
class ScoreTable:
    """Per-sample image scores; components only exist for IRF scorers."""

    s: np.ndarray
    s_diff: np.ndarray | None = None
    s_nll: np.ndarray | None = None
    deltas: np.ndarray | None = None  # (n, c, h, w) residual fields


def field_shape(sample_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """Samples are (c, h, w) fields; 1-D vectors degenerate to (d, 1, 1)."""
    if len(sample_shape) == 3:
        return sample_shape
    if len(sample_shape) == 1:
        return (sample_shape[0], 1, 1)
    raise ParameterError(f"unsupported sample shape {sample_shape}")


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
            raise ParameterError(f"unknown scorer {kind!r}, expected one of {SCORER_KINDS}")
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
        if self.kind in (IRF_MEAN, IRF_NOISY):
            return self._score_irf(X.reshape((n,) + cshape), counter)
        return self._score_baseline(X, counter)

    def _batches(self, n: int):
        for start in range(0, n, self.batch_size):
            yield start, min(start + self.batch_size, n)

    def _score_irf(self, fields, counter) -> ScoreTable:
        eps = None
        if self.kind == IRF_NOISY:
            eps = make_rng(self.noise_seed, "score-noisy").standard_normal(fields.shape)
        deltas = np.empty(fields.shape)
        for start, stop in self._batches(len(fields)):
            x0 = fields[start:stop]
            if eps is None:
                res = irf_mean(self.net, self.schedule, x0, self.t_infer, counter)
            else:
                res = irf_noisy(
                    self.net, self.schedule, x0, self.t_infer, eps[start:stop], counter
                )
            deltas[start:stop] = res.delta
        s_diff, s_nll = image_scores(deltas)
        return ScoreTable(s=s_diff + s_nll, s_diff=s_diff, s_nll=s_nll, deltas=deltas)

    def _score_baseline(self, X, counter) -> ScoreTable:
        n = X.shape[0]
        scores = np.empty(n)
        rng = make_rng(self.noise_seed, "score-recon") if self.kind == RECON else None
        for start, stop in self._batches(n):
            xb = X[start:stop]
            if self.kind == RECON:
                noise = baselines.draw_recon_noise(rng, xb.shape, self.recon_steps)
                scores[start:stop] = baselines.reconstruct_batch(
                    self.net,
                    self.schedule,
                    xb,
                    self.recon_t_start,
                    self.recon_steps,
                    noise,
                    counter,
                )
            else:
                scores[start:stop] = baselines.ddim_invert_batch(
                    self.net, self.schedule, xb, self.ddim_steps, counter
                )
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
