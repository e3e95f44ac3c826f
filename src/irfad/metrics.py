"""Evaluation metrics with exactly pinned tie conventions.

All ranking metrics group equal scores into one threshold step, and every
curve-level accumulation goes through math.fsum (exact summation), so the
results are reproducible to the bit and can be checked against brute-force
oracles with equality rather than tolerances.

Conventions:
* auroc: trapezoidal ROC area in the midrank (Mann-Whitney) formulation.
* average_precision: step-wise sum of precision at each recall increment.
* f1_max: max over thresholds induced by distinct score values of
  2*TP / (2*TP + FP + FN), predicting positive at score >= threshold.
* aupro: mean per-region recall (8-connected components of the masks,
  pooled over the set) as a function of pooled pixel FPR, integrated by
  trapezoid up to fpr_limit and normalized by fpr_limit. The curve starts
  at (0, 0) and region order is canonical (image index, then first pixel
  in row-major order).
* throughput: median samples/sec over `repeats` timed passes after one
  warm-up pass; NFE comes from the evaluation counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import fsum

import numpy as np
from scipy import ndimage
from scipy.stats import rankdata

from .errors import ParameterError, UndefinedMetricError
from .net import EvalCounter

EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
DEFAULT_FPR_LIMIT = 0.3


def _check_binary(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ParameterError("scores and labels must have equal length")
    if not np.all((labels == 0) | (labels == 1)):
        raise ParameterError("labels must be binary (0 = normal, 1 = abnormal)")
    return scores, labels.astype(np.int64)


def auroc(scores, labels) -> float:
    """Area under the ROC curve; ties handled by midranks."""
    scores, labels = _check_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auroc needs at least one sample of each class")
    ranks = rankdata(scores, method="average")
    rank_sum = fsum(ranks[labels == 1])
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (float(n_pos) * float(n_neg))


def _threshold_counts(scores, labels) -> tuple[np.ndarray, np.ndarray, int]:
    """Cumulative (TP, predicted-positive) at each distinct-score boundary.

    Entry k corresponds to predicting positive at score >= the (k+1)-th
    largest distinct value.
    """
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp_cum = np.cumsum(labels[order])
    # last index of each tie group
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.concatenate([boundary, [scores.size - 1]])
    return tp_cum[ends], ends + 1, int(labels.sum())


def average_precision(scores, labels) -> float:
    """Step-wise AP: sum over recall increments of the precision there."""
    scores, labels = _check_binary(scores, labels)
    tp, npred, n_pos = _threshold_counts(scores, labels)
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    terms = []
    tp_prev = 0
    for tp_k, k in zip(tp.tolist(), npred.tolist()):
        if tp_k > tp_prev:
            terms.append(((tp_k - tp_prev) / n_pos) * (tp_k / k))
        tp_prev = tp_k
    return fsum(terms)


def f1_max(scores, labels) -> float:
    """Maximum F1 over thresholds at the distinct score values."""
    scores, labels = _check_binary(scores, labels)
    tp, npred, n_pos = _threshold_counts(scores, labels)
    if n_pos == 0:
        raise UndefinedMetricError("f1_max needs at least one positive")
    best = 0.0
    for tp_k, k in zip(tp.tolist(), npred.tolist()):
        fp_k = k - tp_k
        fn_k = n_pos - tp_k
        denom = 2 * tp_k + fp_k + fn_k
        if denom > 0:
            best = max(best, 2 * tp_k / denom)
    return best


def _mask_regions(masks: np.ndarray) -> list[np.ndarray]:
    """Flat pixel indices of each 8-connected mask component, pooled over
    images, in canonical order (image index, then first pixel row-major)."""
    regions = []
    for idx in range(masks.shape[0]):
        labeled, n = ndimage.label(masks[idx], structure=EIGHT_CONNECTED)
        flat = labeled.reshape(-1)
        for rid in range(1, n + 1):
            coords = np.nonzero(flat == rid)[0]
            regions.append((idx, int(coords[0]), idx * flat.size + coords))
    regions.sort(key=lambda item: (item[0], item[1]))
    return [coords for _, _, coords in regions]


def pro_curve(score_maps, masks) -> tuple[np.ndarray, np.ndarray]:
    """(FPR, mean per-region recall) at each distinct threshold, descending."""
    score_maps = np.asarray(score_maps, dtype=np.float64)
    masks = np.asarray(masks)
    if score_maps.shape != masks.shape or score_maps.ndim != 3:
        raise ParameterError("score_maps and masks must both be (n, H, W)")
    if not np.all((masks == 0) | (masks == 1)):
        raise ParameterError("masks must be binary")

    regions = _mask_regions(masks)
    if not regions:
        raise UndefinedMetricError("aupro needs at least one anomalous region")
    flat_scores = score_maps.reshape(-1)
    neg_scores = np.sort(flat_scores[masks.reshape(-1) == 0])
    if neg_scores.size == 0:
        raise UndefinedMetricError("aupro needs at least one normal pixel")

    thresholds = np.unique(flat_scores)[::-1]

    def count_ge(sorted_asc: np.ndarray) -> np.ndarray:
        return sorted_asc.size - np.searchsorted(sorted_asc, thresholds, side="left")

    fpr = count_ge(neg_scores) / neg_scores.size
    pro_sum = np.zeros_like(thresholds)
    for coords in regions:
        region_scores = np.sort(flat_scores[coords])
        pro_sum = pro_sum + count_ge(region_scores) / region_scores.size
    return fpr, pro_sum / len(regions)


def _integrate_to_limit(fpr, pro, limit: float) -> float:
    """Trapezoid area of the (0,0)-anchored curve up to FPR = limit."""
    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], pro])
    terms = []
    for i in range(len(xs) - 1):
        f0, f1 = xs[i], xs[i + 1]
        p0, p1 = ys[i], ys[i + 1]
        if f1 <= limit:
            terms.append((f1 - f0) * (p0 + p1) / 2.0)
            if f1 == limit:
                break
        else:
            if f0 < limit:
                tt = (limit - f0) / (f1 - f0)
                pl = p0 + tt * (p1 - p0)
                terms.append((limit - f0) * (p0 + pl) / 2.0)
            break
    return fsum(terms)


def aupro(score_maps, masks, fpr_limit: float = DEFAULT_FPR_LIMIT) -> float:
    """Area under the per-region-overlap curve, normalized by fpr_limit."""
    if not (0.0 < fpr_limit <= 1.0):
        raise ParameterError(f"fpr_limit must lie in (0, 1], got {fpr_limit}")
    fpr, pro = pro_curve(score_maps, masks)
    return _integrate_to_limit(fpr, pro, fpr_limit) / fpr_limit


# -- report and throughput ---------------------------------------------------


@dataclass
class EvalReport:
    """Metric bundle for one scorer on one dataset.

    Pixel-level entries are None for datasets without masks; mAD averages
    whatever image- and pixel-level metrics are present.
    """

    image_auroc: float
    image_ap: float
    image_f1: float
    pixel_auroc: float | None = None
    pixel_ap: float | None = None
    pixel_f1: float | None = None
    pixel_aupro: float | None = None
    nfe: int = 0

    METRIC_FIELDS = (
        "image_auroc",
        "image_ap",
        "image_f1",
        "pixel_auroc",
        "pixel_ap",
        "pixel_f1",
        "pixel_aupro",
    )

    @property
    def mad(self) -> float:
        values = [getattr(self, f) for f in self.METRIC_FIELDS]
        present = [v for v in values if v is not None]
        return fsum(present) / len(present)

    def rows(self) -> list[tuple[str, str]]:
        out = []
        for name in self.METRIC_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out.append((name, repr(float(value))))
        out.append(("mad", repr(float(self.mad))))
        out.append(("nfe", str(self.nfe)))
        return out


def throughput(scorer, samples: np.ndarray, repeats: int = 5):
    """Median samples/sec of `scorer(samples, counter)` plus its NFE.

    One untimed warm-up pass precedes `repeats` timed passes. The timed
    region runs single-threaded from the harness's point of view; NFE is
    read from a fresh counter on each pass and must be stable.
    """
    if len(samples) == 0:
        raise ParameterError("throughput needs a non-empty dataset")
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")
    scorer(samples, EvalCounter())
    times = []
    nfe = None
    for _ in range(repeats):
        counter = EvalCounter()
        tic = time.perf_counter()
        scorer(samples, counter)
        times.append(time.perf_counter() - tic)
        if nfe is None:
            nfe = counter.count
        elif nfe != counter.count:
            raise ParameterError("scorer NFE varies across passes")
    return len(samples) / float(np.median(times)), int(nfe)
