"""Evaluation metrics with exactly pinned tie conventions.

All ranking metrics read one curve, built by one value sort (no argsort):
each distinct score, descending, with the cumulative true and false
positives at it, so equal scores form one threshold step. The tie groups
come from the sorted values; each positive's group is found by searching
them for its score and counted, so the curve depends on the multiset of
(score, label) pairs alone. The entry check hands the labels on as a bool
mask. The curve also carries the indices of the tie groups that hold a
positive: AUROC, AP and F1-max read only those entries, and AU-PRO uses
them as its change points. Counts are exact integers and every
curve-level accumulation goes through math.fsum (exact summation), so the
results are reproducible to the bit and can be checked against
brute-force oracles with equality rather than tolerances.
Non-finite scores are refused with NumericError.

Inside a `shared_ranking()` block, metrics called on equal checked inputs
(one evaluation's AUROC, AP, F1-max and AU-PRO) read one sort: `_sweep`
keeps its last curve until the block ends.

Conventions:
* auroc: the Mann-Whitney U over n_pos * n_neg (the trapezoidal ROC
  area), a positive tied with a negative counting one half.
* average_precision: step-wise sum of precision at each recall increment.
* f1_max: max over thresholds induced by distinct score values of
  2*TP / (2*TP + FP + FN), predicting positive at score >= threshold.
* aupro: mean per-region recall (8-connected components of the masks,
  pooled over the set) as a function of pooled pixel FPR, integrated by
  trapezoid up to fpr_limit and normalized by fpr_limit. The curve starts
  at (0, 0) and region order is canonical (image index, then first pixel
  in row-major order). The regions come from one NumPy labeling of the
  whole stack (minimum-label propagation with pointer jumping, see
  `_mask_regions`). The recall sum is formed only at the tie groups that
  hold a region pixel (between them it cannot change): each region pixel
  gets the index of its own such group, and a region of m pixels reads
  i / m from its i-th index to the next. `aupro` forms the sum only up to
  the segment that reaches fpr_limit; `pro_curve` returns the whole curve.
* throughput: median samples/sec over `repeats` timed passes after one
  warm-up pass; NFE comes from the evaluation counter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import NumericError, ParameterError, UndefinedMetricError
from .net import EvalCounter

DEFAULT_FPR_LIMIT = 0.3


def _check_binary(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """The one entry check of every metric: flat finite scores, binary labels.

    Returns the scores as float64 and the labels as a bool mask of the
    positives.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ParameterError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise NumericError("scores must be finite")
    positive = labels == 1
    if not np.all(positive | (labels == 0)):
        raise ParameterError("labels must be binary (0 = normal, 1 = abnormal)")
    return scores, positive


def _ranking(scores, positive) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ranking curve: distinct scores, descending, with cumulative TP, FP,
    and the indices of the tie groups that hold a positive.

    Entry k counts the samples scored >= thresholds[k], i.e. what is
    predicted positive at that threshold. One value sort gives the tie
    groups and where each starts; each positive's group is found by
    searching the distinct values for its score, so the result depends on
    the multiset of (score, label) pairs alone. `+ 0.0` turns a -0.0
    threshold into 0.0, which it ties with.
    """
    values = np.sort(scores)
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    starts = np.flatnonzero(new)  # ascending tie groups
    distinct = values[starts]
    # each positive's group, counted from the highest score down (sorted
    # keys keep the search cache-friendly)
    group = distinct.size - 1 - np.searchsorted(distinct, np.sort(scores[positive]))
    tp = np.bincount(group, minlength=distinct.size)  # positives per group
    held = np.flatnonzero(tp)
    np.cumsum(tp, out=tp)
    above = np.subtract(values.size, starts, out=starts)  # samples scored >= the group
    fp = above[::-1] - tp
    return distinct[::-1] + 0.0, tp, fp, held


# The innermost open `shared_ranking` block's last sweep: [] or
# [scores copy, positive-mask copy, curve]; None outside every block.
_shared: ContextVar[list | None] = ContextVar("irfad_shared_ranking", default=None)


@contextmanager
def shared_ranking():
    """Within the block, metrics on equal scores and labels share one sweep.

    `_sweep` keeps its last inputs (copied, so a caller that changes its
    array in place gets a fresh curve) and its read-only curve until the
    block ends, normally or by an exception. Outside every block nothing is
    kept.
    """
    token = _shared.set([])
    try:
        yield
    finally:
        _shared.reset(token)


def _sweep(scores, positive) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ranking curve every ranking metric reads (see `_ranking`).

    Inside a `shared_ranking` block it is the block's last curve when the
    inputs equal that curve's inputs; `np.array_equal` takes -0.0 for 0.0,
    which `_ranking` ties anyway, so equal inputs have equal curves.
    """
    entry = _shared.get()
    if entry is None:
        return _ranking(scores, positive)
    if entry and np.array_equal(entry[0], scores) and np.array_equal(entry[1], positive):
        return entry[2]
    curve = _ranking(scores, positive)
    for part in curve:
        part.flags.writeable = False
    entry[:] = [scores.copy(), positive.copy(), curve]
    return curve


def auroc(scores, labels) -> float:
    """Area under the ROC curve: the Mann-Whitney U over n_pos * n_neg,
    a positive tied with a negative counting one half."""
    scores, positive = _check_binary(scores, labels)
    n_pos = int(np.count_nonzero(positive))
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auroc needs at least one sample of each class")
    _, tp, fp, groups = _sweep(scores, positive)
    # each positive of a tie group beats the negatives below the group and
    # ties with the group's own; a group without positives adds nothing, and
    # 2U sums exactly in int64
    fp_before = np.where(groups > 0, fp[groups - 1], 0)
    tp, fp = tp[groups], fp[groups]
    u2 = int(np.sum(np.diff(tp, prepend=0) * (2 * (n_neg - fp) + (fp - fp_before))))
    return u2 / (2.0 * n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """Step-wise AP: sum over recall increments of the precision there."""
    scores, positive = _check_binary(scores, labels)
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    _, tp, fp, groups = _sweep(scores, positive)
    tp, fp = tp[groups], fp[groups]  # recall rises exactly at these groups
    gain = np.diff(tp, prepend=0)
    return fsum(((gain / n_pos) * (tp / (tp + fp))).tolist())


def f1_max(scores, labels) -> float:
    """Maximum F1 over thresholds at the distinct score values."""
    scores, positive = _check_binary(scores, labels)
    n_pos = int(np.count_nonzero(positive))
    if n_pos == 0:
        raise UndefinedMetricError("f1_max needs at least one positive")
    _, tp, fp, groups = _sweep(scores, positive)
    # 2TP / (2TP + FP + FN), and TP + FP + FN = predicted + n_pos; at a fixed
    # TP it falls as FP grows, so the maximum sits where TP has just risen
    tp, fp = tp[groups], fp[groups]
    return float(np.max(2 * tp / (tp + fp + n_pos)))


def _mask_regions(masks: np.ndarray) -> list[np.ndarray]:
    """Flat pixel indices of each 8-connected mask component, pooled over
    images, in canonical order (image index, then first pixel row-major).

    Each image gets a one-pixel empty border, so the 8 neighbour offsets of
    the flat padded stack never wrap across rows or images. Every mask
    pixel starts labelled with its own index; each round takes the minimum
    over its neighbours' labels, then jumps to that label's label, until
    nothing changes. A component then carries the index of its first pixel
    in raster order, so sorting by label gives the canonical order and,
    stably, row-major order within a region.
    """
    n, H, W = masks.shape
    padded = np.zeros((n, H + 2, W + 2), dtype=bool)
    padded[:, 1:-1, 1:-1] = masks
    flat = padded.reshape(-1)
    idx = np.flatnonzero(flat)
    if idx.size == 0:
        return []
    row = W + 2
    neighbours = [
        idx + dy * row + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx
    ]
    label = np.full(flat.size, flat.size)  # background: above every index
    label[idx] = idx
    own = idx
    while True:
        low = own
        for nb in neighbours:
            low = np.minimum(low, label[nb])
        low = label[low]  # pointer jumping
        if np.array_equal(low, own):
            break
        label[idx] = own = low
    order = np.argsort(own, kind="stable")
    roots = own[order]
    starts = np.flatnonzero(roots[1:] != roots[:-1]) + 1
    return np.split(np.flatnonzero(masks)[order], starts)


def _pro_inputs(score_maps, masks):
    """The checks of pro_curve and aupro: flat scores, regions, pixel curve.

    Returns the flat scores, the mask regions, the thresholds, the FPR at
    each and the tie groups that hold a region pixel (see `_ranking`).
    """
    score_maps = np.asarray(score_maps, dtype=np.float64)
    masks = np.asarray(masks)
    if score_maps.shape != masks.shape or score_maps.ndim != 3:
        raise ParameterError("score_maps and masks must both be (n, H, W)")
    flat_scores, positive = _check_binary(score_maps, masks)

    regions = _mask_regions(masks)
    if not regions:
        raise UndefinedMetricError("aupro needs at least one anomalous region")
    thresholds, _, fp, groups = _sweep(flat_scores, positive)
    if fp[-1] == 0:
        raise UndefinedMetricError("aupro needs at least one normal pixel")
    return flat_scores, regions, thresholds, fp / fp[-1], groups


def _pro_prefix(flat_scores, regions, thresholds, groups, size: int) -> np.ndarray:
    """Mean per-region recall at thresholds[:size].

    A region's recall changes only at a threshold equal to one of its own
    pixels' scores, that is at a tie group that holds a positive, so the
    sum over regions is needed only at those change points below `size` and
    is carried forward in between (0 before the first one).
    """
    change = groups[: np.searchsorted(groups, size)]
    ascending = thresholds[change[::-1]]
    sums = np.zeros(change.size)
    for coords in regions:
        # a pixel's step counts the change thresholds above its score (one
        # scored below all of them gets change.size, past the prefix); a
        # region of m pixels has i hits from its i-th step to the next, so
        # its recall there is i / m, the same division as counting its
        # hits, and the recalls add up region by region in canonical order,
        # which fixes the bits
        steps = np.sort(change.size - np.searchsorted(ascending, flat_scores[coords], "right"))
        reached = int(np.searchsorted(steps, change.size))
        bounds = np.concatenate(([0], steps[:reached], [change.size]))
        sums += np.repeat(np.arange(reached + 1) / steps.size, bounds[1:] - bounds[:-1])
    pro_sum = np.repeat(np.concatenate([[0.0], sums]), np.diff(change, prepend=0, append=size))
    return pro_sum / len(regions)


def pro_curve(score_maps, masks) -> tuple[np.ndarray, np.ndarray]:
    """(FPR, mean per-region recall) at each distinct threshold, descending."""
    flat_scores, regions, thresholds, fpr, groups = _pro_inputs(score_maps, masks)
    return fpr, _pro_prefix(flat_scores, regions, thresholds, groups, fpr.size)


def _integrate_to_limit(fpr, pro, limit: float) -> float:
    """Trapezoid area of the (0,0)-anchored curve up to FPR = limit.

    `fpr` is nondecreasing and ends at or above limit (the full curve ends
    at 1), so the limit falls on or inside one segment, which is cut there.
    """
    k = int(np.searchsorted(fpr, limit))  # segment k, xs[k]..xs[k+1], reaches the limit
    xs = np.concatenate([[0.0], fpr[: k + 1]])
    ys = np.concatenate([[0.0], pro[: k + 1]])
    terms = ((xs[1 : k + 1] - xs[:k]) * (ys[:k] + ys[1 : k + 1]) / 2.0).tolist()
    f0, f1, p0, p1 = xs[k], xs[k + 1], ys[k], ys[k + 1]
    if f1 > limit:
        p1 = p0 + (limit - f0) / (f1 - f0) * (p1 - p0)
        f1 = limit
    terms.append((f1 - f0) * (p0 + p1) / 2.0)
    return fsum(terms)


def aupro(score_maps, masks, fpr_limit: float = DEFAULT_FPR_LIMIT) -> float:
    """Area under the per-region-overlap curve, normalized by fpr_limit.

    The PRO sum is formed only up to the segment that reaches fpr_limit.
    """
    if not (0.0 < fpr_limit <= 1.0):
        raise ParameterError(f"fpr_limit must lie in (0, 1], got {fpr_limit}")
    flat_scores, regions, thresholds, fpr, groups = _pro_inputs(score_maps, masks)
    size = int(np.searchsorted(fpr, fpr_limit)) + 1  # the curve points integrated
    pro = _pro_prefix(flat_scores, regions, thresholds, groups, size)
    return _integrate_to_limit(fpr[:size], pro, fpr_limit) / fpr_limit


# -- report and throughput ---------------------------------------------------


@dataclass
class EvalReport:
    """Metric bundle for one scorer on one dataset.

    Pixel-level entries are None for datasets without masks; mAD averages
    whatever image- and pixel-level metrics are present. nfe is None when
    no network was evaluated (scores read from a CSV).
    """

    image_auroc: float
    image_ap: float
    image_f1: float
    pixel_auroc: float | None = None
    pixel_ap: float | None = None
    pixel_f1: float | None = None
    pixel_aupro: float | None = None
    nfe: int | None = None

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
        if self.nfe is not None:
            out.append(("nfe", str(self.nfe)))
        return out


def throughput(scorer, samples: np.ndarray, repeats: int = 5):
    """Median samples/sec of `scorer(samples, counter)`, its NFE, and what
    the untimed warm-up pass returned (a Scorer's ScoreTable).

    The warm-up pass precedes `repeats` timed passes, one after the other.
    A Scorer may run a pass's batches on several threads (see `pipeline`),
    so the rate depends on the core count and the BLAS thread count. NFE is
    read from a fresh counter on each pass and must be stable.
    """
    if len(samples) == 0:
        raise ParameterError("throughput needs a non-empty dataset")
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")
    table = scorer(samples, EvalCounter())
    times, nfes = [], []
    for _ in range(repeats):
        counter = EvalCounter()
        tic = time.perf_counter()
        scorer(samples, counter)
        times.append(time.perf_counter() - tic)
        nfes.append(counter.count)
    if len(set(nfes)) != 1:
        raise ParameterError("scorer NFE varies across passes")
    return len(samples) / float(np.median(times)), int(nfes[0]), table
