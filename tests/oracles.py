"""Independent oracles used by the tests.

Everything here recomputes expected values by brute force (pair counting,
exhaustive threshold sweeps, central finite differences, flood fill,
row-at-a-time `csv.writer` tables), by closed-form Gaussian conditioning,
or by a former, frozen version of the library's code (the argsort ranking
sweep, the per-sample blob generator, whole-array AdamW), and deliberately
avoids the library's current code paths.
"""

import csv
import io
from math import fsum, sqrt

import numpy as np


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. x, mutated in place."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4) -> bool:
    """Per-coordinate relative comparison with an absolute floor."""
    tol = np.maximum(1e-8, rtol * np.maximum(np.abs(analytic), np.abs(numeric)))
    return bool(np.all(np.abs(analytic - numeric) <= tol))


# -- ranking metrics ---------------------------------------------------------


def auroc_pairs(scores, labels) -> float:
    """O(n^2) Mann-Whitney pair counting."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    terms = []
    for p in pos:
        for q in neg:
            if p > q:
                terms.append(1.0)
            elif p == q:
                terms.append(0.5)
    return fsum(terms) / (float(pos.size) * float(neg.size))


def ap_exhaustive(scores, labels) -> float:
    """Step-wise AP by rescanning the data at every distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    terms = []
    tp_prev = 0
    for th in thresholds:
        pred = scores >= th
        tp = int((pred & (labels == 1)).sum())
        k = int(pred.sum())
        if tp > tp_prev:
            terms.append(((tp - tp_prev) / n_pos) * (tp / k))
        tp_prev = tp
    return fsum(terms)


def f1_exhaustive(scores, labels) -> float:
    """Max F1 by rescanning the data at every distinct threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    best = 0.0
    for th in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= th
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        fn = n_pos - tp
        denom = 2 * tp + fp + fn
        if denom > 0:
            best = max(best, 2 * tp / denom)
    return best


def ranking_by_argsort(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The library's former ranking sweep, kept verbatim: one argsort of the
    negated scores, int64 labels permuted and summed, read at tie-group ends.

    The ranking curve: distinct scores, descending, with cumulative TP, FP.

    Entry k counts the samples scored >= thresholds[k], i.e. what is
    predicted positive at that threshold. Only tie-group ends are read (the
    group's value, the running positive count and the position there), so
    the order inside a group cannot change the result and the sort need not
    be stable; `+ 0.0` turns a -0.0 that ends a group tied with 0.0 into
    0.0, so the arrays depend on the multiset of (score, label) pairs alone.
    """
    order = np.argsort(-scores)
    ranked = scores[order]
    last = np.append(ranked[1:] != ranked[:-1], True)  # end of each tie group
    tp = np.cumsum(labels[order])[last]
    fp = np.flatnonzero(last) + 1 - tp
    return ranked[last] + 0.0, tp, fp


# -- per-region overlap -------------------------------------------------------


def _flood_regions(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """8-connected components by BFS, discovered in row-major scan order."""
    H, W = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    regions = []
    for r in range(H):
        for c in range(W):
            if mask[r, c] and not seen[r, c]:
                queue = [(r, c)]
                seen[r, c] = True
                coords = []
                while queue:
                    y, x = queue.pop()
                    coords.append((y, x))
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = y + dy, x + dx
                            if (
                                0 <= ny < H
                                and 0 <= nx < W
                                and mask[ny, nx]
                                and not seen[ny, nx]
                            ):
                                seen[ny, nx] = True
                                queue.append((ny, nx))
                regions.append(coords)
    return regions


def pro_curve_per_threshold(score_maps, masks) -> tuple[np.ndarray, np.ndarray]:
    """(FPR, mean per-region recall) at each distinct threshold, descending,
    with every region's recall evaluated at every threshold.

    Regions come from the flood fill, pooled in (image, first-pixel) order,
    and their recalls add up in that order starting from 0.0, so the float
    bits are those of the documented curve.
    """
    score_maps = np.asarray(score_maps, dtype=np.float64)
    masks = np.asarray(masks)
    thresholds = np.unique(score_maps)[::-1]
    neg = np.sort(score_maps[masks == 0])
    fp = neg.size - np.searchsorted(neg, thresholds, side="left")
    pro_sum = np.zeros_like(thresholds)
    n_regions = 0
    for i in range(masks.shape[0]):
        for coords in _flood_regions(masks[i]):
            region_scores = np.sort([score_maps[i, r, c] for r, c in coords])
            hits = region_scores.size - np.searchsorted(region_scores, thresholds, side="left")
            pro_sum = pro_sum + hits / region_scores.size
            n_regions += 1
    return fp / fp[-1], pro_sum / n_regions


def aupro_exhaustive(score_maps, masks, fpr_limit: float) -> float:
    """Exhaustive threshold enumeration of the per-region-overlap curve.

    Conventions match the documented metric definition: predictions are
    score >= threshold over the pooled distinct values, regions pool over
    images in (image, first-pixel) order, the curve is anchored at (0, 0),
    and the trapezoid area up to fpr_limit is normalized by fpr_limit.
    """
    score_maps = np.asarray(score_maps, dtype=np.float64)
    masks = np.asarray(masks)
    regions = []  # (image, coords) in canonical order
    for i in range(masks.shape[0]):
        for coords in _flood_regions(masks[i]):
            regions.append((i, coords))
    neg = [
        (i, r, c)
        for i in range(masks.shape[0])
        for r in range(masks.shape[1])
        for c in range(masks.shape[2])
        if masks[i, r, c] == 0
    ]
    thresholds = sorted(set(score_maps.reshape(-1).tolist()), reverse=True)
    curve_f, curve_p = [], []
    for th in thresholds:
        fp = sum(1 for i, r, c in neg if score_maps[i, r, c] >= th)
        acc = 0.0
        for i, coords in regions:
            hits = sum(1 for r, c in coords if score_maps[i, r, c] >= th)
            acc = acc + hits / len(coords)
        curve_f.append(fp / len(neg))
        curve_p.append(acc / len(regions))

    xs = [0.0] + curve_f
    ys = [0.0] + curve_p
    terms = []
    for i in range(len(xs) - 1):
        f0, f1, p0, p1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
        if f1 <= fpr_limit:
            terms.append((f1 - f0) * (p0 + p1) / 2.0)
            if f1 == fpr_limit:
                break
        else:
            if f0 < fpr_limit:
                tt = (fpr_limit - f0) / (f1 - f0)
                pl = p0 + tt * (p1 - p0)
                terms.append((fpr_limit - f0) * (p0 + pl) / 2.0)
            break
    return fsum(terms) / fpr_limit


# -- bilinear upsampling ------------------------------------------------------


def bilinear_four_gather(a, H: int, W: int) -> np.ndarray:
    """Corner-aligned bilinear upsample by four 2-D corner gathers.

    Target (I, J) reads the source at (I*(h-1)/(H-1), J*(w-1)/(W-1)); it
    blends the two upper corners along the width, then the two lower ones,
    then the two blends along the height.
    """
    a = np.asarray(a, dtype=np.float64)
    squeeze = a.ndim == 2
    if squeeze:
        a = a[None]
    h, w = a.shape[1], a.shape[2]

    def axis_coords(size_in, size_out):
        if size_out == 1:
            src = np.zeros(1)
        else:
            src = np.arange(size_out) * (size_in - 1) / (size_out - 1)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, size_in - 1)
        return lo, hi, src - lo

    y0, y1, wy = axis_coords(h, H)
    x0, x1, wx = axis_coords(w, W)
    wy = wy[:, None]
    wx = wx[None, :]
    top = (1.0 - wx) * a[:, y0[:, None], x0[None, :]] + wx * a[:, y0[:, None], x1[None, :]]
    bot = (1.0 - wx) * a[:, y1[:, None], x0[None, :]] + wx * a[:, y1[:, None], x1[None, :]]
    out = (1.0 - wy) * top + wy * bot
    return out[0] if squeeze else out


# -- image scores ---------------------------------------------------------------


def image_scores_two_pass(fields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature-scale maps, s_diff, s_nll) of an (n, c, h, w) stack, as the
    library once computed them: each part squares the fields on its own and
    sums with `np.sum`."""
    fmaps = np.sqrt(np.sum(fields * fields, axis=1))
    s_diff = fmaps.max(axis=(1, 2)) - fmaps.min(axis=(1, 2))
    s_nll = 0.5 * np.sum((fields * fields).reshape(len(fields), -1), axis=1)
    return fmaps, s_diff, s_nll


# -- run tables ---------------------------------------------------------------
#
# The CLI's former row-at-a-time writers: every float through `_fmt`, every
# row through `csv.writer` (trajectories.tsv was joined with tabs by hand).


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_bytes(header: list[str], rows: list[list], sep: str = ",") -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=sep, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def scores_csv_rows(table) -> bytes:
    rows = []
    for i in range(table.s.size):
        if table.s_diff is not None:
            rows.append([i, _fmt(table.s[i]), _fmt(table.s_diff[i]), _fmt(table.s_nll[i])])
        else:
            rows.append([i, _fmt(table.s[i]), "", ""])
    return _csv_bytes(["id", "s", "s_diff", "s_nll"], rows)


def trajectories_tsv_rows(samples, labels, tables) -> bytes:
    x0s = samples.reshape(-1)
    lines = ["x0\tabs_delta\tlabel\tinput_kind"]
    for table, kind in tables:
        amps = np.abs(table.deltas.reshape(-1))
        for i in range(x0s.size):
            lines.append(f"{_fmt(x0s[i])}\t{_fmt(amps[i])}\t{int(labels[i])}\t{kind}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def trainlog_csv_rows(losses, seconds) -> bytes:
    rows = [
        [epoch + 1, _fmt(loss), _fmt(secs)]
        for epoch, (loss, secs) in enumerate(zip(losses, seconds))
    ]
    return _csv_bytes(["epoch", "mean_loss", "seconds"], rows)


# -- optimizer ----------------------------------------------------------------
#
# The library's former whole-array AdamW body, kept verbatim: each line
# sweeps whole tensors and allocates its temporaries.


def adamw_whole_array(params, grads, m, v, step, lr, weight_decay, beta1, beta2, eps):
    """One AdamW update at 1-based `step`, in place on float64 params and
    float32 m and v: the gradient rounded to float32, the moments and the
    update in float32, then the decay and the update applied in float64."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for p, g, mi, vi in zip(params, grads, m, v):
        g = np.asarray(g).astype(np.float32)
        mi *= beta1
        mi += g * (1.0 - beta1)
        vi *= beta2
        vi += (g * g) * (1.0 - beta2)
        update = (mi * np.float32(lr / bc1)) / (np.sqrt(vi) * (1.0 / sqrt(bc2)) + eps)
        p *= 1.0 - lr * weight_decay
        p -= update


# -- Gaussian data -------------------------------------------------------------
#
# For x0 ~ N(mu, cov) and x_t = sqrt(abar) x0 + sqrt(1 - abar) eps, x_t and
# eps are jointly Gaussian, so E[eps | x_t] is Gaussian conditioning: the
# Bayes-optimal noise predictor, linear in x_t.


def gaussian_eps_star(mu, cov, schedule, t: int, x_t) -> np.ndarray:
    """E[eps | x_t] = sqrt(1-abar) (abar cov + (1-abar) I)^-1 (x_t - sqrt(abar) mu),
    for one (d,) state or (n, d) rows."""
    mu = np.asarray(mu, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    abar = schedule.alpha_bar(t)
    marginal = abar * cov + (1.0 - abar) * np.eye(mu.size)
    centred = (x_t - np.sqrt(abar) * mu).reshape(-1, mu.size)
    eps = np.sqrt(1.0 - abar) * np.linalg.solve(marginal, centred.T).T
    return eps.reshape(x_t.shape)


def blob_channel_basis(h: int, w: int) -> np.ndarray:
    """A (h*w, 9), from the blob generator's constants: one channel of a blob
    field, flattened, is A @ z with z ~ N(0, I_9) its 3x3 coefficient draw,
    so the channel is N(0, A A^T). Column 3p + q is the cosine mode (p, q)
    times its damping 1 / (1 + p + q)."""
    py = np.cos(np.pi * np.outer(np.arange(3), np.linspace(0, 1, h)))  # (3, h)
    px = np.cos(np.pi * np.outer(np.arange(3), np.linspace(0, 1, w)))  # (3, w)
    damp = 1.0 / (1.0 + np.add.outer(np.arange(3), np.arange(3)))
    return np.einsum("pq,ph,qw->hwpq", damp, py, px).reshape(h * w, 9)


def blob_covariance(dims) -> np.ndarray:
    """Covariance of a flattened normal (c, h, w) blob field: the channels are
    independent, each N(0, A A^T) with A = blob_channel_basis(h, w)."""
    c, h, w = dims
    basis = blob_channel_basis(h, w)
    return np.kron(np.eye(c), basis @ basis.T)


# -- blob generator -----------------------------------------------------------
#
# The library's former `gen_blobs` body, kept verbatim: one `_smooth_field`
# (its own cosine bases and one (c, 3, 3) draw) per sample, then the
# planted blobs.


def _smooth_field(rng: np.random.Generator, c: int, h: int, w: int) -> np.ndarray:
    """One smooth correlated (c, h, w) map from low-frequency cosine modes."""
    py = np.cos(np.pi * np.outer(np.arange(3), np.linspace(0, 1, h)))  # (3, h)
    px = np.cos(np.pi * np.outer(np.arange(3), np.linspace(0, 1, w)))  # (3, w)
    coef = rng.standard_normal((c, 3, 3))
    damp = 1.0 / (1.0 + np.add.outer(np.arange(3), np.arange(3)))
    return np.einsum("kpq,ph,qw->khw", coef * damp, py, px)


def blobs_per_sample(rng, n_train, n_test, dims, anomaly, upsample_to=(32, 32)):
    """(train samples, test samples, test labels, test masks) drawn from `rng`,
    which is left where the generator stops."""
    c, h, w = dims
    H, W = upsample_to
    sy, sx = H // h, W // w
    n_abn = n_test // 2
    n_norm_test = n_test - n_abn

    train_x = np.stack([_smooth_field(rng, c, h, w) for _ in range(n_train)])
    test_x = np.stack([_smooth_field(rng, c, h, w) for _ in range(n_test)])
    masks = np.zeros((n_test, H, W), dtype=np.uint8)
    labels = np.zeros(n_test, dtype=np.uint8)
    for i in range(n_norm_test, n_test):
        r0 = int(rng.integers(0, h - anomaly.rows + 1))
        c0 = int(rng.integers(0, w - anomaly.cols + 1))
        test_x[i, :, r0 : r0 + anomaly.rows, c0 : c0 + anomaly.cols] += anomaly.amplitude
        masks[i, r0 * sy : (r0 + anomaly.rows) * sy, c0 * sx : (c0 + anomaly.cols) * sx] = 1
        labels[i] = 1
    return train_x, test_x, labels, masks
