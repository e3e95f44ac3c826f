"""Score maps and image-level anomaly scores from a residual field.

Pixel level: the feature-scale map takes the channel-wise L2 norm of the
residual field at each location, then bilinear upsampling brings it to
the evaluation resolution. Image level: the score is the sum of two
parts, the range (max - min) of the feature-scale map and the Gaussian
negative log-likelihood of the residual field dropped to its quadratic
term, 0.5 * sum(delta^2). The parts are summed raw, with no calibration.

Bilinear upsampling is corner-aligned: source corners map onto target
corners, so target pixel (I, J) reads the source at
(I*(h-1)/(H-1), J*(w-1)/(W-1)) and degenerate axes (h == 1) are constant.
Interpolated values stay inside the input extrema up to rounding (about
3 * eps * max|a|; see README).

Every kernel works on the trailing axes: a field is the last three
(c, h, w) axes and a map the last two (h, w), so one sample and an
(n, ...) stack take the same code path and each row of a stack gets the
bits its sample gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


@lru_cache(maxsize=64)
def _axis_coords(size_in: int, size_out: int):
    """Read-only (concat(lo, hi), concat(1 - wt, wt)) that map `size_out`
    samples onto `size_in`: both neighbours' indices and weights, low first."""
    if size_out == 1:
        src = np.zeros(1)
    else:
        src = np.arange(size_out) * (size_in - 1) / (size_out - 1)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, size_in - 1)
    wt = src - lo
    coords = (np.concatenate([lo, hi]), np.concatenate([1.0 - wt, wt]))
    for arr in coords:
        arr.flags.writeable = False
    return coords


def bilinear_upsample(a: np.ndarray, H: int, W: int) -> np.ndarray:
    """Corner-aligned bilinear upsample of an (h, w) map or an (n, h, w) stack.

    Two blends: along the width into (..., h, W) rows, then along the
    height. Each blend gathers both neighbours of every output in one
    `take`, scales them by (1-wt, wt) in place and adds the two halves.
    Each output is (1-wy)*top + wy*bot with top and bot the width blends of
    its two source rows, the same products summed in the same order as a
    four-corner gather, so the bits do not depend on the split.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ShapeError(f"expected (h, w) or (n, h, w) map, got shape {a.shape}")
    h, w = a.shape[-2:]
    if H < h or W < w or H < 1 or W < 1:
        raise ParameterError(f"target ({H}, {W}) must be >= source ({h}, {w})")

    index, weight = _axis_coords(w, W)
    rows = a.take(index, axis=-1)
    rows *= weight
    rows = rows[..., :W] + rows[..., W:]
    index, weight = _axis_coords(h, H)
    out = rows.take(index, axis=-2)
    out *= weight[:, None]
    return out[..., :H, :] + out[..., H:, :]


@dataclass(frozen=True)
class ScoreMap:
    """Feature-scale map (channel-wise norms) and its upsampled version."""

    feature_scale: np.ndarray  # (h, w)
    full_scale: np.ndarray  # (H, W)
    dims: tuple[int, int, int, int, int]  # (c, h, w, H, W)


@dataclass(frozen=True)
class ImageScore:
    s: float
    s_diff: float
    s_nll: float


def _check_field(delta: np.ndarray) -> np.ndarray:
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 3:
        raise ShapeError(f"residual field must be (c, h, w), got shape {delta.shape}")
    if not np.isfinite(delta).all():
        raise NumericError("non-finite residual field")
    return delta


def _channel_norm(squares: np.ndarray) -> np.ndarray:
    """sqrt of the channel sum of (..., c, h, w) squared entries -> (..., h, w)."""
    return np.sqrt(squares.sum(axis=-3))


def feature_scale_maps(fields: np.ndarray) -> np.ndarray:
    """Channel-wise L2 norm at each location: (..., c, h, w) -> (..., h, w)."""
    return _channel_norm(fields * fields)


def score_map(delta: np.ndarray, target: tuple[int, int]) -> ScoreMap:
    """Pixel-level score map at feature scale, upsampled to `target`."""
    delta = _check_field(delta)
    c, h, w = delta.shape
    H, W = target
    fmap = feature_scale_maps(delta)
    return ScoreMap(
        feature_scale=fmap,
        full_scale=bilinear_upsample(fmap, H, W),
        dims=(c, h, w, int(H), int(W)),
    )


def image_score(delta: np.ndarray) -> ImageScore:
    """Image-level score s = s_diff + s_nll.

    s_diff is the range of the feature-scale map; s_nll is the quadratic
    term of the standard-Gaussian negative log-likelihood of the field,
    0.5 * sum(delta^2) (the constant (c*h*w/2)*log(2*pi) is dropped so the
    score is non-negative and zero for a zero field).
    """
    s_diff, s_nll = map(float, image_scores(_check_field(delta)))
    return ImageScore(s=s_diff + s_nll, s_diff=s_diff, s_nll=s_nll)


def image_scores(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-field (s_diff, s_nll) of a (c, h, w) field or an (n, c, h, w)
    stack, of shape () or (n,); see image_score.

    Each field's parts depend on that field alone, bit for bit, so a
    batched table and per-sample scores agree exactly. The fields are
    squared once; the norm map and s_nll both sum those squares.
    """
    squares = fields * fields
    fmaps = _channel_norm(squares)
    s_diff = fmaps.max(axis=(-2, -1)) - fmaps.min(axis=(-2, -1))
    s_nll = 0.5 * squares.reshape(squares.shape[:-3] + (-1,)).sum(axis=-1)
    return s_diff, s_nll
