import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from irfad.errors import ParameterError, ShapeError
from irfad.rng import make_rng
from irfad.scoring import (
    _axis_coords,
    bilinear_upsample,
    feature_scale_maps,
    image_score,
    image_scores,
    score_map,
)
from oracles import bilinear_four_gather, image_scores_two_pass


def test_channel_norm_pythagorean():
    delta = np.array([3.0, 4.0]).reshape(2, 1, 1)
    sm = score_map(delta, (1, 1))
    assert sm.feature_scale[0, 0] == 5.0
    assert sm.full_scale[0, 0] == 5.0


def test_constant_map_upsamples_to_constant():
    delta = np.full((1, 2, 2), 1.5)
    sm = score_map(delta, (5, 7))
    assert np.all(sm.full_scale == 1.5)
    assert sm.full_scale.shape == (5, 7)


def test_pinned_corner_aligned_3x3():
    # 2x2 -> 3x3: the center samples the source at (0.5, 0.5)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    up = bilinear_upsample(a, 3, 3)
    assert up[1, 1] == 0.5
    assert np.array_equal(up[::2, ::2], a)
    assert np.array_equal(up[0], [0.0, 0.5, 1.0])


def test_upsample_preserves_coincident_samples():
    rng = make_rng(0, "test-up")
    a = rng.standard_normal((4, 5))
    up = bilinear_upsample(a, 7, 9)  # H-1 = 2(h-1), W-1 = 2(w-1)
    assert np.array_equal(up[::2, ::2], a)


def test_upsample_within_input_extrema():
    rng = make_rng(1, "test-up2")
    for _ in range(20):
        a = rng.standard_normal((3, 4))
        up = bilinear_upsample(a, 11, 6)
        assert up.min() >= a.min() - 1e-15
        assert up.max() <= a.max() + 1e-15


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    dH=st.integers(0, 40),
    dW=st.integers(0, 40),
    scale=st.integers(-300, 300),
    flat=st.booleans(),
    constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_upsample_matches_four_gather_oracle(n, h, w, dH, dW, scale, flat, constant, seed):
    rng = make_rng(seed, "test-up-prop")
    a = rng.standard_normal((n, h, w)) * 10.0**scale
    if constant:
        a[:] = a[0, 0, 0]
    if flat:
        a = a[0]
    H, W = h + dH, w + dW
    up = bilinear_upsample(a, H, W)
    assert up.shape == a.shape[:-2] + (H, W)
    assert np.array_equal(up, bilinear_four_gather(a, H, W))
    # corners land on source corners: weights exactly 1 and 0
    corners = [0, -1]
    assert np.array_equal(up[..., corners, :][..., corners], a[..., corners, :][..., corners])
    # each pass is within 1.5 eps * max|a| of a convex blend (two rounded
    # products, one rounded sum, and 1 - wt off by half an ulp), so two
    # passes stay within 3 eps * max|a| of [min, max]; 4 eps adds headroom
    # for second-order terms and subnormal rounding.
    eps = np.finfo(np.float64).eps
    slack = 4 * eps * np.abs(a).max() + 4 * np.finfo(np.float64).smallest_subnormal
    assert up.min() >= a.min() - slack
    assert up.max() <= a.max() + slack


# Both zeros, subnormals, and magnitudes whose squares neither overflow nor
# all vanish.
_ENTRY = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_image_scores_equal_the_two_pass_oracle(data):
    n = data.draw(st.integers(1, 3), label="n")
    c = data.draw(st.integers(1, 5), label="c")
    # (d, 1, 1) is how a vector sample's field is scored
    h = data.draw(st.integers(1, 5), label="h")
    w = data.draw(st.integers(1, 5), label="w")
    H = h + data.draw(st.integers(0, 12), label="H - h")
    W = w + data.draw(st.integers(0, 12), label="W - w")
    entries = st.lists(_ENTRY, min_size=n * c * h * w, max_size=n * c * h * w)
    fields = np.array(data.draw(entries, label="entries")).reshape(n, c, h, w)
    fmaps, s_diff, s_nll = image_scores_two_pass(fields)
    got_diff, got_nll = image_scores(fields)
    assert got_diff.tobytes() == s_diff.tobytes()
    assert got_nll.tobytes() == s_nll.tobytes()
    assert feature_scale_maps(fields).tobytes() == fmaps.tobytes()
    # one sample takes the stack's code path: row i of each batched kernel,
    # bit for bit
    full = bilinear_upsample(fmaps, H, W)
    maps = fields[:, 0]  # any (n, h, w) stack, signs and subnormals included
    up = bilinear_upsample(maps, H, W)
    for i in range(n):
        one = image_score(fields[i])
        assert np.array([one.s_diff, one.s_nll, one.s]).tobytes() == np.array(
            [got_diff[i], got_nll[i], got_diff[i] + got_nll[i]]
        ).tobytes()
        sm = score_map(fields[i], (H, W))
        assert sm.feature_scale.tobytes() == fmaps[i].tobytes()
        assert sm.full_scale.tobytes() == full[i].tobytes()
        assert bilinear_upsample(maps[i], H, W).tobytes() == up[i].tobytes()


def test_cached_axis_coords_are_read_only():
    for arr in _axis_coords(4, 9):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert _axis_coords(4, 9) is _axis_coords(4, 9)


def test_upsample_rejects_shrinking():
    with pytest.raises(ParameterError):
        bilinear_upsample(np.zeros((4, 4)), 3, 4)
    with pytest.raises(ParameterError):
        score_map(np.zeros((1, 4, 4)), (4, 2))


def test_score_map_shapes_and_nonnegativity():
    rng = make_rng(2, "test-sm")
    delta = rng.standard_normal((4, 8, 8))
    sm = score_map(delta, (32, 32))
    assert sm.feature_scale.shape == (8, 8)
    assert sm.full_scale.shape == (32, 32)
    assert sm.dims == (4, 8, 8, 32, 32)
    assert np.all(sm.feature_scale >= 0)
    assert np.all(sm.full_scale >= 0)
    assert sm.full_scale.min() >= sm.feature_scale.min()
    assert sm.full_scale.max() <= sm.feature_scale.max()


def test_image_score_zero_field():
    sc = image_score(np.zeros((2, 3, 3)))
    assert sc.s == 0.0 and sc.s_diff == 0.0 and sc.s_nll == 0.0


def test_image_score_single_element():
    sc = image_score(np.array([[[1.4]]]))
    assert sc.s_diff == 0.0
    assert sc.s_nll == 1.4**2 / 2.0
    assert sc.s == sc.s_nll


def test_image_score_constant_nonzero_field():
    sc = image_score(np.full((1, 2, 2), 2.0))
    assert sc.s_diff == 0.0
    assert sc.s_nll > 0.0
    assert sc.s == sc.s_nll


def test_score_decomposition_identity():
    rng = make_rng(3, "test-imgsc")
    for _ in range(25):
        delta = rng.standard_normal((3, 4, 5))
        sc = image_score(delta)
        assert sc.s == sc.s_diff + sc.s_nll
        assert sc.s_diff >= 0 and sc.s_nll >= 0


def test_score_monotone_under_upscaling():
    rng = make_rng(4, "test-mono")
    delta = rng.standard_normal((2, 3, 3))
    prev = image_score(delta).s
    for lam in (1.0, 1.5, 2.0, 5.0):
        cur = image_score(lam * delta).s
        assert cur >= prev
        prev = cur


def test_nll_matches_gaussian_logpdf_oracle():
    rng = make_rng(5, "test-nll")
    for _ in range(20):
        delta = rng.standard_normal((2, 4, 3))
        sc = image_score(delta)
        logpdf = norm.logpdf(delta).sum()
        constant = delta.size / 2.0 * np.log(2.0 * np.pi)
        assert abs(sc.s_nll - (-logpdf - constant)) <= 1e-9


def test_invalid_fields_rejected():
    with pytest.raises(ShapeError):
        image_score(np.zeros((2, 2)))
    from irfad.errors import NumericError

    with pytest.raises(NumericError):
        image_score(np.array([[[np.nan]]]))


# -- pixel-level ranking on the reference feature-map run ----------------------


def test_planted_anomaly_pixels_outrank_normal(blob_run):
    from irfad.pipeline import pixel_maps

    maps = pixel_maps(blob_run.table, (32, 32))
    abnormal = np.nonzero(blob_run.test.labels == 1)[0]
    hits = 0
    for i in abnormal:
        mask = blob_run.test.masks[i].astype(bool)
        hits += maps[i][mask].mean() > maps[i][~mask].mean()
    assert hits / abnormal.size >= 0.95
