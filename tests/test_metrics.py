import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad import metrics
from irfad.errors import NumericError, ParameterError, UndefinedMetricError
from irfad.metrics import (
    EvalReport,
    _check_binary,
    _integrate_to_limit,
    _mask_regions,
    _ranking,
    _sweep,
    aupro,
    auroc,
    average_precision,
    f1_max,
    pro_curve,
    shared_ranking,
    throughput,
)
from irfad.net import EvalCounter
from irfad.rng import make_rng

from oracles import (
    _flood_regions,
    ap_exhaustive,
    aupro_exhaustive,
    auroc_pairs,
    f1_exhaustive,
    pro_curve_per_threshold,
    ranking_by_argsort,
)


def random_instance(rng, n_max=200, with_ties=True):
    n = int(rng.integers(4, n_max + 1))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    if with_ties and rng.random() < 0.5:
        scores = rng.integers(0, 8, size=n).astype(float)  # heavy ties
    else:
        scores = rng.standard_normal(n)
    return scores, labels


# -- auroc ---------------------------------------------------------------------


def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0


def test_auroc_chance_level():
    rng = make_rng(0, "test-auroc-chance")
    scores = rng.standard_normal(20_000)
    labels = rng.integers(0, 2, size=20_000)
    assert abs(auroc(scores, labels) - 0.5) < 0.02


def test_auroc_spec_instance_matches_pair_oracle():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auroc(scores, labels) == auroc_pairs(scores, labels)


def test_auroc_oracle_sweep():
    rng = make_rng(1, "test-auroc-sweep")
    for _ in range(60):
        scores, labels = random_instance(rng)
        assert auroc(scores, labels) == auroc_pairs(scores, labels)


def test_auroc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.2], [0, 0])


def test_auroc_complement_for_tie_free_scores():
    rng = make_rng(2, "test-auroc-comp")
    scores = rng.standard_normal(101)
    labels = rng.integers(0, 2, size=101)
    labels[:2] = [0, 1]
    assert auroc(scores, labels) + auroc(-scores, labels) == 1.0


# -- average precision ---------------------------------------------------------


def test_ap_perfect_ranking():
    assert average_precision([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_ap_single_positive_ranked_last():
    n = 10
    scores = np.arange(n, dtype=float)
    labels = np.zeros(n, dtype=int)
    labels[0] = 1  # lowest score is the only positive
    assert average_precision(scores, labels) == 1.0 / n


def test_ap_oracle_sweep():
    rng = make_rng(3, "test-ap-sweep")
    for _ in range(60):
        scores, labels = random_instance(rng)
        assert average_precision(scores, labels) == ap_exhaustive(scores, labels)


def test_ap_no_positives_undefined():
    with pytest.raises(UndefinedMetricError):
        average_precision([0.4, 0.2], [0, 0])


# -- f1 max ---------------------------------------------------------------------


def test_f1_perfect_separation():
    assert f1_max([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_f1_lower_bounded_by_all_positive_threshold():
    rng = make_rng(4, "test-f1-bound")
    scores, labels = random_instance(rng)
    p = int(labels.sum())
    n = int(labels.size - p)
    assert f1_max(scores, labels) >= 2 * p / (p + n + p)


def test_f1_oracle_sweep():
    rng = make_rng(5, "test-f1-sweep")
    for _ in range(60):
        scores, labels = random_instance(rng)
        assert f1_max(scores, labels) == f1_exhaustive(scores, labels)


def test_f1_no_positives_undefined():
    with pytest.raises(UndefinedMetricError):
        f1_max([0.4, 0.2], [0, 0])


# -- invariance properties -------------------------------------------------------


STRICTLY_INCREASING = (np.exp, lambda s: 3.0 * s + 7.0, lambda s: s**3 + s)


def quarter_steps(draw, shape):
    """Scores k / 4 for integers k in [-40, 40]: ties are common, and every
    transform in STRICTLY_INCREASING keeps distinct values distinct."""
    size = int(np.prod(shape))
    ks = draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size))
    return np.array(ks, dtype=float).reshape(shape) / 4.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ranking_metrics_invariant_under_monotone_transforms(data):
    n = data.draw(st.integers(2, 60))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    labels[0], labels[-1] = 1, 0  # both classes present
    scores = quarter_steps(data.draw, (n,))
    perm = np.array(data.draw(st.permutations(range(n))))
    variants = [(transform(scores), labels) for transform in STRICTLY_INCREASING]
    variants.append((scores[perm], labels[perm]))
    for metric in (auroc, average_precision, f1_max):
        expected = metric(scores, labels)
        for ts, tl in variants:
            assert metric(ts, tl) == expected

    shape = tuple(data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (2, 6), (2, 6)))
    size = int(np.prod(shape))
    masks = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    masks[0], masks[-1] = 1, 0  # a region and a normal pixel
    masks = masks.reshape(shape)
    maps = quarter_steps(data.draw, shape)
    for limit in (0.3, 1.0):
        expected = aupro(maps, masks, limit)
        for transform in STRICTLY_INCREASING:
            assert aupro(transform(maps), masks, limit) == expected


# scores drawn from a handful of values, -0.0 and 0.0 among them: tie
# groups are large and some end on either sign of zero
TIE_HEAVY = np.array([-0.0, 0.0, 0.5, -1.0, 2.0])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sweep_ignores_input_order(data):
    n = data.draw(st.integers(1, 80))
    picks = data.draw(st.lists(st.integers(0, TIE_HEAVY.size - 1), min_size=n, max_size=n))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    scores = TIE_HEAVY[picks]
    perm = np.array(data.draw(st.permutations(range(n))))
    got = _sweep(*_check_binary(scores[perm], labels[perm]))
    expected = _sweep(*_check_binary(scores, labels))
    assert len(got) == len(expected) == 4
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert g.tobytes() == e.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ranking_matches_the_argsort_sweep(data):
    # tie-heavy scores with both signs of zero, down to one sample, one
    # class or one tie group for every score
    n = data.draw(st.integers(1, 60))
    if data.draw(st.booleans()):
        picks = data.draw(st.lists(st.integers(0, TIE_HEAVY.size - 1), min_size=n, max_size=n))
    else:
        picks = [data.draw(st.integers(0, TIE_HEAVY.size - 1))] * n  # all tied
    kind = data.draw(st.sampled_from(["mixed", "normal", "abnormal"]))
    if kind == "mixed":
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        labels = np.full(n, int(kind == "abnormal"))
    scores = TIE_HEAVY[picks]
    thresholds, tp, fp, groups = _ranking(*_check_binary(scores, labels))
    expected = ranking_by_argsort(scores, labels.astype(np.int64))
    for got, want in zip((thresholds, tp, fp), expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # the sign of each zero too
    assert groups.tobytes() == np.flatnonzero(np.diff(tp, prepend=0)).tobytes()


def tie_heavy_maps(draw, shape):
    size = int(np.prod(shape))
    picks = draw(st.lists(st.integers(0, TIE_HEAVY.size - 1), min_size=size, max_size=size))
    return TIE_HEAVY[picks].reshape(shape)


def binary_masks(draw, shape):
    size = int(np.prod(shape))
    masks = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    masks[0], masks[-1] = 1, 0  # a region and a normal pixel
    return masks.reshape(shape)


def all_metrics(maps, masks):
    flat_scores, flat_labels = maps.reshape(-1), masks.reshape(-1)
    return [
        auroc(flat_scores, flat_labels),
        average_precision(flat_scores, flat_labels),
        f1_max(flat_scores, flat_labels),
        aupro(maps, masks, 0.3),
        aupro(maps, masks, 1.0),
    ]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_ranking_equals_unscoped_calls(data):
    # the shared sweep must follow the values, not the array object: the
    # maps and masks change in place between rounds, and a round whose maps
    # differ from the last only in the sign of zeros may reuse its sweep
    shape = tuple(data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 5), (2, 5)))
    rounds = [(tie_heavy_maps(data.draw, shape), binary_masks(data.draw, shape))]
    rounds.append((tie_heavy_maps(data.draw, shape), rounds[0][1]))
    rounds.append((np.where(rounds[1][0] == 0, -rounds[1][0], rounds[1][0]), rounds[0][1]))
    rounds.append((rounds[2][0], binary_masks(data.draw, shape)))
    expected = [all_metrics(maps, masks) for maps, masks in rounds]
    maps, masks = rounds[0][0].copy(), rounds[0][1].copy()
    with shared_ranking():
        for (new_maps, new_masks), want in zip(rounds, expected):
            maps[...], masks[...] = new_maps, new_masks
            assert all_metrics(maps, masks) == want


def test_shared_ranking_keeps_nothing_after_the_block(monkeypatch):
    computed = []  # the curves computed, not read from a block's sweep
    original = metrics._ranking
    monkeypatch.setattr(
        metrics, "_ranking", lambda s, l: computed.append(s.size) or original(s, l)
    )
    scores, labels = np.array([0.5, 0.5, -1.0, 2.0]), np.array([1, 0, 0, 1])
    with shared_ranking():
        first = auroc(scores, labels), average_precision(scores, labels), f1_max(scores, labels)
        curve = _sweep(*_check_binary(scores, labels))
        assert not any(part.flags.writeable for part in curve)
    assert len(computed) == 1
    assert auroc(scores, labels) == first[0]
    assert len(computed) == 2  # recomputed: the block's sweep is gone
    with pytest.raises(RuntimeError):
        with shared_ranking():
            auroc(scores, labels)
            raise RuntimeError("leave the block early")
    assert metrics._shared.get() is None
    assert len(computed) == 3
    assert f1_max(scores, labels) == first[2]
    assert len(computed) == 4


def test_non_finite_scores_rejected():
    masks = np.zeros((1, 2, 2), dtype=np.uint8)
    masks[0, 0, 0] = 1
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([bad, 1.0, 0.0, 1.0])
        labels = np.array([1, 1, 0, 0])
        for metric in (auroc, average_precision, f1_max):
            with pytest.raises(NumericError):
                metric(scores, labels)
        with pytest.raises(NumericError):
            aupro(scores.reshape(1, 2, 2), masks)


# -- aupro ------------------------------------------------------------------------


def random_map_instance(rng, n_imgs=3, size=8):
    masks = (rng.random((n_imgs, size, size)) < 0.18).astype(np.uint8)
    if masks.sum() == 0:
        masks[0, 0, 0] = 1
    if rng.random() < 0.5:
        maps = rng.integers(0, 6, size=(n_imgs, size, size)).astype(float)
    else:
        maps = rng.standard_normal((n_imgs, size, size))
    return maps, masks


def test_aupro_perfect_detector():
    rng = make_rng(7, "test-aupro-perf")
    masks = (rng.random((2, 6, 6)) < 0.2).astype(np.uint8)
    masks[0, 0, 0] = 1
    assert aupro(masks.astype(float), masks, 0.3) == 1.0
    assert aupro(masks.astype(float), masks, 1.0) == 1.0


def test_aupro_chance_detector_near_half_limit():
    # an independent detector has PRO(fpr) ~ fpr, so the normalized area ~ limit/2
    rng = make_rng(8, "test-aupro-chance")
    masks = (rng.random((6, 16, 16)) < 0.15).astype(np.uint8)
    masks[0, 0, 0] = 1
    values = {1.0: [], 0.3: []}
    for _ in range(20):
        maps = rng.standard_normal(masks.shape)
        for limit in values:
            values[limit].append(aupro(maps, masks, limit))
    assert abs(np.mean(values[1.0]) - 0.5) < 0.05
    assert abs(np.mean(values[0.3]) - 0.15) < 0.05


def test_aupro_hand_enumerated_single_pixel_region():
    # one 1-pixel region on a 3x3 map, thresholds sweep the distinct values
    maps = np.array([[[0.9, 0.1, 0.2], [0.3, 0.8, 0.4], [0.5, 0.6, 0.7]]])
    masks = np.zeros((1, 3, 3), dtype=np.uint8)
    masks[0, 1, 1] = 1
    # curve points (theta desc): fpr = [1/8, 1/8, 2/8, ...], pro jumps to 1 at 0.8
    # theta=0.9: fp=1, pro=0; theta=0.8: fp=1, pro=1; then pro stays 1
    assert aupro(maps, masks, 1.0) == aupro_exhaustive(maps, masks, 1.0)
    got = aupro(maps, masks, 1.0)
    # hand integration: area = 0.125*0 + 0*0.5 + 0.875*1.0 = 0.875
    assert got == pytest.approx(0.875, abs=1e-12)


def test_aupro_oracle_sweep():
    rng = make_rng(9, "test-aupro-sweep")
    for _ in range(25):
        maps, masks = random_map_instance(rng)
        fpr, _ = pro_curve(maps, masks)
        interior = fpr[(fpr > 0) & (fpr < 1)]
        # a limit that is one of the curve's own FPR values ends the
        # integration exactly on a curve point
        hit = float(interior[rng.integers(interior.size)])
        for limit in (0.3, 1.0, hit):
            assert aupro(maps, masks, limit) == aupro_exhaustive(maps, masks, limit)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_aupro_integrates_the_pro_curve(data):
    # aupro forms the curve only up to the fpr limit: the area must equal
    # that of the full curve bit for bit
    shape = tuple(data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 6), (2, 6)))
    masks = binary_masks(data.draw, shape)
    if data.draw(st.booleans()):
        maps = tie_heavy_maps(data.draw, shape)
    else:
        size = int(np.prod(shape))
        values = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
        maps = np.array(values).reshape(shape)
    fpr, pro = pro_curve(maps, masks)
    limit = data.draw(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.just(1.0),
            st.sampled_from(fpr[fpr > 0].tolist()),  # the cut lands on a curve point
        )
    )
    full = _integrate_to_limit(fpr, pro, limit) / limit
    assert np.float64(aupro(maps, masks, limit)).tobytes() == np.float64(full).tobytes()


def assert_pro_curve_matches_oracle(maps, masks):
    fpr, pro = pro_curve(maps, masks)
    fpr_ref, pro_ref = pro_curve_per_threshold(maps, masks)
    assert fpr.tobytes() == fpr_ref.tobytes()
    assert pro.tobytes() == pro_ref.tobytes()


def test_pro_curve_matches_per_threshold_oracle_on_ties():
    rng = make_rng(11, "test-pro-curve-ties")
    for _ in range(40):
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        masks = (rng.random(shape) < rng.choice([0.1, 0.3, 0.6])).astype(np.uint8)
        masks.reshape(-1)[0], masks.reshape(-1)[-1] = 1, 0
        # positives and negatives draw from the same few values
        maps = TIE_HEAVY[rng.integers(0, TIE_HEAVY.size, size=shape)]
        assert_pro_curve_matches_oracle(maps, masks)


def test_pro_curve_matches_per_threshold_oracle_on_edge_layouts():
    rng = make_rng(12, "test-pro-curve-edges")
    single = np.zeros((2, 5, 5), dtype=np.uint8)
    single[1, 1:4, 2:4] = 1  # one region
    all_but_one = np.ones((2, 4, 4), dtype=np.uint8)
    all_but_one[1, 2, 3] = 0  # a single normal pixel
    for masks in (single, all_but_one):
        for maps in (
            rng.standard_normal(masks.shape),
            TIE_HEAVY[rng.integers(0, TIE_HEAVY.size, size=masks.shape)],
            np.zeros(masks.shape),  # one threshold for every pixel
        ):
            assert_pro_curve_matches_oracle(maps, masks)


def flood_regions_flat(masks):
    """The oracle's regions as sorted flat indices, in canonical order."""
    _, H, W = masks.shape
    return [
        sorted(i * H * W + r * W + c for r, c in coords)
        for i in range(masks.shape[0])
        for coords in _flood_regions(masks[i])
    ]


def snake(size):
    """One region that winds through a (size, size) image: every other row
    full, joined at alternating ends."""
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[::2] = 1
    for r in range(1, size, 2):
        mask[r, -1 if r % 4 == 1 else 0] = 1
    return mask


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mask_regions_match_flood_fill_property(data):
    shape = tuple(data.draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 9), (1, 9)))
    size = int(np.prod(shape))
    density = data.draw(st.sampled_from([0.05, 0.3, 0.5, 0.9]))
    bits = data.draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
    masks = (np.array(bits) < density).astype(np.uint8).reshape(shape)
    got = [coords.tolist() for coords in _mask_regions(masks)]
    assert got == flood_regions_flat(masks)


def test_mask_regions_match_flood_fill():
    rng = make_rng(13, "test-mask-regions")
    cases = [(rng.random((4, 7, 9)) < p).astype(np.uint8) for p in (0.1, 0.3, 0.5, 0.8)]
    cases.append(snake(32)[None])
    singles = np.zeros((2, 5, 5), dtype=np.uint8)  # isolated pixels, corners included
    singles[0, ::2, ::2] = 1
    singles[1, 4, 4] = 1
    cases.append(singles)
    cases.append(np.ones((1, 1, 1), dtype=np.uint8))
    stacked = np.zeros((3, 3, 3), dtype=np.uint8)
    stacked[:2, 1, 1] = 1  # same (row, col) in consecutive images: two regions
    stacked[1, 0, 0] = 1  # a diagonal neighbour of (1, 1, 1): joins its region
    cases.append(stacked)
    diagonal = np.zeros((3, 4, 4), dtype=np.uint8)  # the middle image stays empty
    diagonal[0] = np.eye(4)
    diagonal[2] = np.eye(4)[::-1]
    diagonal[2, 0, 0] = 1
    cases.append(diagonal)
    cases.append(np.zeros((2, 3, 3), dtype=np.uint8))
    for masks in cases:
        got = [coords.tolist() for coords in _mask_regions(masks)]
        assert got == flood_regions_flat(masks)
    assert len(_mask_regions(stacked)) == 2
    assert len(_mask_regions(diagonal)) == 3
    assert len(_mask_regions(snake(32)[None])) == 1
    assert len(_mask_regions(singles)) == 10


def test_aupro_monotone_in_fpr_limit():
    rng = make_rng(10, "test-aupro-mono")
    for _ in range(5):
        maps, masks = random_map_instance(rng)
        vals = [aupro(maps, masks, lim) for lim in (0.1, 0.3, 1.0)]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12


def test_aupro_no_regions_undefined():
    with pytest.raises(UndefinedMetricError):
        aupro(np.zeros((1, 4, 4)), np.zeros((1, 4, 4), dtype=np.uint8))


def test_aupro_bad_limit():
    masks = np.zeros((1, 4, 4), dtype=np.uint8)
    masks[0, 0, 0] = 1
    with pytest.raises(ParameterError):
        aupro(np.zeros((1, 4, 4)), masks, 0.0)


# -- report and throughput ---------------------------------------------------------


def test_eval_report_mad_averages_present_metrics():
    report = EvalReport(image_auroc=0.9, image_ap=0.8, image_f1=0.7)
    assert report.mad == pytest.approx((0.9 + 0.8 + 0.7) / 3)
    full = EvalReport(
        image_auroc=1.0,
        image_ap=1.0,
        image_f1=1.0,
        pixel_auroc=0.5,
        pixel_ap=0.5,
        pixel_f1=0.5,
        pixel_aupro=0.5,
    )
    assert full.mad == pytest.approx((3 * 1.0 + 4 * 0.5) / 7)


def test_throughput_counts_and_timing():
    calls = []

    def scorer(samples, counter: EvalCounter):
        calls.append(len(samples))
        counter.add(2 * len(samples))
        return len(calls)

    samples = np.zeros((40, 2))
    rate, nfe, first = throughput(scorer, samples, repeats=3)
    assert nfe == 80
    assert rate > 0
    assert len(calls) == 4  # warm-up + repeats
    assert first == 1  # the warm-up pass's result comes back


def test_throughput_empty_dataset_rejected():
    with pytest.raises(ParameterError):
        throughput(lambda s, c: None, np.zeros((0, 2)))
