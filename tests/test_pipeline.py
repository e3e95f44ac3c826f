from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from irfad import metrics
from irfad.data import gen_blobs
from irfad.errors import NumericError, ParameterError
from irfad.net import EvalCounter, NoisePredictor
from irfad.pipeline import (
    DDIM,
    IRF_MEAN,
    IRF_NOISY,
    RECON,
    Scorer,
    evaluate_scorer,
    pixel_maps,
)
from irfad.rng import make_rng
from irfad.schedule import linear_schedule
from irfad.scoring import image_score


@pytest.fixture(scope="module")
def setup():
    schedule = linear_schedule(100)
    train_ds, test_ds = gen_blobs(6, 8, dims=(2, 4, 4), seed=0, upsample_to=(8, 8))
    d = int(np.prod(test_ds.sample_shape))
    net = NoisePredictor.create(d, (16,), 8, schedule, seed=2)
    rng = make_rng(1, "test-pipeline")
    net.params = [rng.standard_normal(p.shape) * 0.1 for p in net.params]
    return schedule, net, test_ds


def test_unknown_scorer_rejected(setup):
    schedule, net, _ = setup
    with pytest.raises(ParameterError):
        Scorer("nope", net, schedule, t_infer=10)


@pytest.mark.parametrize("kind", [IRF_MEAN, DDIM])
@pytest.mark.parametrize("t_infer", [2.5, True, np.array([5]), 0, 101])
def test_scorer_step_must_be_one_integer_in_range(setup, kind, t_infer):
    schedule, net, _ = setup
    with pytest.raises(ParameterError):
        Scorer(kind, net, schedule, t_infer=t_infer)


def test_irf_table_matches_per_sample_scores(setup):
    schedule, net, test_ds = setup
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10, batch_size=3)
    table = scorer(test_ds.samples)
    for i in range(len(test_ds)):
        sc = image_score(table.deltas[i])
        assert table.s_diff[i] == sc.s_diff
        assert table.s_nll[i] == sc.s_nll
        assert table.s[i] == table.s_diff[i] + table.s_nll[i]


@pytest.mark.parametrize("kind", [IRF_MEAN, IRF_NOISY, RECON, DDIM])
def test_zero_samples_rejected(setup, kind):
    schedule, net, test_ds = setup
    scorer = Scorer(kind, net, schedule, t_infer=10,
                    recon_t_start=50, recon_steps=2, ddim_steps=2)
    with pytest.raises(ParameterError, match="zero samples"):
        scorer(test_ds.samples[:0])


@pytest.mark.parametrize("kind", [IRF_MEAN, IRF_NOISY, RECON, DDIM])
def test_nan_sample_rejected(setup, kind):
    schedule, net, test_ds = setup
    samples = test_ds.samples.copy()
    samples[3, 1, 2, 0] = np.nan
    scorer = Scorer(kind, net, schedule, t_infer=10, batch_size=3,
                    recon_t_start=50, recon_steps=2, ddim_steps=2)
    with pytest.raises(NumericError):
        scorer(samples)


def test_counter_tracks_per_scorer_cost(setup):
    schedule, net, test_ds = setup
    n = len(test_ds)
    for kind, steps, expected in (
        (IRF_MEAN, None, n),
        (IRF_NOISY, None, n),
        (DDIM, 4, 4 * n),
        (RECON, 5, 5 * n),
    ):
        counter = EvalCounter()
        scorer = Scorer(
            kind, net, schedule, t_infer=10, batch_size=3,
            recon_t_start=50, recon_steps=steps or 1, ddim_steps=steps or 1,
        )
        scorer(test_ds.samples, counter)
        assert counter.count == expected, kind


def test_noisy_scorer_reproducible_per_call(setup):
    schedule, net, test_ds = setup
    scorer = Scorer(IRF_NOISY, net, schedule, t_infer=10, noise_seed=5)
    a = scorer(test_ds.samples)
    b = scorer(test_ds.samples)
    assert np.array_equal(a.s, b.s)
    other = Scorer(IRF_NOISY, net, schedule, t_infer=10, noise_seed=6)(test_ds.samples)
    assert not np.array_equal(a.s, other.s)


def test_pixel_maps_requires_fields(setup):
    schedule, net, test_ds = setup
    table = Scorer(DDIM, net, schedule, t_infer=10, ddim_steps=2)(test_ds.samples)
    with pytest.raises(ParameterError):
        pixel_maps(table, (8, 8))


def test_evaluate_scorer_full_report(setup):
    schedule, net, test_ds = setup
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10, batch_size=4)
    report, table = evaluate_scorer(scorer, test_ds)
    assert report.nfe == len(test_ds)
    assert 0.0 <= report.image_auroc <= 1.0
    assert report.pixel_auroc is not None
    assert report.pixel_aupro is not None
    assert table.deltas.shape == (len(test_ds), 2, 4, 4)


def test_evaluate_scorer_sorts_each_score_set_once(setup, monkeypatch):
    # one sweep for the image scores, one for the pixel maps (7 unshared)
    schedule, net, test_ds = setup
    computed = []
    original = metrics._ranking
    monkeypatch.setattr(
        metrics, "_ranking", lambda s, l: computed.append(s.size) or original(s, l)
    )
    report, _ = evaluate_scorer(Scorer(IRF_MEAN, net, schedule, t_infer=10), test_ds)
    assert computed == [len(test_ds), test_ds.masks.size]
    assert report.pixel_aupro is not None


def test_evaluate_scorer_without_masks_is_image_only(setup):
    schedule, net, test_ds = setup
    from irfad.data import Dataset

    stripped = Dataset(
        samples=test_ds.samples, labels=test_ds.labels, masks=None, role="test"
    )
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10)
    report, _ = evaluate_scorer(scorer, stripped)
    assert report.pixel_auroc is None and report.pixel_aupro is None


def test_baseline_table_has_no_components(setup):
    schedule, net, test_ds = setup
    table = Scorer(DDIM, net, schedule, t_infer=10, ddim_steps=2)(test_ds.samples)
    assert table.s_diff is None and table.s_nll is None and table.deltas is None


def test_score_table_is_frozen(setup):
    schedule, net, test_ds = setup
    table = Scorer(IRF_MEAN, net, schedule, t_infer=10)(test_ds.samples)
    with pytest.raises(FrozenInstanceError):
        table.s = table.s_diff


def test_dataset_dim_mismatch_rejected(setup):
    schedule, net, _ = setup
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10)
    with pytest.raises(ParameterError):
        scorer(np.zeros((4, 7)))
