import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irfad.irf
from irfad.errors import ContractError, ParameterError, ShapeError
from irfad.irf import irf_mean, irf_noisy
from irfad.net import EvalCounter, NoisePredictor, predict_noise
from irfad.pipeline import IRF_MEAN, IRF_NOISY, Scorer
from irfad.rng import make_rng
from irfad.schedule import linear_schedule, mean_path
from irfad.scoring import image_score


@pytest.fixture
def setup():
    schedule = linear_schedule(200)
    net = NoisePredictor.create(3, (16, 16), 8, schedule, seed=1)
    rng = make_rng(5, "test-irf")
    net.params = [rng.standard_normal(p.shape) * 0.2 for p in net.params]
    return schedule, net


def test_zero_eps_coincides_with_mean_path(setup):
    schedule, net = setup
    rng = make_rng(6, "test-irf-x")
    for t in (1, 100, 200):
        x0 = rng.standard_normal(3)
        noisy = irf_noisy(net, schedule, x0, t, np.zeros(3))
        mean = irf_mean(net, schedule, x0, t)
        assert np.array_equal(noisy.delta, mean.delta)


def test_single_network_evaluation(setup):
    schedule, net = setup
    x0 = np.ones(3)
    for field in (lambda c: irf_mean(net, schedule, x0, 10, c),
                  lambda c: irf_noisy(net, schedule, x0, 10, np.ones(3), c)):
        counter = EvalCounter()
        field(counter)
        assert counter.count == 1


def test_external_counter_accumulates(setup):
    schedule, net = setup
    counter = EvalCounter()
    for i in range(4):
        irf_mean(net, schedule, np.full(3, float(i)), 7, counter)
    assert counter.count == 4


def test_mean_path_deterministic(setup):
    schedule, net = setup
    x0 = make_rng(7, "test-irf-det").standard_normal(3)
    a = irf_mean(net, schedule, x0, 50)
    b = irf_mean(net, schedule, x0, 50)
    assert np.array_equal(a.delta, b.delta)


def test_field_shape_preserved(setup):
    schedule, net = setup
    for shape in ((3, 1, 1), (3,), (1, 3), (5, 3), (4, 3, 1, 1)):
        x0 = make_rng(8, "test-irf-shape").standard_normal(shape)
        res = irf_mean(net, schedule, x0, 20)
        assert res.delta.shape == shape
        assert irf_noisy(net, schedule, x0, 20, np.ones(shape)).delta.shape == shape


def test_errors_propagate(setup):
    schedule, net = setup
    with pytest.raises(ParameterError):
        irf_mean(net, schedule, np.ones(3), 0)
    with pytest.raises(ParameterError):
        irf_mean(net, schedule, np.ones(3), 201)
    with pytest.raises(ShapeError):
        irf_noisy(net, schedule, np.ones(3), 5, np.ones(4))
    with pytest.raises(ShapeError):
        irf_noisy(net, schedule, np.ones((2, 3)), 5, np.ones((3, 2)))
    for misfit in (np.ones(5), np.ones(6), np.ones((4, 5)), np.ones((2, 2))):
        with pytest.raises(ShapeError):
            irf_mean(net, schedule, misfit, 5)


def test_delta_matches_predict_on_mean_path(setup):
    schedule, net = setup
    x0 = make_rng(9, "test-irf-eq").standard_normal(3)
    res = irf_mean(net, schedule, x0, 33)
    assert np.array_equal(
        res.delta, predict_noise(net, mean_path(schedule, x0[None], 33), 33)[0]
    )


def test_stack_matches_per_sample_calls(setup):
    # BLAS picks different kernels per shape, so equality is to rounding only
    schedule, net = setup
    xs = make_rng(10, "test-irf-stack").standard_normal((7, 3, 1, 1))
    counter = EvalCounter()
    stack = irf_mean(net, schedule, xs, 40, counter)
    assert counter.count == 7
    for i in range(len(xs)):
        single = irf_mean(net, schedule, xs[i], 40, counter)
        assert counter.count == 8 + i
        assert np.allclose(stack.delta[i], single.delta, rtol=1e-12, atol=1e-14)


def test_two_evaluations_per_sample_break_the_contract(setup, monkeypatch):
    schedule, net = setup

    def twice(net, x, t, counter=None):
        counter.add(2 * len(x))
        return predict_noise(net, x, t)

    monkeypatch.setattr(irfad.irf, "predict_noise", twice)
    with pytest.raises(ContractError):
        irf_mean(net, schedule, np.ones(3), 10)
    with pytest.raises(ContractError):
        irf_noisy(net, schedule, np.ones((2, 3)), 10, np.zeros((2, 3)))
    with pytest.raises(ContractError):
        Scorer(IRF_MEAN, net, schedule, t_infer=10)(np.ones((4, 3)))


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 24),
    field=st.sampled_from([(1,), (3,), (2, 2, 3), (1, 4, 2)]),
    n=st.integers(1, 20),
    t=st.integers(1, 200),
    batch_size=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_scorer_is_irf_per_batch(width, field, n, t, batch_size, seed):
    """The IRF scorers' fields and scores are irf_mean / irf_noisy on the same
    batch rows, bit for bit; irf-noisy draws its eps for all rows at once."""
    schedule = linear_schedule(200)
    d = int(np.prod(field))
    net = NoisePredictor.create(d, (width, width), 4, schedule, seed=seed)
    net.params = [
        make_rng(seed, "test-irf-prop").standard_normal(p.shape) * 0.3 for p in net.params
    ]
    samples = make_rng(seed, "test-irf-x").standard_normal((n,) + field)
    eps = make_rng(seed, "score-noisy").standard_normal(samples.shape)
    for kind in (IRF_MEAN, IRF_NOISY):
        counter = EvalCounter()
        scorer = Scorer(kind, net, schedule, t_infer=t, batch_size=batch_size, noise_seed=seed)
        table = scorer(samples, counter)
        assert counter.count == n
        for a in range(0, n, batch_size):
            b = min(a + batch_size, n)
            if kind == IRF_MEAN:
                res = irf_mean(net, schedule, samples[a:b], t)
            else:
                res = irf_noisy(net, schedule, samples[a:b], t, eps[a:b])
            fields = res.delta.reshape((b - a,) + table.deltas.shape[1:])
            assert np.array_equal(table.deltas[a:b], fields)
            for i, f in enumerate(fields, start=a):
                sc = image_score(f)
                assert table.s_diff[i] == sc.s_diff
                assert table.s_nll[i] == sc.s_nll


# -- reference-run behaviour ---------------------------------------------------


def test_abnormal_deltas_dominate_normal(toy_run):
    amps = np.abs(toy_run.mean_table.deltas.reshape(-1))
    labels = toy_run.test.labels
    assert np.median(amps[labels == 1]) > np.median(amps[labels == 0])


def test_mean_path_deltas_centered_on_normal(toy_run):
    normal = toy_run.test.samples[toy_run.test.labels == 0]
    deltas = toy_run.mean_table.deltas.reshape(-1)[toy_run.test.labels == 0]
    assert deltas.shape[0] == normal.shape[0]
    assert abs(deltas.mean()) <= 0.1
