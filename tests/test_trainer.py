import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad.errors import ParameterError, ShapeError, TrainingDivergedError
from irfad.net import NoisePredictor
from irfad.rng import make_rng
from irfad.schedule import linear_schedule
from irfad.trainer import (
    _CHUNK,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    optimizer_step,
    train,
)

from oracles import adamw_whole_array


@pytest.fixture
def schedule():
    return linear_schedule(100)


def small_net(schedule, seed=0):
    return NoisePredictor.create(1, (8, 8), 4, schedule, seed=seed)


# -- optimizer ----------------------------------------------------------------


def test_zero_grad_zero_decay_is_identity():
    cfg = TrainConfig(lr=0.1, weight_decay=0.0)
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    before = [p.copy() for p in params]
    state = AdamState.zeros_like(params)
    optimizer_step(params, [np.zeros_like(p) for p in params], state, cfg)
    for p, b in zip(params, before):
        assert np.array_equal(p, b)


def test_single_step_normalized_direction():
    # from zero state, bias correction reduces the update to g/(|g| + eps)
    cfg = TrainConfig(lr=0.01, weight_decay=0.0)
    g = np.array([0.3, -4.0, 1e-3])
    params = [np.zeros(3)]
    optimizer_step(params, [g.copy()], AdamState.zeros_like(params), cfg)
    m_hat = g
    v_hat = g * g
    expected = -cfg.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    assert np.array_equal(params[0], expected)


def test_decoupled_decay_in_isolation():
    cfg = TrainConfig(lr=0.05, weight_decay=0.1)
    start = np.array([2.0, -1.5])
    params = [start.copy()]
    optimizer_step(params, [np.zeros(2)], AdamState.zeros_like(params), cfg)
    assert np.array_equal(params[0], start * (1.0 - cfg.lr * cfg.weight_decay))


def test_optimizer_shape_mismatch():
    cfg = TrainConfig()
    params = [np.zeros(3)]
    with pytest.raises(ShapeError):
        optimizer_step(params, [np.zeros(4)], AdamState.zeros_like(params), cfg)


def _laid_out(values: np.ndarray, layout: str) -> np.ndarray:
    """`values` in a fresh array that is C-ordered, a transpose or strided."""
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "strided":
        wide = np.zeros((values.shape[0] * 2, *values.shape[1:]))
        wide[::2] = values
        return wide[::2]
    return values.copy()


_SHAPES = st.one_of(
    st.tuples(st.integers(1, 3 * _CHUNK)),
    # more rows than one slice holds, with a ragged last slice
    st.integers(1, 300).flatmap(
        lambda cols: st.tuples(
            st.integers(_CHUNK // cols + 1, 3 * _CHUNK // cols + 1), st.just(cols)
        )
    ),
    # one row longer than a slice: split along the trailing axis too
    st.tuples(st.integers(1, 3), st.integers(_CHUNK + 1, 2 * _CHUNK + 7)),
)
_LAYOUTS = st.sampled_from(["contiguous", "transposed", "strided"])


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(st.tuples(_SHAPES, _LAYOUTS, _LAYOUTS), min_size=1, max_size=3),
    steps=st.integers(1, 4),
    lr=st.sampled_from([0.0, 1e-3, 0.05]),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_step_matches_whole_array_adamw_bit_for_bit(
    shapes, steps, lr, weight_decay, seed
):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(lr=lr, weight_decay=weight_decay)
    start = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3) for shape, _, _ in shapes]
    params = [_laid_out(p, layout) for p, (_, layout, _) in zip(start, shapes)]
    state = AdamState.zeros_like(params)
    expected = [p.copy() for p in start]
    m = [np.zeros_like(p) for p in start]
    v = [np.zeros_like(p) for p in start]
    for step in range(1, steps + 1):
        raw = [rng.standard_normal(p.shape) for p in start]
        grads = [_laid_out(g, layout) for g, (_, _, layout) in zip(raw, shapes)]
        optimizer_step(params, grads, state, cfg)
        adamw_whole_array(expected, raw, m, v, step, lr, weight_decay,
                          ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        for g, r in zip(grads, raw):
            assert _bits(g) == _bits(r)  # the gradients are read only
    assert state.step == steps
    for got, want in zip(params + state.m + state.v, expected + m + v):
        assert _bits(got) == _bits(want)


def test_step_on_the_blob_net_allocates_two_slices_only():
    net = NoisePredictor.create(256, (256, 256, 256), 64, linear_schedule(100), seed=0)
    params = [p.copy() for p in net.params]
    grads = [np.full_like(p, 0.5) for p in params]
    state = AdamState.zeros_like(params)
    optimizer_step(params, grads, state, TrainConfig())  # warm up
    tracemalloc.start()
    try:
        optimizer_step(params, grads, state, TrainConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _CHUNK * 8 + 64 * 1024, peak


# -- training loop ------------------------------------------------------------


def test_training_holds_one_gradient_set():
    """The trained copy, both AdamW moments, one gradient set and the tape:
    about 5.3x the parameter bytes. A step that formed its gradients while
    the last step's were alive held about 6.3x."""
    schedule = linear_schedule(100)
    net = NoisePredictor.create(256, (256, 256, 256), 64, schedule, seed=0)
    data = make_rng(0, "test-train-peak").standard_normal((128, 256))
    tracemalloc.start()
    try:
        train(net, data, schedule, TrainConfig(epochs=1, batch_size=64, seed=1))  # two steps
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.nbytes for p in net.params)
    assert peak < 5.8 * param_bytes, peak / param_bytes


def test_zero_lr_leaves_parameters_unchanged(schedule):
    net = small_net(schedule)
    data = make_rng(0, "test-train").standard_normal((32, 1))
    trained, _ = train(net, data, schedule, TrainConfig(epochs=3, lr=0.0, seed=1))
    for a, b in zip(trained.params, net.params):
        assert np.array_equal(a, b)


def test_fixed_seed_reproducible(schedule):
    net = small_net(schedule)
    data = make_rng(0, "test-train").standard_normal((64, 1))
    cfg = TrainConfig(epochs=4, batch_size=16, seed=5)
    net_a, log_a = train(net, data, schedule, cfg)
    net_b, log_b = train(net, data, schedule, cfg)
    assert log_a.epoch_losses == log_b.epoch_losses
    for a, b in zip(net_a.params, net_b.params):
        assert np.array_equal(a, b)


def test_input_net_not_mutated(schedule):
    net = small_net(schedule)
    before = [p.copy() for p in net.params]
    data = make_rng(0, "test-train").standard_normal((32, 1))
    train(net, data, schedule, TrainConfig(epochs=2, seed=0))
    for p, b in zip(net.params, before):
        assert np.array_equal(p, b)


def test_single_point_loss_decreases_majority_of_seeds(schedule):
    # dataset = the single point x0 = 0. One sample per epoch makes each
    # epoch loss a single noisy draw, so the trend is read from windowed
    # means rather than two individual epochs.
    data = np.zeros((1, 1))
    wins = 0
    for seed in range(5):
        net = small_net(schedule, seed=seed)
        _, log = train(
            net, data, schedule, TrainConfig(epochs=600, batch_size=1, seed=seed)
        )
        wins += np.mean(log.epoch_losses[-100:]) < np.mean(log.epoch_losses[:100])
    assert wins >= 3


def test_divergence_raises_with_epoch(schedule):
    net = small_net(schedule)
    data = make_rng(0, "test-train").standard_normal((8, 1))
    with pytest.raises(TrainingDivergedError) as err:
        train(net, data, schedule, TrainConfig(epochs=5, lr=1e150, seed=0))
    assert err.value.epoch >= 1


def test_dim_mismatch_and_empty_dataset(schedule):
    net = small_net(schedule)
    with pytest.raises(ShapeError):
        train(net, np.zeros((4, 2)), schedule, TrainConfig(epochs=1))
    with pytest.raises(ParameterError):
        train(net, np.zeros((0, 1)), schedule, TrainConfig(epochs=1))


@pytest.mark.parametrize(
    "bad",
    [
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"lr": -1e-3},
        {"weight_decay": float("nan")},
        {"weight_decay": float("inf")},
        {"weight_decay": -1.0},
    ],
)
def test_bad_optimizer_settings_rejected(bad):
    with pytest.raises(ParameterError):
        TrainConfig(**bad)


def test_toy_loss_below_regression_guard(toy_run):
    assert toy_run.log.final_loss < 1.05
    assert all(np.isfinite(v) and v >= 0 for v in toy_run.log.epoch_losses)
