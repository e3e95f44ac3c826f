import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad.data import gen_blobs, save_dataset
from irfad.errors import NumericError, ParameterError, ShapeError, TrainingDivergedError
from irfad.grad import Tape
from irfad.net import NoisePredictor
from irfad.rng import make_rng
from irfad.schedule import linear_schedule
from irfad.trainer import (
    _CHUNK,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    COMPUTE_DTYPE,
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
    # from zero state, bias correction reduces the update to g/(|g| + eps),
    # computed in float32 and applied to the float64 weights
    cfg = TrainConfig(lr=0.01, weight_decay=0.0)
    g = np.array([0.3, -4.0, 1e-3])
    params = [np.zeros(3)]
    optimizer_step(params, [g.copy()], AdamState.zeros_like(params), cfg)
    g32 = g.astype(np.float32)
    m = g32 * np.float32(1.0 - ADAM_BETA1)
    v = (g32 * g32) * np.float32(1.0 - ADAM_BETA2)
    step_size = np.float32(cfg.lr / (1.0 - ADAM_BETA1))
    denom_scale = np.float32(1.0 / np.sqrt(1.0 - ADAM_BETA2))
    expected = -((m * step_size) / (np.sqrt(v) * denom_scale + np.float32(ADAM_EPS)))
    assert params[0].dtype == np.float64
    assert np.array_equal(params[0], expected.astype(np.float64))
    np.testing.assert_allclose(params[0], -cfg.lr * g / (np.abs(g) + ADAM_EPS), rtol=1e-6)


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
    m = [np.zeros_like(p, dtype=np.float32) for p in start]
    v = [np.zeros_like(p, dtype=np.float32) for p in start]
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
    # two float32 scratch slices, NumPy's cast buffer for subtracting the
    # float32 update from a float64 slice, and 16 KiB for Python objects
    assert peak <= 2 * _CHUNK * 4 + np.getbufsize() * 8 + 16 * 1024, peak


@pytest.mark.parametrize("shape", [(5, 3), (3 * _CHUNK + 11,), (2, _CHUNK + 7)])
def test_a_float64_gradient_steps_with_the_bits_of_its_float32_rounding(shape):
    # magnitudes from below float32's smallest subnormal, which round to 0,
    # up to values whose square is still inside float32's range
    rng = np.random.default_rng(7)
    cfg = TrainConfig(lr=1e-3, weight_decay=1e-4)
    start = rng.standard_normal(shape)
    wide, narrow = [start.copy()], [start.copy()]
    wide_state, narrow_state = AdamState.zeros_like(wide), AdamState.zeros_like(narrow)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-50, 18, size=shape)
            optimizer_step(wide, [g], wide_state, cfg)
            optimizer_step(narrow, [g.astype(np.float32)], narrow_state, cfg)
    assert wide[0].dtype == np.float64
    assert wide_state.m[0].dtype == wide_state.v[0].dtype == np.float32
    for got, want in zip(wide + wide_state.m + wide_state.v,
                         narrow + narrow_state.m + narrow_state.v):
        assert got.dtype == want.dtype
        assert _bits(got) == _bits(want)
        assert np.isfinite(got).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", [1e30, -1e30, np.nan])
def test_a_gradient_whose_square_leaves_float32_range_is_refused(dtype, value):
    # an overflowing v would make sqrt(v) infinite and freeze the weight
    params = [np.zeros((2, _CHUNK + 7))]
    g = np.ones(params[0].shape, dtype=dtype)
    g[1, 5] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="second moment"):
            optimizer_step(params, [g], AdamState.zeros_like(params), TrainConfig())


def test_a_step_size_past_float32_range_is_refused_before_any_update():
    params = [np.ones(3)]
    state = AdamState.zeros_like(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="step size"):
            optimizer_step(params, [np.ones(3)], state, TrainConfig(lr=1e150))
    assert np.array_equal(params[0], np.ones(3))
    assert not state.m[0].any() and not state.v[0].any()


def test_an_update_past_float32_range_is_refused_before_the_weights_change():
    # lr/bc1 = 1e26 is inside float32's range, but m * (lr/bc1) is not
    params = [np.ones(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="update"):
            optimizer_step(params, [np.array([1e18, 1.0, -1.0])],
                           AdamState.zeros_like(params), TrainConfig(lr=1e25))
    assert np.array_equal(params[0], np.ones(3))


def test_train_refuses_a_gradient_whose_square_leaves_float32_range(schedule):
    # the output layer starts at zero, so the net predicts its bias: with the
    # last hidden bias and the output bias at 1e15, the loss is about 1e30,
    # finite in float32, and the output weights' gradient about 2e30
    net = small_net(schedule)
    net.params[-3][:] = 1e15
    net.params[-1][:] = 1e15
    data = make_rng(0, "test-train").standard_normal((8, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError, match="second moment") as err:
            train(net, data, schedule, TrainConfig(epochs=2, batch_size=8, seed=0))
    assert err.value.epoch == 1


def test_float32_tape_matches_the_float64_tape_on_a_small_net():
    schedule = linear_schedule(100)
    net = NoisePredictor.create(6, (16, 12), 4, schedule, seed=3)
    rng = np.random.default_rng(3)
    for p in net.params:  # a trained-looking net: no all-zero output layer
        p += 0.3 * rng.standard_normal(p.shape)
    features = rng.standard_normal((20, 10))
    target = rng.standard_normal((20, 6))

    def step(dtype):
        tape = Tape()
        pnodes = [tape.leaf(p.astype(dtype), param=True) for p in net.params]
        pred = net.forward_tape(tape, tape.leaf(features.astype(dtype)), pnodes)
        loss = tape.mean_squared_error(pred, tape.leaf(target.astype(dtype)))
        grads = tape.backward(loss)
        return loss.value, [grads[p.id] for p in pnodes]

    loss64, grads64 = step(np.float64)
    loss32, grads32 = step(np.float32)
    assert loss32.dtype == np.float32 and loss64.dtype == np.float64
    assert abs(float(loss32) - float(loss64)) <= 1e-4 * abs(float(loss64))
    for g32, g64 in zip(grads32, grads64):
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        assert np.abs(g32 - g64).max() <= 1e-4 * np.abs(g64).max()


def test_tape_leaf_keeps_float32_and_float64_and_widens_the_rest():
    tape = Tape()
    assert tape.leaf(np.ones(2, dtype=np.float32)).value.dtype == np.float32
    assert tape.leaf(np.ones(2)).value.dtype == np.float64
    for other in (np.ones(2, dtype=np.float16), np.arange(2), [1, 2], 3.0):
        assert tape.leaf(other).value.dtype == np.float64


@pytest.mark.parametrize("where", ["weight", "data"])
def test_a_value_beyond_float32_range_diverges_without_a_warning(schedule, where):
    # finite in float64, infinite once cast to the step's float32
    net = small_net(schedule)
    data = make_rng(0, "test-train").standard_normal((8, 1))
    if where == "weight":
        net.params[2][0, 0] = 1e39
    else:
        data[3, 0] = 1e39
    assert COMPUTE_DTYPE == np.float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError, match="non-finite value entering") as err:
            train(net, data, schedule, TrainConfig(epochs=2, batch_size=8, seed=0))
    assert err.value.epoch == 1


# -- training loop ------------------------------------------------------------


def test_training_holds_one_gradient_set():
    """The trained copy, both float32 AdamW moments, the step's float32
    parameter copies, one float32 gradient set and the tape: about 3.80x the
    float64 parameter bytes. A step that cast its parameters while the last
    step's tape and gradients were alive held about 3.95x, float64 moments
    4.95x, a whole step in float64 about 5.3x, and a float64 step that formed
    its gradients while the last step's were alive about 6.3x."""
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
    assert peak < 3.9 * param_bytes, peak / param_bytes


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


def test_blob_train_writes_the_same_files_at_one_and_two_blas_threads(tmp_path):
    # the step's float32 matmuls are large enough for OpenBLAS to split them
    # across two threads; the split must not change a bit
    train_split, _ = gen_blobs(128, 2, seed=0)
    save_dataset(train_split, tmp_path / "train")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data = {tmp_path / 'train'}\nhidden = 256,256,256\n"
                   "embed_dim = 64\nbatch_size = 64\nepochs = 4\n")
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"run-{threads}"
        res = subprocess.run(
            [sys.executable, "-m", "irfad", "train", "--config", str(cfg), "--seed", "0",
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        log = (out / "trainlog.csv").read_text().splitlines()
        runs[threads] = ((out / "checkpoint.bin").read_bytes(),
                         [line.rsplit(",", 1)[0] for line in log])  # seconds dropped
    assert runs["1"] == runs["2"]
