import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad.errors import (
    CheckpointVersionError,
    CorruptCheckpointError,
    ParameterError,
    ScheduleMismatchError,
    ShapeError,
)
from irfad.grad import Tape, silu_denominator
from irfad.net import (
    CHECKPOINT_MAGIC,
    EvalCounter,
    NoisePredictor,
    load_checkpoint,
    predict_noise,
    save_checkpoint,
    time_embedding,
)
from irfad.rng import make_rng
from irfad.schedule import linear_schedule
from irfad.trainer import TrainConfig, train


@pytest.fixture
def schedule():
    return linear_schedule(1000)


@pytest.fixture
def net(schedule):
    return NoisePredictor.create(3, (16, 16), 8, schedule, seed=7)


def randomized(net):
    """Copy with every layer (incl. the zero output head) randomized."""
    rng = make_rng(99, "test-randomize")
    out = net.copy()
    out.params = [rng.standard_normal(p.shape) * 0.3 for p in out.params]
    return out


def test_fresh_net_predicts_zero(net):
    rng = make_rng(0, "test-zero")
    for t in (1, 500, 1000):
        x = rng.standard_normal(3)
        assert np.array_equal(predict_noise(net, x, t), np.zeros(3))


def test_predict_deterministic(net):
    rnet = randomized(net)
    x = make_rng(1, "test-det").standard_normal(3)
    assert np.array_equal(predict_noise(rnet, x, 42), predict_noise(rnet, x, 42))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 6),
    t=st.integers(1, 1000),
    seed=st.integers(0, 2**16),
)
def test_predict_batched_matches_single(n, d, t, seed):
    # BLAS picks different kernels per shape, so equality is to rounding only
    net = randomized(NoisePredictor.create(d, (16, 16), 8, linear_schedule(1000), seed=7))
    xs = make_rng(seed, "test-batch").standard_normal((n, d))
    batched = predict_noise(net, xs, t)
    assert batched.shape == (n, d)
    for i in range(n):
        assert np.allclose(batched[i], predict_noise(net, xs[i], t),
                           rtol=1e-12, atol=1e-14)


def matmul_layer0_forward(net, x, t):
    """The inference forward with layer 0 as the (n, d) @ (d, h0) matmul."""
    h = x @ net.params[0][: net.spec.d] + net.folded_bias(t)
    for w, b in zip(net.params[2::2], net.params[3::2]):
        h = (h / silu_denominator(h)) @ w + b
    return h


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 600),
    hidden=st.lists(st.integers(1, 160), max_size=2),
    scale=st.integers(-300, 300),
    t=st.integers(1, 1000),
    seed=st.integers(0, 2**16),
)
def test_d1_layer0_broadcast_matches_the_matmul(n, hidden, scale, t, seed):
    # d = 1 takes x * W0[0]; with no hidden layer predict_noise is exactly
    # x @ W0[:1] + bias. Huge inputs may overflow later layers to NaN.
    net = randomized(NoisePredictor.create(1, tuple(hidden), 8, linear_schedule(1000), seed=7))
    x = make_rng(seed, "test-d1").standard_normal((n, 1)) * 10.0**scale
    with np.errstate(all="ignore"):
        got = predict_noise(net, x, t)
        want = matmul_layer0_forward(net, x, t)
    assert np.array_equal(got, want, equal_nan=True)
    if not hidden:
        assert np.all(got == x @ net.params[0][:1] + net.folded_bias(t))


def test_counter_counts_rows(net):
    counter = EvalCounter()
    predict_noise(net, np.zeros(3), 1, counter)
    predict_noise(net, np.zeros((4, 3)), 1, counter)
    assert counter.count == 5


def test_dim_mismatch(net):
    with pytest.raises(ShapeError):
        predict_noise(net, np.zeros(4), 1)


def test_t_out_of_range(net):
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros(3), 0)
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros(3), 1001)
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros(3), 2.5)
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros(3), True)


def tape_forward(net, x, t):
    """The training forward on explicit [x, emb(t)] rows: the reference."""
    feats = np.concatenate([x, np.broadcast_to(time_embedding(t, net.spec.m),
                                               (x.shape[0], net.spec.m))], axis=1)
    tape = Tape()
    pnodes = [tape.leaf(p, param=True) for p in net.params]
    return net.forward_tape(tape, tape.leaf(feats), pnodes).value


def test_tape_forward_matches_fast_path(net):
    # the folded bias reorders layer 0's sums, so agreement is to rounding
    rnet = randomized(net)
    x = make_rng(3, "test-tape").standard_normal((6, 3))
    for t in (1, 17, 1000):
        diff = np.abs(tape_forward(rnet, x, t) - predict_noise(rnet, x, t))
        assert diff.max() <= 1e-12


def test_trained_net_does_not_reuse_folded_bias(net, schedule):
    rnet = randomized(net)
    x = make_rng(5, "test-stale").standard_normal((4, 3))
    before = predict_noise(rnet, x, 10)
    data = make_rng(6, "test-stale-data").standard_normal((16, 3))
    trained, _ = train(rnet, data, schedule, TrainConfig(epochs=2, batch_size=8, seed=0))
    after = predict_noise(trained, x, 10)
    assert not np.allclose(after, before)
    assert np.abs(after - tape_forward(trained, x, 10)).max() <= 1e-12
    # the input net keeps serving its own parameters
    assert np.array_equal(predict_noise(rnet, x, 10), before)


def test_reassigned_params_drop_folded_bias(net):
    rnet = randomized(net)
    x = make_rng(7, "test-reassign").standard_normal((2, 3))
    predict_noise(rnet, x, 10)
    rnet.params = [p * 2.0 for p in rnet.params]
    assert np.abs(tape_forward(rnet, x, 10) - predict_noise(rnet, x, 10)).max() <= 1e-12


def test_silu_saturates_to_zero_without_warning(schedule):
    net = NoisePredictor.create(1, (1,), 2, schedule, seed=0)
    # hidden pre-activation -1000 for x = 1; the head reads the hidden unit
    # with weight 1, so the output is SiLU(-1000)
    net.params = [np.array([[-1000.0], [0.0], [0.0]]), np.zeros(1),
                  np.ones((1, 1)), np.zeros(1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = predict_noise(net, np.ones(1), 1)
        # the kernel itself, as the benchmark's wrapper calls it
        direct = net.forward_features(np.ones((1, 1)), bias0=net.folded_bias(1))
    assert out[0] == 0.0
    assert direct.tolist() == [[0.0]]


# -- time embedding -----------------------------------------------------------


def test_embedding_bounded():
    emb = time_embedding(np.arange(1, 1001), 32)
    assert emb.shape == (1000, 32)
    assert np.all(emb >= -1.0) and np.all(emb <= 1.0)


def test_embedding_distinct_for_all_steps():
    emb = time_embedding(np.arange(1, 1001), 8)
    assert np.unique(emb, axis=0).shape[0] == 1000
    # smallest even width, largest supported horizon
    emb2 = time_embedding(np.arange(1, 10_001), 2)
    assert np.unique(emb2, axis=0).shape[0] == 10_000


def test_embedding_constant_across_calls():
    assert np.array_equal(time_embedding(np.asarray(123), 16),
                          time_embedding(np.asarray(123), 16))


@settings(max_examples=100, deadline=None)
@given(
    T=st.integers(1, 2000),
    half=st.integers(1, 64),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_embedding_table_rows_match_per_step_calls(T, half, n, seed):
    # training indexes one table built per call with t - 1
    m = 2 * half
    t = make_rng(seed, "test-embed-table").integers(1, T + 1, size=n)
    table = time_embedding(np.arange(1, T + 1), m)
    assert np.array_equal(table[t - 1], time_embedding(t, m))


def test_embedding_odd_dim_rejected(schedule):
    with pytest.raises(ParameterError):
        time_embedding(np.asarray(5), 7)
    for m in (7, 0):
        with pytest.raises(ParameterError):
            NoisePredictor.create(3, (16,), m, schedule, seed=0)


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path, net, schedule):
    rnet = randomized(net)
    path = tmp_path / "net.bin"
    save_checkpoint(rnet, path)
    loaded = load_checkpoint(path, schedule)
    assert loaded.spec == rnet.spec
    for a, b in zip(loaded.params, rnet.params):
        assert np.array_equal(a, b)
    x = make_rng(4, "test-ckpt").standard_normal(3)
    assert np.array_equal(predict_noise(loaded, x, 9), predict_noise(rnet, x, 9))


def test_checkpoint_schedule_mismatch(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    with pytest.raises(ScheduleMismatchError):
        load_checkpoint(path, linear_schedule(500))
    with pytest.raises(ScheduleMismatchError):
        load_checkpoint(path, linear_schedule(1000, 1e-4, 0.05))


def test_checkpoint_truncated(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == CHECKPOINT_MAGIC
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_nan_parameter_is_corrupt(tmp_path, net, schedule):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(CorruptCheckpointError, match="non-finite"):
        load_checkpoint(path, schedule)


def rewrite_header(path, edit):
    """Replace a saved checkpoint's JSON header by edit(header)."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = edit(json.loads(raw[12 : 12 + hlen]))
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])


def test_checkpoint_shapes_disagreeing_with_header_are_corrupt(tmp_path, net, schedule):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, lambda header: {**header, "hidden": [128, 128]})
    with pytest.raises(CorruptCheckpointError, match="param_shapes"):
        load_checkpoint(path, schedule)


@pytest.mark.parametrize(
    "key, value",
    [
        ("d", 3.0),
        ("d", True),
        ("d", 0),
        ("m", 8.0),
        ("m", 7),
        ("m", 0),
        ("T", 1000.0),
        ("T", 0),
        ("seed", "x"),
        ("seed", 7.0),
        ("hidden", [16.0, 16]),
        ("hidden", [16, True]),
        ("hidden", 16),
        ("beta_start", "0.0001"),
        ("beta_end", None),
        ("beta_end", float("nan")),
    ],
)
def test_checkpoint_mistyped_header_is_corrupt(tmp_path, net, key, value):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, lambda header: {**header, key: value})
    with pytest.raises(CorruptCheckpointError, match=f"{key} must"):
        load_checkpoint(path)


def test_checkpoint_header_must_be_an_object(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, lambda header: sorted(header.items()))
    with pytest.raises(CorruptCheckpointError, match="JSON object"):
        load_checkpoint(path)


def test_loaded_parameters_own_aligned_memory(tmp_path, net, schedule):
    path = tmp_path / "net.bin"
    save_checkpoint(randomized(net), path)
    for p in load_checkpoint(path, schedule).params:
        assert p.base is None
        assert p.flags.aligned and p.flags.writeable and p.flags.c_contiguous


def test_checkpoint_save_load_save_is_byte_identical(tmp_path, net, schedule):
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(randomized(net), first)
    save_checkpoint(load_checkpoint(first, schedule), second)
    assert first.read_bytes() == second.read_bytes()


def test_huge_header_length_is_corrupt_without_reading_it(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2**31).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptCheckpointError, match="truncated header"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trained_noise_stats_on_normal_data(toy_run):
    """Held-out normal data at the inference step: outputs near N(0, 1)."""
    normal = toy_run.test.samples[toy_run.test.labels == 0].reshape(-1, 1)
    rng = make_rng(11, "test-noise-stats")
    eps = rng.standard_normal(normal.shape)
    from irfad.schedule import q_sample

    xt = q_sample(toy_run.schedule, normal, toy_run.t_infer, eps)
    out = predict_noise(toy_run.net, xt, toy_run.t_infer)
    assert abs(out.mean()) <= 0.1
    assert 0.8 <= out.var() <= 1.2
