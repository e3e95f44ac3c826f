import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

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
    NetSpec,
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
        x = rng.standard_normal((1, 3))
        assert np.array_equal(predict_noise(net, x, t), np.zeros((1, 3)))


def test_predict_deterministic(net):
    rnet = randomized(net)
    x = make_rng(1, "test-det").standard_normal((1, 3))
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
        assert np.allclose(batched[i], predict_noise(net, xs[i : i + 1], t)[0],
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
    predict_noise(net, np.zeros((1, 3)), 1, counter)
    predict_noise(net, np.zeros((4, 3)), 1, counter)
    assert counter.count == 5


def test_dim_mismatch(net):
    with pytest.raises(ShapeError):
        predict_noise(net, np.zeros(4), 1)


def test_one_vector_is_not_rows(net):
    # one sample is one (1, d) row; irf_mean and irf_noisy reshape it so
    with pytest.raises(ShapeError, match=r"not \(n, d=3\) rows"):
        predict_noise(net, np.zeros(3), 1)


def test_t_out_of_range(net):
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros((1, 3)), 0)
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros((1, 3)), 1001)
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros((1, 3)), 2.5)
    with pytest.raises(ParameterError):
        predict_noise(net, np.zeros((1, 3)), True)


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
        out = predict_noise(net, np.ones((1, 1)), 1)
        # the kernel itself, as the benchmark's wrapper calls it
        direct = net.forward_features(np.ones((1, 1)), bias0=net.folded_bias(1))
    assert out[0, 0] == 0.0
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
    x = make_rng(4, "test-ckpt").standard_normal((1, 3))
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
    """Replace a saved checkpoint's header bytes by edit(header)."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    blob = edit(raw[12 : 12 + hlen])
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])


HEADER_KEYS = ("d", "hidden", "m", "T", "beta_start", "beta_end", "seed")


def set_value(key, value):
    """A header edit that writes `key=value` over the line of `key`."""
    line = re.compile(rf"^{key}=.*$", re.MULTILINE)
    return lambda header: line.sub(lambda _: f"{key}={value}", header.decode()).encode()


def test_checkpoint_header_is_key_value_lines(tmp_path, net):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    assert raw[4:8] == (2).to_bytes(4, "little")
    assert raw[12 : 12 + hlen] == (
        b"d=3\nhidden=16,16\nm=8\nT=1000\nbeta_start=0.0001\nbeta_end=0.02\nseed=7\n"
    )


def test_format_1_checkpoint_is_refused(tmp_path, net):
    header = (
        b'{"T": 1000, "beta_end": 0.02, "beta_start": 0.0001, "d": 3, "hidden": [16, 16], '
        b'"m": 8, "param_shapes": [[11, 16], [16], [16, 16], [16], [16, 3], [3]], "seed": 7}'
    )
    params = b"".join(p.astype("<f8").tobytes() for p in net.params)
    path = tmp_path / "net.bin"
    path.write_bytes(
        CHECKPOINT_MAGIC + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little")
        + header + params
    )
    with pytest.raises(CheckpointVersionError, match="format version 1, expected 2"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hidden", "128,128", "truncated parameter data"),
        ("hidden", "16", "trailing bytes"),
        ("hidden", "", "trailing bytes"),
        ("d", "2", "trailing bytes"),
        ("m", "10", "truncated parameter data"),
    ],
)
def test_checkpoint_shapes_disagreeing_with_header_are_corrupt(
    tmp_path, net, schedule, key, value, message
):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, set_value(key, value))
    with pytest.raises(CorruptCheckpointError, match=message):
        load_checkpoint(path, schedule)


@pytest.mark.parametrize(
    "key, value",
    [
        ("d", "3.0"),
        ("d", "True"),
        ("d", "0"),
        ("m", "8.0"),
        ("m", "7"),
        ("m", "0"),
        ("T", "1000.0"),
        ("T", "0"),
        ("seed", "x"),
        ("seed", "7.0"),
        ("hidden", "16.0,16"),
        ("hidden", "16,True"),
        ("hidden", "16,,16"),
        ("beta_start", "0.0001x"),
        ("beta_end", "None"),
        ("beta_end", "nan"),
        ("beta_start", "-inf"),
        ("d", str(2**70)),
        ("seed", "9" * 5000),
    ],
)
def test_checkpoint_bad_header_value_is_corrupt(tmp_path, net, key, value):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, set_value(key, value))
    with pytest.raises(CorruptCheckpointError, match=rf"bad header \({key}\b"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_checkpoint_header_missing_a_key_is_corrupt(tmp_path, net, key):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, lambda header: re.sub(rf"(?m)^{key}=.*\n".encode(), b"", header))
    with pytest.raises(CorruptCheckpointError, match=f"header has no '{key}' entry"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"[" * 200_000, "expected key=value"),  # deep enough to overflow a recursive parser
        (b"d=3\nhidden=16,\xff16\n", "can't decode"),
        (b"d=3\nhidden 16,16\n", "header:2: expected key=value, got 'hidden 16,16'"),
    ],
    ids=["brackets", "not-utf8", "no-equals"],
)
def test_checkpoint_header_that_is_not_key_value_text_is_corrupt(tmp_path, net, header, message):
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    rewrite_header(path, lambda _: header)
    with pytest.raises(CorruptCheckpointError, match=re.escape(message)):
        load_checkpoint(path)


_WIDTHS = st.lists(st.integers(1, 5), max_size=3).map(tuple)
_BETAS = st.floats(allow_nan=False, allow_infinity=False)
_SPECS = st.builds(
    NetSpec, d=st.integers(1, 4), hidden=_WIDTHS, m=st.integers(1, 4).map(lambda k: 2 * k),
    T=st.integers(1, 2000), beta_start=_BETAS, beta_end=_BETAS, seed=st.integers(0, 2**64 - 1),
)
# strings a hand-edited or corrupted header value might hold
_ADVERSARIAL = ["", "1.0", "True", "nan", "inf", "-1", "0", "7", str(2**70), "9" * 5000]


@settings(max_examples=60, deadline=None)
@given(spec=_SPECS, seed=st.integers(0, 2**32 - 1), key=st.sampled_from(HEADER_KEYS),
       value=st.sampled_from(_ADVERSARIAL))
def test_checkpoint_round_trips_and_refuses_a_bad_value_as_corrupt(spec, seed, key, value):
    rng = np.random.default_rng(seed)
    shapes = [s for pair in NoisePredictor.layer_shapes(spec) for s in pair]
    bits = [rng.integers(0, 2**64, size=s, dtype=np.uint64) for s in shapes]
    params = [np.where(np.isfinite(b.view("<f8")), b.view("<f8"), 0.5) for b in bits]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.bin"), Path(tmp, "b.bin")
        save_checkpoint(NoisePredictor(spec, params), first)
        loaded = load_checkpoint(first)
        assert loaded.spec == spec
        for a, b in zip(loaded.params, params):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()

        rewrite_header(first, set_value(key, value))
        try:
            load_checkpoint(first)
        except CorruptCheckpointError:
            pass


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
