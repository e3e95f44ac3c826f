import dataclasses
import math
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad import data
from irfad.config import RunConfig, load_config_file
from irfad.data import (
    BlobParams,
    Dataset,
    gen_blobs,
    gen_toy,
    load_dataset,
    quote,
    read_key_values,
    save_dataset,
    write_key_values,
)
from irfad.errors import ConfigError, DataError, ParameterError
from irfad.net import _HEADER, NetSpec
from irfad.rng import make_rng

from oracles import blob_channel_basis, blob_covariance, blobs_per_sample


# -- toy generator --------------------------------------------------------------


def test_toy_counts_and_balance():
    train, test = gen_toy(0)
    assert len(train) == 10_000
    assert len(test) == 12_000
    assert np.all(train.labels == 0)
    assert (test.labels == 0).sum() == 6_000
    assert (test.labels == 1).sum() == 6_000
    assert train.sample_shape == (1,)


def test_toy_train_mean_within_standard_error_band():
    train, _ = gen_toy(0)
    band = 3.0 * 0.35 / np.sqrt(10_000)
    assert abs(train.samples.mean() - 2.5) < band


def test_toy_abnormal_mixture_mean():
    _, test = gen_toy(0)
    abn = test.samples[test.labels == 1]
    # mixture mean 0.5*1.5 + 0.5*3.5 = 2.5; variance 1 + mean of component vars
    mix_var = 0.5 * (1.0 + 0.2**2) + 0.5 * (1.0 + 0.22**2)
    band = 3.0 * np.sqrt(mix_var / 6_000)
    assert abs(abn.mean() - 2.5) < band


def test_toy_deterministic_per_seed():
    a_train, a_test = gen_toy(7)
    b_train, b_test = gen_toy(7)
    assert np.array_equal(a_train.samples, b_train.samples)
    assert np.array_equal(a_test.samples, b_test.samples)
    c_train, _ = gen_toy(8)
    assert not np.array_equal(a_train.samples, c_train.samples)


# -- blob generator ---------------------------------------------------------------


def test_blob_shapes_and_mask_area():
    params = BlobParams(amplitude=2.0, rows=2, cols=3)
    train, test = gen_blobs(8, 6, dims=(4, 8, 8), anomaly=params, seed=0)
    assert train.samples.shape == (8, 4, 8, 8)
    assert test.samples.shape == (6, 4, 8, 8)
    assert train.masks is None and test.masks is not None
    assert test.masks.shape == (6, 32, 32)
    for i in range(6):
        area = int(test.masks[i].sum())
        if test.labels[i] == 1:
            assert area == 2 * 3 * 4 * 4  # feature cells scaled 4x per axis
        else:
            assert area == 0


def test_blob_zero_amplitude_keeps_masks():
    _, test = gen_blobs(2, 4, anomaly=BlobParams(amplitude=0.0), seed=1)
    assert np.all(test.masks[test.labels == 1].sum(axis=(1, 2)) > 0)


def test_blob_dim_validation():
    with pytest.raises(ParameterError):
        gen_blobs(4, 4, dims=(16, 8, 8))  # c*h*w > 512
    with pytest.raises(ParameterError):
        gen_blobs(4, 4, dims=(4, 8, 8), anomaly=BlobParams(rows=9, cols=1))
    with pytest.raises(ParameterError):
        gen_blobs(4, 4, upsample_to=(30, 32))
    with pytest.raises(ParameterError):
        gen_blobs(4, 4, upsample_to=(0, 8))  # 0 is a multiple of 8, but holds no field


@pytest.mark.parametrize("counts", [(2**70, 4), (4, 2**70), (2**60, 2**60)])
def test_blob_count_beyond_the_address_space_is_refused(counts):
    with pytest.raises(ParameterError, match="addressable"):
        gen_blobs(*counts)


@st.composite
def _blob_args(draw):
    h = draw(st.integers(1, 16), label="h")
    w = draw(st.integers(1, 16), label="w")
    c = draw(st.integers(1, 512 // (h * w)), label="c")
    anomaly = BlobParams(
        amplitude=draw(st.floats(-1e6, 1e6), label="amplitude"),
        rows=draw(st.integers(1, h), label="rows"),
        cols=draw(st.integers(1, w), label="cols"),
    )
    upsample_to = (h * draw(st.integers(1, 3)), w * draw(st.integers(1, 3)))
    return dict(
        n_train=draw(st.integers(1, 40), label="n_train"),
        n_test=draw(st.integers(2, 40), label="n_test"),
        dims=(c, h, w),
        anomaly=anomaly,
        seed=draw(st.integers(0, 2**64 - 1), label="seed"),
        upsample_to=upsample_to,
    )


def _next_draws(rng):
    return rng.integers(0, 7, size=5).tolist(), rng.standard_normal(3).tobytes()


@settings(max_examples=100, deadline=None)
@given(args=_blob_args())
def test_batched_blobs_match_the_per_sample_generator(args):
    streams = []

    def recording_make_rng(seed, name):
        streams.append(make_rng(seed, name))
        return streams[-1]

    with mock.patch.object(data, "make_rng", recording_make_rng):
        train, test = gen_blobs(**args)
    oracle_rng = make_rng(args["seed"], "blobs")
    train_x, test_x, labels, masks = blobs_per_sample(
        oracle_rng, args["n_train"], args["n_test"], args["dims"], args["anomaly"],
        args["upsample_to"],
    )
    assert train.samples.shape == train_x.shape and test.samples.shape == test_x.shape
    assert np.array_equal(train.samples.view(np.uint64), train_x.view(np.uint64))
    assert np.array_equal(test.samples.view(np.uint64), test_x.view(np.uint64))
    assert test.labels.tobytes() == labels.tobytes()
    assert test.masks.shape == masks.shape and test.masks.tobytes() == masks.tobytes()
    assert len(streams) == 1
    assert _next_draws(streams[0]) == _next_draws(oracle_rng)


@pytest.mark.parametrize("dims", [(4, 8, 8), (2, 4, 16)])
def test_blob_fields_are_the_channel_basis_times_their_coefficient_draw(dims):
    # the generator's first draw is the (n, c, 3, 3) train coefficients
    c, h, w = dims
    train, _ = gen_blobs(50, 2, dims=dims, seed=4)
    coef = make_rng(4, "blobs").standard_normal((50, c, 9))
    fields = coef @ blob_channel_basis(h, w).T  # (n, c, h*w)
    assert np.allclose(train.samples.reshape(50, c, h * w), fields, rtol=0, atol=1e-12)
    cov = blob_covariance(dims)
    assert cov.shape == (c * h * w,) * 2 and np.array_equal(cov, cov.T)
    assert np.linalg.matrix_rank(cov) == 9 * c  # three cosine modes per axis


def test_blob_deterministic_per_seed():
    a = gen_blobs(4, 4, seed=3)
    b = gen_blobs(4, 4, seed=3)
    assert np.array_equal(a[1].samples, b[1].samples)
    assert np.array_equal(a[1].masks, b[1].masks)


# -- dataset invariants -------------------------------------------------------------


def test_train_split_rejects_abnormal_labels():
    with pytest.raises(DataError):
        Dataset(
            samples=np.zeros((2, 1)),
            labels=np.array([0, 1], dtype=np.uint8),
            masks=None,
            role="train",
        )


def test_annotated_abnormal_needs_positive_mask():
    with pytest.raises(DataError):
        Dataset(
            samples=np.zeros((1, 2, 2, 2)),
            labels=np.array([1], dtype=np.uint8),
            masks=np.zeros((1, 4, 4), dtype=np.uint8),
        )


def test_annotated_normal_needs_empty_mask():
    samples = np.zeros((2, 2, 2, 2))
    labels = np.array([0, 1], dtype=np.uint8)
    masks = np.zeros((2, 4, 4), dtype=np.uint8)
    masks[1, 0, 0] = 1
    Dataset(samples=samples, labels=labels, masks=masks)
    masks[0, 3, 3] = 1
    with pytest.raises(DataError, match="normal sample with positive mask pixels"):
        Dataset(samples=samples, labels=labels, masks=masks)


def test_masks_must_cover_the_field():
    labels = np.array([1], dtype=np.uint8)
    for fields, masks in (((4, 4), (4, 4)), ((4, 4), (8, 12)), ((1, 1), (1, 1))):
        Dataset(np.zeros((1, 2, *fields)), labels, np.ones((1, *masks), dtype=np.uint8))
    Dataset(np.zeros((1, 3)), labels, np.ones((1, 1, 1), dtype=np.uint8))  # a (3, 1, 1) field
    for fields, masks in (((4, 4), (3, 4)), ((4, 4), (4, 3)), ((8, 8), (4, 4)), ((1, 1), (0, 1))):
        with pytest.raises(DataError, match="smaller than the fields"):
            Dataset(np.zeros((1, 2, *fields)), labels, np.ones((1, *masks), dtype=np.uint8))


@pytest.mark.parametrize("shape", [(3,), (3, 4, 8), (3, 1, 2, 2, 2), ()])
def test_samples_must_be_vectors_or_fields(shape):
    with pytest.raises(DataError, match="unsupported sample shape"):
        Dataset(np.zeros(shape), np.zeros(shape[:1], dtype=np.uint8), None)
    assert data.field_shape((5,)) == (5, 1, 1)
    assert data.field_shape((2, 3, 4)) == (2, 3, 4)


# -- key=value codec ----------------------------------------------------------------


def test_key_values_skip_blank_and_comment_lines_and_keep_the_last_value(tmp_path):
    path = tmp_path / "kv"
    path.write_text("# note\n\n  a = 1 \nb=x=y\n  # indented\r\na=2\nc=\n\t\n")
    assert read_key_values(path) == {"a": "2", "b": "x=y", "c": ""}


@pytest.mark.parametrize("line", ["oops", "=5", "  = 5", "a b"])
def test_key_values_refuse_a_line_without_key_and_equals(line, tmp_path):
    path = tmp_path / "kv"
    path.write_text(f"a=1\n\n{line}\nb=2\n")
    with pytest.raises(DataError, match=f"kv:3: expected key=value, got {line.strip()!r}"):
        read_key_values(path)


def test_quote_cuts_long_text_to_its_first_80_characters():
    for text in ("", "a'b\n", "x" * 80):
        assert quote(text) == repr(text)
    assert quote("y" * 81) == f"{'y' * 80!r}... (81 characters)"
    with pytest.raises(DataError, match=r"kv:1: expected key=value, got '\[{80}'\.\.\. \(5000 "):
        data.parse_key_values("[" * 5000, "kv")


@pytest.mark.parametrize("key", ["count", "has_masks", "role", "format_version"])
def test_a_long_manifest_value_is_quoted_cut(key, tmp_path):
    save_dataset(gen_toy(0)[0], tmp_path / "split")
    manifest = read_key_values(tmp_path / "split" / "manifest")
    manifest[key] = "9" * 4000 if key == "format_version" else "z" * 4000
    write_key_values(tmp_path / "split" / "manifest", manifest.items())
    with pytest.raises(DataError) as excinfo:
        load_dataset(tmp_path / "split")
    assert "... (4000 characters)" in str(excinfo.value)
    assert len(str(excinfo.value)) < 300


def test_key_values_unreadable_file_is_data_error(tmp_path):
    path = tmp_path / "kv"
    path.write_bytes(b"a=1\nb=\xff\n")
    with pytest.raises(DataError, match="kv: not UTF-8"):
        read_key_values(path)
    for absent in (tmp_path / "absent", tmp_path):  # missing, and a directory
        with pytest.raises(DataError, match="cannot read"):
            read_key_values(absent)


def test_key_values_writer_bytes(tmp_path):
    write_key_values(tmp_path / "kv", [("a", 1), ("b", "x=y"), ("a", "")])
    assert (tmp_path / "kv").read_bytes() == b"a=1\nb=x=y\na=\n"
    assert not (tmp_path / "kv.tmp").exists()


@pytest.mark.parametrize("item", [("out", "nl\nx"), ("out", "cr\rx"), ("a\nb", "1"), ("a\r", "1")])
def test_key_values_writer_refuses_a_line_break(item, tmp_path):
    with pytest.raises(DataError, match="line break"):
        write_key_values(tmp_path / "kv", [("command", "score"), item])
    assert not (tmp_path / "kv").exists()


def _stripped(text):
    return text == text.strip()


# a key holds no `=` and no line break, does not start with `#` and has no
# surrounding whitespace; a value holds no line break and no surrounding whitespace
_KEYS = st.text(st.characters(codec="utf-8", exclude_characters="=\n\r"), min_size=1, max_size=8).filter(
    lambda k: _stripped(k) and not k.startswith("#")
)
_VALUES = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=8).filter(_stripped)
_NO_PAIR = st.text(st.characters(codec="utf-8", exclude_characters="=\n\r"), min_size=1, max_size=8).filter(
    lambda line: line.strip() and not line.strip().startswith("#")
)


@settings(max_examples=100, deadline=None)
@given(items=st.lists(st.tuples(_KEYS, _VALUES), max_size=10), bad=_NO_PAIR, pick=st.data())
def test_key_value_codec_round_trips_and_names_a_bad_line(items, bad, pick):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kv")
        write_key_values(path, items)
        assert read_key_values(path) == dict(items)  # a repeated key: its last value

        config = os.path.join(tmp, "run.cfg")
        write_key_values(config, RunConfig().items())
        split = os.path.join(tmp, "split")
        save_dataset(Dataset(np.zeros((2, 1)), np.array([0, 1], dtype=np.uint8), None), split)
        manifest = os.path.join(split, "manifest")
        for target, load, error in (
            (config, lambda: load_config_file(config, RunConfig()), ConfigError),
            (manifest, lambda: load_dataset(split), DataError),
        ):
            with open(target, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            at = pick.draw(st.integers(0, len(lines)), label="bad line index")
            lines.insert(at, bad)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with pytest.raises(error) as excinfo:
                load()
            assert f"{target}:{at + 1}: expected key=value" in str(excinfo.value)


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


# each kind of typed value, with the parser that reads format_key_values' text back
_TYPED = st.one_of(
    st.tuples(st.booleans(), st.just(data.parse_bool)),
    st.tuples(st.integers(-(2**70), 2**70), st.just(int)),
    st.tuples(st.floats(allow_nan=False), st.just(float)),
    st.tuples(st.lists(st.integers(-(2**40), 2**40), max_size=4).map(tuple), st.just(data.parse_ints)),
    st.tuples(_VALUES, st.just(str)),
)


@settings(max_examples=200, deadline=None)
@given(typed=st.dictionaries(_KEYS, _TYPED, max_size=8))
def test_typed_values_read_back_equal_through_their_parsers(typed):
    text = data.format_key_values([(key, value) for key, (value, _) in typed.items()], "kv")
    entries = data.parse_key_values(text.decode("utf-8"), "kv")
    parsers = {key: parse for key, (_, parse) in typed.items()}
    parsed = data.parse_entries(entries, parsers, "kv")
    assert {k: _bits(v) for k, v in parsed.items()} == {k: _bits(v) for k, (v, _) in typed.items()}


def _config_values(default):
    """Values a RunConfig field of `default`'s type can hold and write."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-(2**70), 2**70)
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    if isinstance(default, tuple):  # a config tuple has at least one entry
        return st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(tuple)
    return _VALUES


_CONFIGS = st.fixed_dictionaries(
    {f.name: _config_values(f.default) for f in dataclasses.fields(RunConfig)}
).map(lambda values: RunConfig(**values))
_SPECS = st.builds(
    NetSpec, d=st.integers(1, 4), hidden=st.lists(st.integers(1, 5), max_size=3).map(tuple),
    m=st.integers(1, 4).map(lambda k: 2 * k), T=st.integers(1, 2000),
    beta_start=st.floats(allow_nan=False, allow_infinity=False),
    beta_end=st.floats(allow_nan=False, allow_infinity=False), seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=50, deadline=None)
@given(config=_CONFIGS, spec=_SPECS)
def test_run_configs_and_net_specs_round_trip_through_files(config, spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        write_key_values(path, config.items())
        assert load_config_file(path, RunConfig()) == config
        write_key_values(path, vars(spec).items())
        assert NetSpec(**data.parse_entries(read_key_values(path), _HEADER, "header")) == spec


@st.composite
def _splits(draw):
    n = draw(st.integers(1, 4))
    sample_shape = draw(st.sampled_from([(1,), (3,), (2, 2, 3), (1, 1, 1)]))
    role = draw(st.sampled_from(["train", "test"]))
    labels = np.zeros(n, dtype=np.uint8)
    if role == "test":
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    masks = None
    if role == "test" and draw(st.booleans()):
        scale = draw(st.integers(1, 2))
        _, h, w = data.field_shape(sample_shape)
        masks = np.zeros((n, h * scale, w * scale + draw(st.integers(0, 1))), dtype=np.uint8)
        masks[labels == 1, 0, 0] = 1
    samples = np.array(
        draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=n * math.prod(sample_shape), max_size=n * math.prod(sample_shape)))
    ).reshape((n, *sample_shape))
    provenance = draw(st.dictionaries(_KEYS, _VALUES, max_size=3))
    return Dataset(samples, labels, masks, provenance, role)


@settings(max_examples=50, deadline=None)
@given(split=_splits())
def test_split_manifests_round_trip_through_files(split):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save_dataset(split, first)
        loaded = load_dataset(first)
        assert loaded.samples.shape == split.samples.shape
        assert loaded.samples.tobytes() == split.samples.tobytes()
        assert np.array_equal(loaded.labels, split.labels)
        assert (loaded.masks is None) == (split.masks is None)
        if split.masks is not None:
            assert np.array_equal(loaded.masks, split.masks)
        assert (loaded.role, loaded.provenance) == (split.role, split.provenance)
        save_dataset(loaded, second)
        files = [p.relative_to(first) for p in first.rglob("*") if p.is_file()]
        assert len(files) == 3 + (split.masks is not None)
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes()


# what a lenient reader (config's booleans, say) would take as a bool
_NEAR_BOOLS = ["True", "FALSE", "tRue", "1", "0", "yes", "no", "on", "off", " true", "false\t", ""]


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.sampled_from(_NEAR_BOOLS), st.text(max_size=8)))
def test_has_masks_reads_true_or_false_and_nothing_else(text):
    if text in ("true", "false"):
        assert data.parse_bool(text) is (text == "true")
        return
    with pytest.raises(ValueError):
        data.parse_bool(text)
    value = text.strip()
    if "\n" in text or "\r" in text or value in ("true", "false"):
        return  # a line break cannot be written, and the reader strips the value
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(Dataset(np.zeros((2, 1)), np.zeros(2, dtype=np.uint8), None), tmp)
        manifest = read_key_values(os.path.join(tmp, "manifest"))
        write_key_values(os.path.join(tmp, "manifest"), {**manifest, "has_masks": text}.items())
        with pytest.raises(DataError, match=re.escape(f"(has_masks: cannot parse {quote(value)})")):
            load_dataset(tmp)


# -- disk round trip ------------------------------------------------------------------


def test_round_trip_bitwise(tmp_path):
    _, test = gen_blobs(3, 4, seed=5)
    save_dataset(test, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert np.array_equal(loaded.samples, test.samples)
    assert np.array_equal(loaded.labels, test.labels)
    assert np.array_equal(loaded.masks, test.masks)
    assert loaded.role == test.role


def test_provenance_survives_round_trip(tmp_path):
    train, _ = gen_toy(42)
    save_dataset(train, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.provenance["seed"] == "42"
    assert loaded.provenance["generator"] == "toy"


def test_loaded_arrays_own_aligned_memory(tmp_path):
    _, test = gen_blobs(3, 4, seed=5)
    save_dataset(test, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    for a in (loaded.samples, loaded.labels, loaded.masks):
        assert a.base is None
        assert a.flags.aligned and a.flags.writeable and a.flags.c_contiguous


def test_save_load_save_is_byte_identical(tmp_path):
    _, test = gen_blobs(3, 4, seed=5)
    save_dataset(test, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    for name in ("manifest", "samples.bin", "labels.bin", "masks/masks.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_huge_manifest_count_is_load_error_without_allocating(tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    save_dataset(test, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest"
    manifest.write_text(manifest.read_text().replace("count=4", f"count={10**12}"))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated samples.bin"):
            load_dataset(tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_negative_manifest_count_is_load_error(tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    save_dataset(test, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest"
    text = manifest.read_text()
    text = text.replace("count=4", "count=-4").replace("shape=4,", "shape=-4,")
    manifest.write_text(text)
    with pytest.raises(DataError, match="negative"):
        load_dataset(tmp_path / "ds")


def test_missing_mask_file_is_load_error(tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    save_dataset(test, tmp_path / "ds")
    (tmp_path / "ds" / "masks" / "masks.bin").unlink()
    with pytest.raises(DataError):
        load_dataset(tmp_path / "ds")


def test_truncated_samples_is_load_error(tmp_path):
    train, _ = gen_blobs(3, 4, seed=0)
    save_dataset(train, tmp_path / "ds")
    raw = (tmp_path / "ds" / "samples.bin").read_bytes()
    (tmp_path / "ds" / "samples.bin").write_bytes(raw[:-8])
    message = f"^truncated samples.bin: {len(raw) - 8} bytes left, {len(raw)} needed$"
    with pytest.raises(DataError, match=message):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("name", ["samples.bin", "labels.bin", "masks/masks.bin"])
def test_bytes_after_an_array_are_a_load_error(name, tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    save_dataset(test, tmp_path / "ds")
    with open(tmp_path / "ds" / name, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(DataError, match=f"^trailing bytes after {re.escape(name)}$"):
        load_dataset(tmp_path / "ds")


def test_non_finite_sample_is_load_error(tmp_path):
    train, _ = gen_blobs(3, 4, seed=0)
    save_dataset(train, tmp_path / "ds")
    raw = bytearray((tmp_path / "ds" / "samples.bin").read_bytes())
    raw[-8:] = np.array([np.inf], "<f8").tobytes()
    (tmp_path / "ds" / "samples.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="^samples.bin holds non-finite values$"):
        load_dataset(tmp_path / "ds")


def test_non_binary_label_is_load_error(tmp_path):
    _, test = gen_toy(0)
    save_dataset(test, tmp_path / "ds")
    raw = bytearray((tmp_path / "ds" / "labels.bin").read_bytes())
    raw[3] = 2
    (tmp_path / "ds" / "labels.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="labels"):
        load_dataset(tmp_path / "ds")


def test_non_binary_mask_is_load_error(tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    save_dataset(test, tmp_path / "ds")
    raw = bytearray((tmp_path / "ds" / "masks" / "masks.bin").read_bytes())
    raw[0] = 7
    (tmp_path / "ds" / "masks" / "masks.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="masks"):
        load_dataset(tmp_path / "ds")


def test_abnormal_train_dir_rejected_at_load(tmp_path):
    _, test = gen_toy(0)
    save_dataset(test, tmp_path / "ds")
    manifest = (tmp_path / "ds" / "manifest").read_text()
    (tmp_path / "ds" / "manifest").write_text(
        manifest.replace("role=test", "role=train")
    )
    with pytest.raises(DataError):
        load_dataset(tmp_path / "ds")


def test_missing_manifest_is_load_error(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nothing-here")


def test_undecodable_manifest_is_load_error(tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    save_dataset(test, tmp_path / "ds")
    raw = bytearray((tmp_path / "ds" / "manifest").read_bytes())
    raw[10] ^= 0x80
    (tmp_path / "ds" / "manifest").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="manifest"):
        load_dataset(tmp_path / "ds")
