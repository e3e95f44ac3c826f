"""Corrupted artifacts either load or fail with their own typed error.

Each saved file is truncated and bit-flipped, then loaded again. A load
may succeed (a flipped mantissa bit still leaves a finite value), but it
must never escape with anything other than CheckpointError (checkpoints)
or DataError (dataset splits), which the CLI maps to exit 3. A split that
loads after a flip still has its masks and its role. Below both loaders,
`data.read_array` returns exactly the bytes it was asked for or raises
DataError, and a size it cannot find in the file is refused before it is
allocated.
"""

import dataclasses
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad.data import format_key_values, gen_blobs, load_dataset, read_array, save_dataset
from irfad.errors import CheckpointError, CorruptCheckpointError, DataError
from irfad.net import NoisePredictor, load_checkpoint, save_checkpoint
from irfad.rng import make_rng
from irfad.schedule import linear_schedule


def corruptions(raw: bytes, positions):
    """Every single-bit flip at `positions`, then a few truncations."""
    for pos in positions:
        for bit in range(8):
            out = bytearray(raw)
            out[pos] ^= 1 << bit
            yield f"byte {pos} bit {bit}", bytes(out)
    for length in sorted({0, 1, len(raw) // 2, len(raw) - 1}):
        yield f"truncated to {length}", raw[:length]


def escapes(path, positions, load, allowed):
    """Corrupt `path` every way in turn; return the loads that raised
    anything outside `allowed`. The file is restored afterwards."""
    raw = path.read_bytes()
    found = []
    for what, variant in corruptions(raw, positions):
        path.write_bytes(variant)
        try:
            load()
        except allowed:
            pass
        except Exception as exc:  # noqa: BLE001 -- any other type is the failure
            found.append(f"{path.name} {what}: {type(exc).__name__}: {exc}")
    path.write_bytes(raw)
    return found


def test_corrupted_checkpoint_loads_or_raises_checkpoint_error(tmp_path):
    schedule = linear_schedule(1000)
    net = NoisePredictor.create(3, (16, 16), 8, schedule, seed=7)
    rng = make_rng(5, "test-corruption")
    net.params = [rng.standard_normal(p.shape) for p in net.params]
    path = tmp_path / "net.bin"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    # magic, version, header length and JSON byte by byte; a spread of
    # parameter bytes, the last one (a sign and exponent byte) included
    positions = [*range(header_end), *range(header_end, len(raw), 29), len(raw) - 1]
    found = escapes(path, positions, lambda: load_checkpoint(path, schedule), CheckpointError)
    assert found == []


def test_corrupted_dataset_loads_or_raises_data_error(tmp_path):
    _, test = gen_blobs(2, 4, seed=0)
    root = tmp_path / "ds"
    save_dataset(test, root)

    def load_whole():
        loaded = load_dataset(root)
        assert loaded.role == test.role
        assert loaded.masks is not None

    strides = {"manifest": 1, "labels.bin": 1, "samples.bin": 61, "masks/masks.bin": 31}
    found = []
    for name, stride in strides.items():
        path = root / name
        size = path.stat().st_size
        positions = [*range(0, size, stride), size - 1]
        found += escapes(path, positions, load_whole, DataError)
    assert found == []
    assert np.array_equal(load_dataset(root).samples, test.samples)
    # bit 2 of the "r" in has_masks=true gives "tvue", bit 0 of the last "t"
    # in role=test gives "tesu"
    manifest = root / "manifest"
    text = manifest.read_text()
    for good, bad in (("has_masks=true", "has_masks=tvue"), ("role=test", "role=tesu")):
        manifest.write_text(text.replace(good, bad))
        with pytest.raises(DataError, match=bad.split("=")[0]):
            load_dataset(root)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(0, 5) | st.just(-1), max_size=3).map(tuple),
    dtype=st.sampled_from(["<f8", "uint8"]),
    before=st.integers(0, 9),
    data=st.data(),
)
def test_read_array_returns_the_file_bytes_or_raises_data_error(shape, dtype, before, data):
    # the array starts `before` bytes into the file, and the file is cut
    # short (k < 0) or extended (k > 0) by |k| bytes after them
    nbytes = max(0, math.prod(shape)) * np.dtype(dtype).itemsize
    k = data.draw(st.integers(-nbytes, 9), label="k")
    if dtype == "<f8":  # finite values, with one nan or infinity in most arrays
        values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=nbytes // 8, max_size=nbytes // 8)), "<f8")
        if values.size:
            poison = data.draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
            if poison is not None:
                values[data.draw(st.integers(0, values.size - 1))] = poison
        body = values.tobytes()
    else:
        body = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
    raw = data.draw(st.binary(min_size=before, max_size=before)) + body
    raw = raw[: len(raw) + k] if k < 0 else raw + bytes(k)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.bin")
        with open(path, "wb") as fh:
            fh.write(raw)
        with open(path, "rb") as fh:
            fh.read(before)
            try:
                got = read_array(fh, shape, dtype, "a.bin")
            except DataError as exc:
                assert "a.bin" in str(exc)
                got = None
            end = fh.tell()
    if any(n < 0 for n in shape) or k < 0:
        assert got is None
        return
    want = np.frombuffer(raw[before : before + nbytes], dtype).reshape(shape)
    if dtype == "<f8" and not np.isfinite(want).all():
        assert got is None
        return
    assert got is not None and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.base is None
    assert end == before + nbytes


@settings(max_examples=25, deadline=None)
@given(widths=st.lists(st.integers(1, 10**6), min_size=1, max_size=3))
def test_checkpoint_implying_more_parameter_bytes_than_it_holds_is_refused(widths):
    schedule = linear_schedule(100)
    net = NoisePredictor.create(3, (16, 16), 8, schedule, seed=7)
    spec = dataclasses.replace(net.spec, hidden=tuple(widths))
    shapes = [s for pair in NoisePredictor.layer_shapes(spec) for s in pair]
    implied = [8 * math.prod(shape) for shape in shapes]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.bin")
        save_checkpoint(net, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        hlen = int.from_bytes(raw[8:12], "little")
        header = format_key_values(vars(spec).items(), "header")
        params = raw[12 + hlen :]
        with open(path, "wb") as fh:
            fh.write(raw[:8] + len(header).to_bytes(4, "little") + header + params)
        if sum(implied) <= len(params):
            return  # small enough to fit: no claim
        tracemalloc.start()
        try:
            with pytest.raises(CorruptCheckpointError, match="truncated parameter data"):
                load_checkpoint(path, schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < len(params) + (1 << 16)  # no more than the file holds is read
    if implied[0] >= 1 << 16:
        assert peak < 1 << 16  # a first parameter past the file is never allocated
