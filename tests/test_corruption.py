"""Corrupted artifacts either load or fail with their own typed error.

Each saved file is truncated and bit-flipped, then loaded again. A load
may succeed (a flipped mantissa bit still leaves a finite value), but it
must never escape with anything other than CheckpointError (checkpoints)
or DataError (dataset splits), which the CLI maps to exit 3. A split that
loads after a flip still has its masks and its role.
"""

import numpy as np
import pytest

from irfad.data import gen_blobs, load_dataset, save_dataset
from irfad.errors import CheckpointError, DataError
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
