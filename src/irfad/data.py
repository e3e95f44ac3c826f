"""Dataset generation and on-disk round trip.

Two generators, both deterministic functions of a seed:

* gen_toy: 1-D data. Normal draws come from N(2.5, 0.35^2); abnormal
  draws from the mixture 0.5 N(1.5, 0.2^2) + 0.5 N(3.5, 0.22^2) with the
  component chosen by a fair coin per draw. Train split: 10,000 normal.
  Test split: 6,000 normal + 6,000 abnormal.

* gen_blobs: synthetic (c, h, w) feature maps. Normal maps are smooth
  correlated fields, built per channel from a 3x3 grid of separable
  cosine modes cos(pi*p*y/(h-1)) * cos(pi*q*x/(w-1)) with i.i.d. Gaussian
  coefficients damped by 1/(1+p+q). Abnormal maps add a constant-amplitude
  rectangle to every channel; the ground-truth mask is that rectangle
  scaled to the evaluation resolution (nearest-neighbour blocks). Draw
  order: one (n_train, c, 3, 3) normal draw of train coefficients, one
  (n_test, c, 3, 3) draw of test coefficients, then for each abnormal
  test sample its blob's row and then its column.

On-disk layout of one split directory (documented bit-exactly):
  manifest          key=value lines (format_key_values): format_version,
                    role (train or test), count, shape, has_masks (true or
                    false), mask_shape (when annotated), prov.* provenance
                    entries
  samples.bin       count * prod(shape) finite float64, little-endian, row-major
  labels.bin        count bytes, 0 = normal, 1 = abnormal
  masks/masks.bin   count * H * W bytes of 0 or 1 (only when pixel-annotated)

Each `.bin` file holds exactly its array, read by `read_array` (as is each
parameter of a checkpoint) after the manifest's sample shape is checked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .rng import make_rng

TOY_NORMAL_MEAN = 2.5
TOY_NORMAL_STD = 0.35
TOY_ABNORMAL_MEANS = (1.5, 3.5)
TOY_ABNORMAL_STDS = (0.2, 0.22)
TOY_N_TRAIN = 10_000
TOY_N_TEST_PER_CLASS = 6_000

NORMAL, ABNORMAL = 0, 1

_FORMAT_VERSION = 1


@dataclass
class Dataset:
    """Samples with labels, optional pixel masks, and provenance."""

    samples: np.ndarray  # (n, ...) float64
    labels: np.ndarray  # (n,) uint8
    masks: np.ndarray | None  # (n, H, W) uint8, present iff pixel-annotated
    provenance: dict = field(default_factory=dict)
    role: str = "test"  # "train" splits must be all-normal

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        fields = field_shape(self.samples.shape[1:])[1:]  # (h, w); refuses other shapes
        if self.role not in ("train", "test"):
            raise DataError(f"role must be 'train' or 'test', got {quote(self.role)}")
        if self.labels.shape != (self.samples.shape[0],):
            raise DataError("labels must be one per sample")
        if np.any(self.labels > ABNORMAL):
            raise DataError("labels must be 0 (normal) or 1 (abnormal)")
        if self.role == "train" and np.any(self.labels != NORMAL):
            raise DataError("train split contains abnormal samples")
        if self.masks is not None:
            self.masks = np.asarray(self.masks, dtype=np.uint8)
            if self.masks.ndim != 3 or self.masks.shape[0] != self.samples.shape[0]:
                raise DataError("masks must be (n, H, W), one per sample")
            if np.any(self.masks > 1):
                raise DataError("masks must be binary")
            if not np.all(np.greater_equal(self.masks.shape[1:], fields)):
                raise DataError(f"masks {self.masks.shape[1:]} are smaller than the fields {fields}")
            positive = self.masks.any(axis=(1, 2))
            abnormal = self.labels == ABNORMAL
            if np.any(abnormal & ~positive):
                raise DataError("abnormal sample with empty mask in annotated set")
            if np.any(positive & ~abnormal):
                raise DataError("normal sample with positive mask pixels in annotated set")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.samples.shape[1:]


def field_shape(sample_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """Samples are (c, h, w) fields; 1-D vectors degenerate to (d, 1, 1)."""
    if len(sample_shape) == 3:
        return sample_shape
    if len(sample_shape) == 1:
        return (sample_shape[0], 1, 1)
    raise DataError(f"unsupported sample shape {sample_shape}: need (d,) vectors or (c, h, w) fields")


def gen_toy(seed: int) -> tuple[Dataset, Dataset]:
    """Fixed-size 1-D toy datasets; deterministic per seed.

    Draw order within the stream: train normals, test normals, abnormal
    mixture components, abnormal values.
    """
    rng = make_rng(seed, "toy")
    train_x = rng.normal(TOY_NORMAL_MEAN, TOY_NORMAL_STD, size=(TOY_N_TRAIN, 1))
    test_norm = rng.normal(
        TOY_NORMAL_MEAN, TOY_NORMAL_STD, size=(TOY_N_TEST_PER_CLASS, 1)
    )
    comp = rng.integers(0, 2, size=TOY_N_TEST_PER_CLASS)
    means = np.asarray(TOY_ABNORMAL_MEANS)[comp]
    stds = np.asarray(TOY_ABNORMAL_STDS)[comp]
    test_abn = (means + stds * rng.standard_normal(TOY_N_TEST_PER_CLASS))[:, None]

    # provenance values are strings so the disk round trip is the identity
    prov = {"generator": "toy", "seed": str(seed)}
    train = Dataset(
        samples=train_x,
        labels=np.zeros(TOY_N_TRAIN, dtype=np.uint8),
        masks=None,
        provenance=dict(prov),
        role="train",
    )
    test = Dataset(
        samples=np.concatenate([test_norm, test_abn]),
        labels=np.concatenate(
            [
                np.zeros(TOY_N_TEST_PER_CLASS, dtype=np.uint8),
                np.ones(TOY_N_TEST_PER_CLASS, dtype=np.uint8),
            ]
        ),
        masks=None,
        provenance=dict(prov),
        role="test",
    )
    return train, test


@dataclass(frozen=True)
class BlobParams:
    """Planted-anomaly parameters for the synthetic feature-map benchmark."""

    amplitude: float = 3.0
    rows: int = 3
    cols: int = 3


def gen_blobs(
    n_train: int,
    n_test: int,
    dims: tuple[int, int, int] = (4, 8, 8),
    anomaly: BlobParams = BlobParams(),
    seed: int = 0,
    upsample_to: tuple[int, int] = (32, 32),
) -> tuple[Dataset, Dataset]:
    """Smooth-field maps with planted rectangular anomalies in half the test set.

    Draw order within the stream: one (n_train, c, 3, 3) standard-normal
    draw of train coefficients, one (n_test, c, 3, 3) draw of test
    coefficients, then for each abnormal test sample its blob's row and
    then its column.
    """
    c, h, w = dims
    if c < 1 or h < 1 or w < 1 or c * h * w > 512:
        raise ParameterError(f"dims {dims} invalid (need c*h*w <= 512)")
    if not np.isfinite(anomaly.amplitude):
        raise ParameterError(f"blob amplitude must be finite, got {anomaly.amplitude}")
    if not (1 <= anomaly.rows <= h and 1 <= anomaly.cols <= w):
        raise ParameterError(f"blob {anomaly.rows}x{anomaly.cols} does not fit {h}x{w}")
    if n_train < 1 or n_test < 2:
        raise ParameterError("need n_train >= 1 and n_test >= 2")
    H, W = upsample_to
    if H < h or W < w or H % h != 0 or W % w != 0:
        raise ParameterError(f"upsample target {upsample_to} is no positive multiple of {h}x{w}")
    sy, sx = H // h, W // w
    field_bytes = 8 * c * max(h * w, 9)  # a float64 field or its 3x3 coefficients
    limit = np.iinfo(np.intp).max
    if max(n_train, n_test) * field_bytes > limit or n_test * H * W > limit:
        raise ParameterError(
            f"{n_train} train / {n_test} test samples of {dims} exceed the addressable size"
        )

    rng = make_rng(seed, "blobs")
    n_abn = n_test // 2
    n_norm_test = n_test - n_abn

    # low-frequency cosine modes, shared by every field
    py = np.cos(np.pi * np.outer(np.arange(3), np.linspace(0, 1, h)))  # (3, h)
    px = np.cos(np.pi * np.outer(np.arange(3), np.linspace(0, 1, w)))  # (3, w)
    damp = 1.0 / (1.0 + np.add.outer(np.arange(3), np.arange(3)))

    def smooth_fields(n: int) -> np.ndarray:
        coef = rng.standard_normal((n, c, 3, 3))
        return np.einsum("nkpq,ph,qw->nkhw", coef * damp, py, px)

    train_x = smooth_fields(n_train)
    test_x = smooth_fields(n_test)
    masks = np.zeros((n_test, H, W), dtype=np.uint8)
    labels = np.zeros(n_test, dtype=np.uint8)
    for i in range(n_norm_test, n_test):
        r0 = int(rng.integers(0, h - anomaly.rows + 1))
        c0 = int(rng.integers(0, w - anomaly.cols + 1))
        test_x[i, :, r0 : r0 + anomaly.rows, c0 : c0 + anomaly.cols] += anomaly.amplitude
        masks[i, r0 * sy : (r0 + anomaly.rows) * sy, c0 * sx : (c0 + anomaly.cols) * sx] = 1
        labels[i] = ABNORMAL

    prov = {
        "generator": "blobs",
        "seed": str(seed),
        "amplitude": repr(anomaly.amplitude),
        "blob": f"{anomaly.rows}x{anomaly.cols}",
    }
    train = Dataset(
        samples=train_x,
        labels=np.zeros(n_train, dtype=np.uint8),
        masks=None,
        provenance=dict(prov),
        role="train",
    )
    test = Dataset(
        samples=test_x, labels=labels, masks=masks, provenance=dict(prov), role="test"
    )
    return train, test


# -- disk round trip --------------------------------------------------------


def atomic_write(path: str | os.PathLike, payload: bytes) -> None:
    """Write `payload` to `<path>.tmp`, then rename it over `path`.

    A reader sees the old file or the whole new one, never a partial write.
    Missing directories above `path` are made first. Every file irfad writes
    goes through here.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def quote(text: str) -> str:
    """`repr` of `text` for an error message: its first 80 characters and
    then `... (N characters)` when it is longer, so that a message stays
    one short line whatever a file or command line holds."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r}... ({len(text)} characters)"


def parse_key_values(text: str, where: str) -> dict[str, str]:
    """The stripped `key=value` lines of `text`, split at line feeds only.

    Blank and `#` lines are skipped; any other line needs a key and `=`,
    else DataError("<where>:<line>: expected key=value, got <quote(line)>").
    A repeated key's last value wins. Configs, manifests and checkpoint
    headers all go through here; `parse_entries` then types the values.
    """
    items = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise DataError(f"{where}:{lineno}: expected key=value, got {quote(line)}")
        items[key] = value
    return items


def read_key_values(path: str | os.PathLike) -> dict[str, str]:
    """`parse_key_values` of a UTF-8 text file, read with universal newlines
    (so `\\r\\n` and `\\r` end a line too); an unreadable or non-UTF-8 file
    is a DataError."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_key_values(text, path)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def format_key_values(items, where: str | os.PathLike) -> bytes:
    """One UTF-8 `key=value` line per (key, value) pair: a bool is written
    `true` or `false`, a tuple as its comma-joined entries, anything else
    by `str` (a float's is its repr). A line break in a key or value would
    not read back: DataError naming `where`."""
    lines = [f"{key}={_text(value)}" for key, value in items]
    for line in lines:
        if "\n" in line or "\r" in line:
            raise DataError(f"{where}: line break in {quote(line)}")
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def write_key_values(path: str | os.PathLike, items) -> None:
    """`format_key_values(items)`, written to `path` through atomic_write."""
    atomic_write(path, format_key_values(items, path))


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty text is the empty tuple.
    ValueError on an empty entry or a non-integer one."""
    return tuple(int(part) for part in text.split(",")) if text else ()


def parse_bool(text: str) -> bool:
    """`true` or `false`, as format_key_values writes a bool; else ValueError."""
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def parse_entries(entries: dict[str, str], parsers: dict, where: str) -> dict:
    """`parsers[key](entries[key])` for each key of `parsers`. A missing key
    is DataError("<where> has no '<key>' entry"), a ValueError from a parser
    DataError("bad <where> (<key>: cannot parse <quote(value)>)")."""
    out = {}
    for key, parse in parsers.items():
        if key not in entries:
            raise DataError(f"{where} has no {key!r} entry")
        try:
            out[key] = parse(entries[key])
        except ValueError as exc:
            raise DataError(f"bad {where} ({key}: cannot parse {quote(entries[key])})") from exc
    return out


# the parser of each key every manifest has; mask_shape follows has_masks=true
_MANIFEST = {"format_version": int, "role": str, "count": int, "shape": parse_ints,
             "has_masks": parse_bool}


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    path = os.fspath(path)
    items = [
        ("format_version", _FORMAT_VERSION),
        ("role", dataset.role),
        ("count", len(dataset)),
        ("shape", dataset.sample_shape),
        ("has_masks", dataset.masks is not None),
    ]
    if dataset.masks is not None:
        items.append(("mask_shape", dataset.masks.shape[1:]))
    items += [(f"prov.{key}", value) for key, value in sorted(dataset.provenance.items())]
    samples = np.ascontiguousarray(dataset.samples, "<f8").tobytes()
    atomic_write(os.path.join(path, "samples.bin"), samples)
    atomic_write(os.path.join(path, "labels.bin"), dataset.labels.tobytes())
    if dataset.masks is not None:
        atomic_write(os.path.join(path, "masks", "masks.bin"), dataset.masks.tobytes())
    write_key_values(os.path.join(path, "manifest"), items)


def read_array(fh, shape: tuple[int, ...], dtype, name: str) -> np.ndarray:
    """The next array of `shape` and `dtype` in the binary file `fh`, read
    into a fresh array. Its byte count is compared with the bytes left in
    the file before anything is allocated. A negative dimension, too few
    bytes and a non-finite float are each a DataError naming `name`; bytes
    after the array are the caller's to check."""
    if any(n < 0 for n in shape):
        raise DataError(f"negative size in {name} shape {shape}")
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise DataError(f"truncated {name}: {left} bytes left, {nbytes} needed")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out) != nbytes:  # the file shrank after fstat
        raise DataError(f"truncated {name}: fewer than {nbytes} bytes")
    if out.dtype.kind == "f" and not np.isfinite(out).all():
        raise DataError(f"{name} holds non-finite values")
    return out


def load_dataset(path: str | os.PathLike) -> Dataset:
    path = os.fspath(path)
    manifest = read_key_values(os.path.join(path, "manifest"))
    where = f"manifest in {path}"
    entries = parse_entries(manifest, _MANIFEST, where)
    if entries["format_version"] != _FORMAT_VERSION:
        raise DataError(f"unsupported dataset format {quote(manifest['format_version'])}")
    field_shape(entries["shape"])  # refuses a sample shape before any file is read
    count = entries["count"]
    files = {"samples.bin": ((count, *entries["shape"]), "<f8"),
             "labels.bin": ((count,), np.uint8)}
    if entries["has_masks"]:
        mask_shape = parse_entries(manifest, {"mask_shape": parse_ints}, where)["mask_shape"]
        files[os.path.join("masks", "masks.bin")] = ((count, *mask_shape), np.uint8)
    arrays = []
    for name, (shape, dtype) in files.items():
        fpath = os.path.join(path, name)
        if not os.path.exists(fpath):
            raise DataError(f"missing {name} in {path}")
        with open(fpath, "rb") as fh:
            arrays.append(read_array(fh, shape, dtype, name))
            if fh.read(1):
                raise DataError(f"trailing bytes after {name}")
    samples, labels, *masks = arrays
    provenance = {
        key[len("prov.") :]: value
        for key, value in manifest.items()
        if key.startswith("prov.")
    }
    return Dataset(samples, labels, masks[0] if masks else None, provenance, entries["role"])
