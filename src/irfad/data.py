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
  manifest          key=value lines: format_version, role (train or test),
                    count, shape, has_masks (true or false), mask_shape
                    (when annotated), prov.* provenance entries
  samples.bin       count * prod(shape) finite float64, little-endian, row-major
  labels.bin        count bytes, 0 = normal, 1 = abnormal
  masks/masks.bin   count * H * W bytes of 0 or 1 (only when pixel-annotated)
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
        if self.role not in ("train", "test"):
            raise DataError(f"role must be 'train' or 'test', got {self.role!r}")
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
            fields = self.samples.shape[2:] if self.samples.ndim == 4 else (1, 1)
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
    Every file irfad writes goes through here.
    """
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def parse_key_values(text: str, where: str) -> dict[str, str]:
    """The stripped `key=value` lines of `text`, split at line feeds only.

    Blank and `#` lines are skipped; any other line needs a key and `=`,
    else DataError("<where>:<line>: expected key=value, got '<line>'").
    A repeated key's last value wins. Configs, manifests and checkpoint
    headers all go through here.
    """
    items = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise DataError(f"{where}:{lineno}: expected key=value, got {line!r}")
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


def format_key_values(items, where: str | os.PathLike) -> bytes:
    """One UTF-8 `key=value` line per (key, value) pair. A key or value that
    holds a line break would not read back: DataError naming `where`."""
    lines = [f"{key}={value}" for key, value in items]
    for line in lines:
        if "\n" in line or "\r" in line:
            raise DataError(f"{where}: line break in {line!r}")
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def write_key_values(path: str | os.PathLike, items) -> None:
    """`format_key_values(items)`, written to `path` through atomic_write."""
    atomic_write(path, format_key_values(items, path))


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty text is the empty tuple.
    ValueError on an empty entry or a non-integer one."""
    return tuple(int(part) for part in text.split(",")) if text else ()


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    items = [
        ("format_version", _FORMAT_VERSION),
        ("role", dataset.role),
        ("count", len(dataset)),
        ("shape", ",".join(str(s) for s in dataset.sample_shape)),
        ("has_masks", "true" if dataset.masks is not None else "false"),
    ]
    if dataset.masks is not None:
        items.append(("mask_shape", f"{dataset.masks.shape[1]},{dataset.masks.shape[2]}"))
    items += [(f"prov.{key}", value) for key, value in sorted(dataset.provenance.items())]
    samples = np.ascontiguousarray(dataset.samples, "<f8").tobytes()
    atomic_write(os.path.join(path, "samples.bin"), samples)
    atomic_write(os.path.join(path, "labels.bin"), dataset.labels.tobytes())
    if dataset.masks is not None:
        os.makedirs(os.path.join(path, "masks"), exist_ok=True)
        atomic_write(os.path.join(path, "masks", "masks.bin"), dataset.masks.tobytes())
    write_key_values(os.path.join(path, "manifest"), items)


def _read_array(path: str, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """File `name` of split directory `path`, read into a fresh array of `shape`.

    The file size must equal the array's byte count; it is compared before
    anything is allocated, so a corrupt manifest count costs no large array.
    """
    fpath = os.path.join(path, name)
    if not os.path.exists(fpath):
        raise DataError(f"missing {name} in {path}")
    if any(n < 0 for n in shape):
        raise DataError(f"bad manifest in {path}: negative size in {name} shape {shape}")
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    with open(fpath, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != nbytes:
            raise DataError(f"{name} has {size} bytes, expected {nbytes}")
        out = np.empty(shape, dtype=dtype)
        if fh.readinto(out) != nbytes:  # the file shrank after fstat
            raise DataError(f"{name} has fewer than {nbytes} bytes")
    return out


def load_dataset(path: str | os.PathLike) -> Dataset:
    path = os.fspath(path)
    manifest = read_key_values(os.path.join(path, "manifest"))
    try:
        if int(manifest["format_version"]) != _FORMAT_VERSION:
            raise DataError(f"unsupported dataset format {manifest['format_version']}")
        count = int(manifest["count"])
        shape = parse_ints(manifest["shape"])
        has_masks = manifest["has_masks"]
        role = manifest["role"]
        if has_masks == "true":
            mask_shape = parse_ints(manifest["mask_shape"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"bad manifest in {path}: {exc}") from exc
    if has_masks not in ("true", "false"):
        raise DataError(f"bad manifest in {path}: has_masks={has_masks!r}")

    samples = _read_array(path, "samples.bin", (count, *shape), "<f8")
    if not np.all(np.isfinite(samples)):
        raise DataError(f"samples.bin in {path} holds non-finite values")
    labels = _read_array(path, "labels.bin", (count,), np.uint8)
    masks = None
    if has_masks == "true":
        masks_bin = os.path.join("masks", "masks.bin")
        masks = _read_array(path, masks_bin, (count, *mask_shape), np.uint8)
    provenance = {
        key[len("prov.") :]: value
        for key, value in manifest.items()
        if key.startswith("prov.")
    }
    return Dataset(
        samples=samples, labels=labels, masks=masks, provenance=provenance, role=role
    )
