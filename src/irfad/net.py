"""The parametric noise function: an MLP with a sinusoidal time embedding.

The network maps a (flattened) state x and a step index t to a predicted
noise vector of the same dimension as x. The step enters through a fixed
sinusoidal embedding concatenated to x; since the embedding carries no
parameters, the concatenation happens outside the autodiff graph.

Inference has one entry point, `predict_noise`. Every row of a call shares
one step t, so layer 0's product with the embedding columns is the same
for all rows: it is folded into the layer-0 bias once per (net, t), and the
kernel multiplies x by the first d rows of W0 only.

The output layer is zero-initialized so a fresh network predicts zero
noise; hidden layers use variance-scaled Gaussian init.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .data import atomic_write
from .errors import (
    CheckpointVersionError,
    CorruptCheckpointError,
    NumericError,
    ParameterError,
    ScheduleMismatchError,
    ShapeError,
)
from .grad import Node, Tape, silu_denominator
from .rng import make_rng
from .schedule import NoiseSchedule, check_step

CHECKPOINT_MAGIC = b"IRFN"
CHECKPOINT_VERSION = 1

_EMBED_MAX_PERIOD = 10000.0


def time_embedding(t, m: int) -> np.ndarray:
    """Sinusoidal step embedding with interleaved sin/cos features.

    Frequencies are geometrically spaced from 1 down to 1/max_period:
    emb[2i] = sin(t * f_i), emb[2i+1] = cos(t * f_i) with
    f_i = max_period^(-i / (m/2)). Entries lie in [-1, 1] and the map is a
    pure function of (t, m).
    """
    if m < 2 or m % 2 != 0:
        raise ParameterError(f"embedding dim must be even and >= 2, got {m}")
    t = np.asarray(t, dtype=np.float64)
    half = m // 2
    freqs = np.exp(-math.log(_EMBED_MAX_PERIOD) * np.arange(half) / half)
    angles = t[..., None] * freqs
    out = np.empty(t.shape + (m,), dtype=np.float64)
    out[..., 0::2] = np.sin(angles)
    out[..., 1::2] = np.cos(angles)
    return out


class EvalCounter:
    """Counts per-sample network evaluations within one scoring context.

    Lives in the caller's scope rather than in global state so concurrent
    scoring runs count independently. A batched forward over n rows counts
    as n evaluations.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


@dataclass(frozen=True)
class NetSpec:
    """Architecture and schedule binding, persisted in checkpoints."""

    d: int
    hidden: tuple[int, ...]
    m: int
    T: int
    beta_start: float
    beta_end: float
    seed: int


class NoisePredictor:
    """MLP noise predictor; immutable at inference time.

    Parameters are stored as [W0, b0, W1, b1, ..., Wout, bout] with
    Wk of shape (fan_in, fan_out). Only the trainer mutates them, in place
    on a fresh copy that has served no inference yet.
    """

    def __init__(self, spec: NetSpec, params: list[np.ndarray]):
        expected = [s for pair in self.layer_shapes(spec) for s in pair]
        got = [p.shape for p in params]
        if got != expected:
            raise ShapeError(f"parameter shapes {got} != expected {expected}")
        self.spec = spec
        self.params = params

    @property
    def params(self) -> list[np.ndarray]:
        return self._params

    @params.setter
    def params(self, params: list[np.ndarray]) -> None:
        self._params = params
        # step -> read-only folded layer-0 bias, filled by folded_bias
        self._folded: dict[int, np.ndarray] = {}

    @staticmethod
    def layer_shapes(spec: NetSpec) -> list[tuple[tuple[int, int], tuple[int]]]:
        dims = [spec.d + spec.m, *spec.hidden, spec.d]
        return [((dims[i], dims[i + 1]), (dims[i + 1],)) for i in range(len(dims) - 1)]

    @classmethod
    def create(
        cls,
        d: int,
        hidden: tuple[int, ...],
        m: int,
        schedule: NoiseSchedule,
        seed: int,
    ) -> "NoisePredictor":
        if d < 1 or any(h < 1 for h in hidden):
            raise ParameterError("layer widths must be positive")
        if m < 2 or m % 2 != 0:
            raise ParameterError(f"embedding dim must be even and >= 2, got {m}")
        if schedule.beta_start is None or schedule.beta_end is None:
            raise ParameterError("network creation requires a parameterized schedule")
        spec = NetSpec(
            d=int(d),
            hidden=tuple(int(h) for h in hidden),
            m=int(m),
            T=schedule.T,
            beta_start=schedule.beta_start,
            beta_end=schedule.beta_end,
            seed=int(seed),
        )
        rng = make_rng(seed, "net-init")
        params: list[np.ndarray] = []
        shapes = cls.layer_shapes(spec)
        for i, (w_shape, b_shape) in enumerate(shapes):
            last = i == len(shapes) - 1
            if last:
                w = np.zeros(w_shape)
            else:
                w = rng.standard_normal(w_shape) * math.sqrt(2.0 / w_shape[0])
            params.append(w)
            params.append(np.zeros(b_shape))
        return cls(spec, params)

    def copy(self) -> "NoisePredictor":
        return NoisePredictor(self.spec, [p.copy() for p in self.params])

    # -- forward passes ---------------------------------------------------

    def folded_bias(self, t) -> np.ndarray:
        """Layer-0 bias with step t's embedding folded in: b0 + emb(t) @ W0[d:].

        t must be one integer in [1, T]. Computed once per step and kept
        read-only, since every caller shares it.
        """
        step = check_step(t, self.spec.T)
        bias = self._folded.get(step)
        if bias is None:
            emb = time_embedding(step, self.spec.m)
            bias = self.params[1] + emb @ self.params[0][self.spec.d :]
            bias.flags.writeable = False
            self._folded[step] = bias
        return bias

    def forward_features(self, x: np.ndarray, *, bias0: np.ndarray) -> np.ndarray:
        """Inference forward of (n, d) rows, given layer 0's folded bias.

        Layer 0 reads the d input columns only; the step embedding's share
        of the pre-activation is already in `bias0` (see `folded_bias`).
        SiLU divides h in place by `silu_denominator(h)`, the helper the
        training tape's `silu` uses too.
        """
        params = self.params
        h = x @ params[0][: self.spec.d]
        h += bias0
        for w, b in zip(params[2::2], params[3::2]):
            h /= silu_denominator(h)
            h = h @ w
            h += b
        return h

    def forward_tape(self, tape: Tape, x2_node: Node, param_nodes: list[Node]) -> Node:
        """Same computation recorded on a tape for training."""
        h = x2_node
        n_layers = len(param_nodes) // 2
        for i in range(n_layers - 1):
            h = tape.silu(tape.affine(h, param_nodes[2 * i], param_nodes[2 * i + 1]))
        return tape.affine(h, param_nodes[-2], param_nodes[-1])


def predict_noise(
    net: NoisePredictor,
    x: np.ndarray,
    t,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Evaluate the noise predictor at (x, t): the one inference path.

    x may be a single vector of length d or a batch (n, d); t is one
    integer step in [1, T] shared by every row. Input is checked here and
    nowhere else on the way to the kernel. Pure function of
    (parameters, x, t).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.ndim != 2 or xb.shape[1] != net.spec.d:
        raise ShapeError(f"input shape {x.shape} incompatible with d={net.spec.d}")
    if not np.all(np.isfinite(xb)):
        raise NumericError("non-finite network input")
    out = net.forward_features(xb, bias0=net.folded_bias(t))
    if counter is not None:
        counter.add(xb.shape[0])
    return out[0] if single else out


# -- checkpoint container -------------------------------------------------
#
# Layout (all integers little-endian):
#   bytes 0..3   magic "IRFN"
#   bytes 4..7   uint32 format version
#   bytes 8..11  uint32 header length L
#   bytes 12..   L bytes of UTF-8 JSON: {d, hidden, m, T, beta_start,
#                beta_end, seed, param_shapes}
#   then the parameter arrays, raw float64 little-endian, row-major, in
#   declared layer order [W0, b0, W1, b1, ..., Wout, bout].


def save_checkpoint(net: NoisePredictor, path: str | os.PathLike) -> None:
    for p in net.params:
        if not np.all(np.isfinite(p)):
            raise NumericError("refusing to save non-finite parameters")
    header = {
        "d": net.spec.d,
        "hidden": list(net.spec.hidden),
        "m": net.spec.m,
        "T": net.spec.T,
        "beta_start": net.spec.beta_start,
        "beta_end": net.spec.beta_end,
        "seed": net.spec.seed,
        "param_shapes": [list(p.shape) for p in net.params],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
    buf.write(len(blob).to_bytes(4, "little"))
    buf.write(blob)
    for p in net.params:
        buf.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
    atomic_write(path, buf.getvalue())


def _integer(header: dict, key: str, low: int | None = None) -> int:
    value = header[key]
    if type(value) is not int or (low is not None and value < low):  # bool is not int
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{key} must be an integer{bound}, got {value!r}")
    return value


def _header_spec(header) -> NetSpec:
    """The NetSpec a checkpoint header records; ValueError if a field is mistyped
    or out of range."""
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    hidden = header["hidden"]
    if not isinstance(hidden, list) or any(type(h) is not int or h < 1 for h in hidden):
        raise ValueError(f"hidden must be a list of integers >= 1, got {hidden!r}")
    m = _integer(header, "m", 2)
    if m % 2 != 0:
        raise ValueError(f"m must be even, got {m}")
    for key in ("beta_start", "beta_end"):
        if type(header[key]) not in (int, float) or not math.isfinite(header[key]):
            raise ValueError(f"{key} must be a finite number, got {header[key]!r}")
    return NetSpec(
        d=_integer(header, "d", 1),
        hidden=tuple(hidden),
        m=m,
        T=_integer(header, "T", 1),
        beta_start=header["beta_start"],
        beta_end=header["beta_end"],
        seed=_integer(header, "seed"),
    )


def load_checkpoint(
    path: str | os.PathLike, schedule: NoiseSchedule | None = None
) -> NoisePredictor:
    """Load a checkpoint; refuses version or schedule mismatches.

    When `schedule` is given, its T (and beta range, when parameterized)
    must match the values recorded at save time. A header that is not a
    JSON object or holds a mistyped or out-of-range field (`_header_spec`),
    parameter shapes that disagree with the recorded d, hidden and m, and
    non-finite parameters make the file corrupt.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint file")
    version = int.from_bytes(raw[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
        )
    hlen = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + hlen:
        raise CorruptCheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
        spec = _header_spec(header)
        shapes = [tuple(s) for s in header["param_shapes"]]
        expected = [s for pair in NoisePredictor.layer_shapes(spec) for s in pair]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable header ({exc})") from exc
    if shapes != expected:
        raise CorruptCheckpointError(
            f"{path}: param_shapes {shapes} do not fit d, hidden and m ({expected})"
        )
    if schedule is not None:
        mismatches = []
        if schedule.T != spec.T:
            mismatches.append(f"T {schedule.T} != {spec.T}")
        if schedule.beta_start is not None and schedule.beta_start != spec.beta_start:
            mismatches.append(f"beta_start {schedule.beta_start} != {spec.beta_start}")
        if schedule.beta_end is not None and schedule.beta_end != spec.beta_end:
            mismatches.append(f"beta_end {schedule.beta_end} != {spec.beta_end}")
        if mismatches:
            raise ScheduleMismatchError(f"{path}: {'; '.join(mismatches)}")
    offset = 12 + hlen
    params = []
    for shape in expected:
        nbytes = int(np.prod(shape)) * 8
        chunk = raw[offset : offset + nbytes]
        if len(chunk) < nbytes:
            raise CorruptCheckpointError(f"{path}: truncated parameter data")
        param = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        if not np.all(np.isfinite(param)):
            raise CorruptCheckpointError(f"{path}: non-finite parameter values")
        params.append(param)
        offset += nbytes
    if offset != len(raw):
        raise CorruptCheckpointError(f"{path}: trailing bytes after parameters")
    return NoisePredictor(spec, params)
