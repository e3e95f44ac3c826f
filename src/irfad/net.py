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

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import atomic_write, format_key_values, parse_ints, parse_key_values
from .errors import (
    CheckpointVersionError,
    CorruptCheckpointError,
    DataError,
    NumericError,
    ParameterError,
    ScheduleMismatchError,
    ShapeError,
)
from .grad import Node, Tape, silu_denominator
from .rng import make_rng
from .schedule import NoiseSchedule, check_step

CHECKPOINT_MAGIC = b"IRFN"
CHECKPOINT_VERSION = 2

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
    as n evaluations. Not locked: one counter belongs to one thread. A
    Scorer gives each of its worker threads its own counter and adds their
    sum to the caller's after the join.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


@dataclass(frozen=True)
class NetSpec:
    """Architecture and schedule binding, persisted in checkpoints.

    The one check of a spec's ranges, for a new net and a loaded one alike:
    ParameterError names the first field out of range.
    """

    d: int
    hidden: tuple[int, ...]
    m: int
    T: int
    beta_start: float
    beta_end: float
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")
        if any(h < 1 for h in self.hidden):
            raise ParameterError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.m < 2 or self.m % 2 != 0:
            raise ParameterError(f"m must be even and >= 2, got {self.m}")
        if self.T < 1:
            raise ParameterError(f"T must be >= 1, got {self.T}")
        for key in ("beta_start", "beta_end"):
            if not math.isfinite(getattr(self, key)):
                raise ParameterError(f"{key} must be finite, got {getattr(self, key)}")
        weights = [w for w, _ in NoisePredictor.layer_shapes(self)]
        if any(8 * rows * cols > np.iinfo(np.intp).max for rows, cols in weights):
            raise ParameterError(
                f"d, hidden and m give layer weights {weights} beyond the addressable size"
            )


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
        shapes = cls.layer_shapes(spec)
        rng = make_rng(seed, "net-init")
        params: list[np.ndarray] = []
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
        read-only, since every caller shares it. Two scoring threads may both
        miss and fill the same step's entry; they compute the same bits, so
        the race is harmless and takes no lock.
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
        With d = 1 it is the broadcast product `x * W0[0]`: each entry is
        the one product the (n, 1) @ (1, h0) matmul forms, at half its cost.
        SiLU divides h in place by `silu_denominator(h)`, the helper the
        training tape's `silu` uses too. Its expected exp overflow is
        silenced once around the whole layer loop.
        """
        params = self.params
        d = self.spec.d
        h = x * params[0][0] if d == 1 else x @ params[0][:d]
        h += bias0
        with np.errstate(over="ignore"):
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
    if not np.isfinite(xb).all():
        raise NumericError("non-finite network input")
    out = net.forward_features(xb, bias0=net.folded_bias(t))
    if counter is not None:
        counter.add(xb.shape[0])
    return out[0] if single else out


# -- checkpoint container -------------------------------------------------
#
# Layout (all integers little-endian):
#   bytes 0..3   magic "IRFN"
#   bytes 4..7   uint32 format version (2)
#   bytes 8..11  uint32 header length L
#   bytes 12..   L bytes of UTF-8 `key=value` lines (data.format_key_values):
#                d, hidden (comma-separated, empty for none), m, T,
#                beta_start, beta_end (repr of the float), seed
#   then the parameter arrays, raw float64 little-endian, row-major, in
#   declared layer order [W0, b0, W1, b1, ..., Wout, bout], whose shapes
#   NoisePredictor.layer_shapes derives from the header.

# each header key and its parser, in NetSpec's field order, which is the
# order save_checkpoint writes them in
_HEADER = {"d": int, "hidden": parse_ints, "m": int, "T": int,
           "beta_start": float, "beta_end": float, "seed": int}


def save_checkpoint(net: NoisePredictor, path: str | os.PathLike) -> None:
    for p in net.params:
        if not np.all(np.isfinite(p)):
            raise NumericError("refusing to save non-finite parameters")
    fields = {**vars(net.spec), "hidden": ",".join(map(str, net.spec.hidden))}
    header = format_key_values(fields.items(), path)  # a float's text is its repr
    payload = b"".join(
        [
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION.to_bytes(4, "little"),
            len(header).to_bytes(4, "little"),
            header,
            *(np.ascontiguousarray(p, dtype="<f8") for p in net.params),
        ]
    )
    atomic_write(path, payload)


def _header_spec(text: str, where: str) -> NetSpec:
    """The NetSpec a checkpoint header records. A missing key is a KeyError,
    a bad value a ValueError or ParameterError naming its key."""
    header = parse_key_values(text, where)
    fields = {}
    for key, parse in _HEADER.items():
        try:
            fields[key] = parse(header[key])
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return NetSpec(**fields)


def load_checkpoint(
    path: str | os.PathLike, schedule: NoiseSchedule | None = None
) -> NoisePredictor:
    """Load a checkpoint; refuses version or schedule mismatches.

    When `schedule` is given, its T (and beta range, when parameterized)
    must match the values recorded at save time. A header that is not
    UTF-8 `key=value` text, lacks a key or holds a value that does not
    parse or that `NetSpec` refuses, and non-finite parameters make the
    file corrupt. The parameter shapes come from the header's d, hidden
    and m, so a header that disagrees with the payload reads as truncated
    or trailing bytes. Every length is checked against the file size
    before it is read or allocated, so a corrupt length field costs no
    large read; each parameter is read straight into its own fresh,
    aligned array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise CorruptCheckpointError(f"{path}: not a checkpoint file")
        version = int.from_bytes(head[4:8], "little")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
            )
        hlen = int.from_bytes(head[8:12], "little")
        if size < 12 + hlen:
            raise CorruptCheckpointError(f"{path}: truncated header")
        try:  # ValueError covers ParameterError and UnicodeDecodeError
            spec = _header_spec(fh.read(hlen).decode("utf-8"), f"{path} header")
        except KeyError as exc:
            raise CorruptCheckpointError(f"{path}: header has no {exc} entry") from exc
        except (ValueError, DataError) as exc:
            raise CorruptCheckpointError(f"{path}: bad header ({exc})") from exc
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
        for shape in (s for pair in NoisePredictor.layer_shapes(spec) for s in pair):
            nbytes = math.prod(shape) * 8
            if size - offset < nbytes:
                raise CorruptCheckpointError(f"{path}: truncated parameter data")
            param = np.empty(shape, dtype="<f8")
            if fh.readinto(param) != nbytes:  # the file shrank after fstat
                raise CorruptCheckpointError(f"{path}: truncated parameter data")
            if not np.all(np.isfinite(param)):
                raise CorruptCheckpointError(f"{path}: non-finite parameter values")
            params.append(param)
            offset += nbytes
        if offset != size:
            raise CorruptCheckpointError(f"{path}: trailing bytes after parameters")
        return NoisePredictor(spec, params)
