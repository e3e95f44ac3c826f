"""Noise-regression training loop.

Each step draws a batch of clean samples, a per-sample step index t
uniform on {1..T} and per-sample Gaussian noise, forms the noisy state
with the closed-form forward marginal, and regresses the network output
onto the injected noise under mean squared error. Updates use AdamW
(Loshchilov & Hutter, 2019): bias-corrected first/second moments, then
decoupled weight decay. The moment decay rates and the denominator's
epsilon are AdamW's usual defaults, fixed as the constants ADAM_BETA1,
ADAM_BETA2 and ADAM_EPS; the learning rate and weight decay are settable.
The update runs in place over L2-sized slices of each tensor, through two
scratch arrays allocated once per step, with the bits of the whole-array
formula. A step drops the previous step's gradients before its backward
pass, so one gradient set is alive at a time.

With a fixed seed the run is bitwise reproducible: all draws come from a
single counter-based stream in a documented order (per epoch: one
permutation, then per batch t-steps followed by noise).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, TrainingDivergedError
from .grad import Tape
from .net import NoisePredictor, time_embedding
from .rng import make_rng
from .schedule import NoiseSchedule, q_sample

ADAM_BETA1 = 0.9  # first-moment decay rate
ADAM_BETA2 = 0.999  # second-moment decay rate
ADAM_EPS = 1e-8  # added to sqrt(v_hat) in the update's denominator
_CHUNK = 2**15  # elements per optimizer slice: 256 KiB of float64, six fit in a 2 MiB L2


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    Defaults are the desk-scale toy settings; benchmark-scale runs
    (300 epochs, batch 32) are reachable through the same fields.
    """

    epochs: int = 200
    batch_size: int = 256
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ParameterError(f"learning rate must be finite and >= 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(
                f"weight decay must be finite and >= 0, got {self.weight_decay}"
            )


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def _slices(shape: tuple[int, ...]):
    """Index tuples that cover an array of `shape` in views of at most
    _CHUNK elements each: runs of whole leading-axis rows where a row fits,
    else each row split the same way along its own axes."""
    if not shape:
        yield (Ellipsis,)
        return
    n, row = shape[0], math.prod(shape[1:])
    if row <= _CHUNK:
        step = _CHUNK // max(row, 1)
        for start in range(0, n, step):
            yield (slice(start, start + step),)
    else:
        for i in range(n):
            for rest in _slices(shape[1:]):
                yield (i, *rest)


def optimizer_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], AdamState]:
    """One AdamW update with the ADAM_* constants, in place on `params` and `state`.

    Each tensor is swept in views of at most _CHUNK elements, so the slices
    of p, g, m and v and the two scratch arrays stay in one core's L2 cache
    through all of a slice's passes. Every element gets the IEEE operations
    of the whole-array formula, in its order:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps)), then p -= (lr*wd) * p.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params/grads/state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    decay = cfg.lr * cfg.weight_decay
    size = min(_CHUNK, max((p.size for p in params), default=0))
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        for index in _slices(p.shape):
            ps, gs, ms, vs = p[index], g[index], m[index], v[index]
            a = scratch_a[: ps.size].reshape(ps.shape)
            b = scratch_b[: ps.size].reshape(ps.shape)
            ms *= ADAM_BETA1
            np.multiply(gs, 1.0 - ADAM_BETA1, out=a)
            ms += a
            vs *= ADAM_BETA2
            np.multiply(gs, gs, out=a)
            a *= 1.0 - ADAM_BETA2
            vs += a
            np.divide(ms, bc1, out=a)
            np.divide(vs, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            a *= cfg.lr
            ps -= a
            np.multiply(ps, decay, out=a)
            ps -= a
    return params, state


def train(
    net: NoisePredictor,
    data,
    schedule: NoiseSchedule,
    cfg: TrainConfig,
) -> tuple[NoisePredictor, TrainLog]:
    """Fit the noise predictor on normal samples; returns a trained copy.

    `data` is a Dataset of normal samples or a plain (n, ...) array; the
    input net is left untouched.
    """
    samples = np.asarray(getattr(data, "samples", data), dtype=np.float64)
    if samples.ndim < 2 or samples.shape[0] == 0:
        raise ParameterError("training data must be a non-empty (n, ...) array")
    x0 = samples.reshape(samples.shape[0], -1)
    n, d = x0.shape
    if d != net.spec.d:
        raise ShapeError(f"data dim {d} != net dim {net.spec.d}")

    net = net.copy()
    state = AdamState.zeros_like(net.params)
    rng = make_rng(cfg.seed, "train")
    log = TrainLog()
    # row t-1 holds time_embedding(t, m), bit for bit: the map is elementwise in t
    embed_table = time_embedding(np.arange(1, schedule.T + 1), net.spec.m)
    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = x0[idx]
            t = rng.integers(1, schedule.T + 1, size=idx.size)
            eps = rng.standard_normal(xb.shape)
            xt = q_sample(schedule, xb, t, eps)
            features = np.concatenate([xt, embed_table[t - 1]], axis=1)

            try:
                # overflow surfaces as a non-finite loss, handled right below
                with np.errstate(over="ignore", invalid="ignore"):
                    tape = Tape()
                    pnodes = [tape.leaf(p, param=True) for p in net.params]
                    pred = net.forward_tape(tape, tape.leaf(features), pnodes)
                    loss = tape.mean_squared_error(pred, tape.leaf(eps))
                    grads = None  # the last step's gradients go before this step's are formed
                    grads = tape.backward(loss)
            except NumericError as exc:
                raise TrainingDivergedError(epoch, str(exc)) from exc
            loss_value = float(loss.value)
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(epoch, f"loss={loss_value}")
            optimizer_step(net.params, [grads[p.id] for p in pnodes], state, cfg)
            loss_sum += loss_value * idx.size
        log.epoch_losses.append(loss_sum / n)
        log.epoch_seconds.append(time.perf_counter() - tic)
    return net, log
