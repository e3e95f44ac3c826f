"""Noise-regression training loop.

Each step draws a batch of clean samples, a per-sample step index t
uniform on {1..T} and per-sample Gaussian noise, forms the noisy state
with the closed-form forward marginal, and regresses the network output
onto the injected noise under mean squared error. Updates use AdamW:
bias-corrected first/second moments, then decoupled weight decay.

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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"Adam eps must be finite and > 0, got {self.eps}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ParameterError("moment decay rates must lie in (0, 1)")


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


def optimizer_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], AdamState]:
    """One AdamW update, in place on `params` and `state`."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params/grads/state length mismatch")
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape}")
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps))
        p -= cfg.lr * cfg.weight_decay * p
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
            features = np.concatenate([xt, time_embedding(t, net.spec.m)], axis=1)

            try:
                # overflow surfaces as a non-finite loss, handled right below
                with np.errstate(over="ignore", invalid="ignore"):
                    tape = Tape()
                    pnodes = [tape.leaf(p, param=True) for p in net.params]
                    pred = net.forward_tape(tape, tape.leaf(features), pnodes)
                    loss = tape.mean_squared_error(pred, tape.leaf(eps))
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
