"""One-step inverse residual fields.

The residual field of a sample at step t is the noise the trained
predictor assigns to that sample's forward state: feeding the noisy state
x_t gives the noisy-state variant, feeding the noiseless forward mean
mu(x_t) = sqrt(abar_t) x_0 gives the mean-path variant. Either way the
field comes out of exactly one network evaluation per sample; an
evaluation counter in the call context enforces this rather than trusting
it.

`irf_mean` and `irf_noisy` take one sample (x0.size == d, any shape) or a
stack of them (x0.shape[1:] holds d entries) and return delta in x0's
shape. The batched scorers in `pipeline` call them per batch, so the
one-evaluation contract covers every IRF score: a call that spends any
other number of evaluations raises ContractError, and a caller that needs
the count passes its own counter. The result holds delta only;
`MEAN_PATH` and `NOISY_STATE` name the two input conventions in
`trajectories.tsv`.

Default inference steps: t=500 for feature-map data, t=250 for the 1-D
toy problem (both overridable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .net import EvalCounter, NoisePredictor, predict_noise
from .schedule import NoiseSchedule, mean_path, q_sample

DEFAULT_T_INFER_FEATURES = 500
DEFAULT_T_INFER_TOY = 250

NOISY_STATE = "noisy_state"
MEAN_PATH = "mean_path"


@dataclass(frozen=True)
class IrfResult:
    delta: np.ndarray  # x0's shape


def _rows(net: NoisePredictor, x0: np.ndarray) -> np.ndarray:
    """x0 as an (n, d) view: one sample of d entries, or a stack of them."""
    d = net.spec.d
    if x0.size == d:
        return x0.reshape(1, d)
    if x0.ndim >= 2 and math.prod(x0.shape[1:]) == d:
        return x0.reshape(x0.shape[0], d)
    raise ShapeError(f"input shape {x0.shape} holds neither one sample nor a stack of d={d}")


def _field(net, state, t, counter, shape) -> IrfResult:
    """One network evaluation per row of `state`, checked on the counter;
    delta comes back in `shape`."""
    counter = counter if counter is not None else EvalCounter()
    before = counter.count
    delta = predict_noise(net, state, t, counter)
    nfe = counter.count - before
    if nfe != len(state):
        raise ContractError(f"IRF consumed {nfe} network evaluations for {len(state)} samples")
    return IrfResult(delta=delta.reshape(shape))


def irf_noisy(
    net: NoisePredictor,
    schedule: NoiseSchedule,
    x0: np.ndarray,
    t: int,
    eps: np.ndarray,
    counter: EvalCounter | None = None,
) -> IrfResult:
    """Residual field under noisy-state input x_t = sqrt(abar) x0 + sqrt(1-abar) eps.

    The caller supplies eps explicitly and thereby controls the randomness;
    with eps = 0 this coincides with the mean-path variant.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ShapeError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    rows = _rows(net, x0)
    state = q_sample(schedule, rows, t, eps.reshape(rows.shape))
    return _field(net, state, t, counter, x0.shape)


def irf_mean(
    net: NoisePredictor,
    schedule: NoiseSchedule,
    x0: np.ndarray,
    t: int,
    counter: EvalCounter | None = None,
) -> IrfResult:
    """Residual field under mean-path input mu(x_t) = sqrt(abar_t) x0.

    Deterministic: a pure function of (net, x0, t).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    state = mean_path(schedule, _rows(net, x0), t)
    return _field(net, state, t, counter, x0.shape)
