"""Multi-step diffusion baselines for the speed/accuracy comparison.

Two scorers, one per established paradigm:

* Reconstruction: jump a sample to x_{t_start} with the closed-form
  forward marginal, run ancestral reverse transitions back to an estimate
  of x_0, and score by the mean squared reconstruction error. Off-manifold
  samples reconstruct poorly, so the error separates classes.

* Deterministic inversion: drive the sample forward to x_T with DDIM
  inversion updates and score by how atypical x_T is under the standard
  Gaussian (its quadratic negative log-likelihood term).

Both run on a uniform sub-grid of the schedule, tau_k = round(k * span /
steps), and consume exactly `steps` network evaluations per sample. The
reverse transition mean uses the per-step factor (1 - beta_eff) under the
first root and the cumulative (1 - abar) under the second; the transition
variance is beta_eff, and the final reverse step injects no noise so the
chain ends deterministically.

Both functions process (B, d) matrices and return one score per row; a
counter, when given, gains one evaluation per row per step.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ParameterError, ShapeError
from .net import EvalCounter, NoisePredictor, predict_noise
from .schedule import NoiseSchedule, check_step, q_sample

DEFAULT_RECON_T_START = 500
DEFAULT_RECON_STEPS = 50
DEFAULT_DDIM_STEPS = 3


def substep_grid(span: int, steps: int) -> np.ndarray:
    """Uniform sub-schedule 0 = tau_0 < ... < tau_steps = span."""
    if steps < 1 or steps > span:
        raise ParameterError(f"steps {steps} outside [1, {span}]")
    taus = np.round(np.arange(steps + 1) * (span / steps)).astype(np.intp)
    taus[0], taus[-1] = 0, span
    if np.any(np.diff(taus) < 1):
        raise ParameterError(f"steps {steps} too fine for span {span}")
    return taus


def _as_batch(net: NoisePredictor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.d:
        raise ShapeError(f"batch shape {x.shape} incompatible with d={net.spec.d}")
    return x


def reconstruct_batch(
    net: NoisePredictor,
    schedule: NoiseSchedule,
    x0: np.ndarray,
    t_start: int,
    steps: int,
    noise: Iterable[np.ndarray],
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Per-row mean squared reconstruction error of a (B, d) batch.

    `noise` yields the chain's `steps` (B, d) slots once, in draw order:
    the jump noise, then the noise of reverse steps 1 .. steps - 1. Each
    slot is taken just before it is read, so a generator may still be
    drawing later ones. A missing or misshapen slot raises ShapeError
    before the chain reads past it, a leftover slot after the last step.
    """
    t_start = check_step(t_start, schedule.T)
    x0 = _as_batch(net, x0)
    taus = substep_grid(t_start, steps)
    slots = iter(noise)

    def slot(j: int) -> np.ndarray:
        z = next(slots, None)
        if z is None:
            raise ShapeError(f"noise has {j} slots, the chain needs {steps}")
        if np.shape(z) != x0.shape:
            raise ShapeError(f"noise slot {j} has shape {np.shape(z)}, not the batch's {x0.shape}")
        return z

    xt = q_sample(schedule, x0, t_start, slot(0))
    for k in range(steps, 0, -1):
        t_hi, t_lo = int(taus[k]), int(taus[k - 1])
        abar_hi = schedule.alpha_bar(t_hi)
        abar_lo = schedule.alpha_bar(t_lo)
        beta_eff = 1.0 - abar_hi / abar_lo
        eps_hat = predict_noise(net, xt, t_hi, counter)
        xt = (xt - beta_eff / np.sqrt(1.0 - abar_hi) * eps_hat) / np.sqrt(1.0 - beta_eff)
        if k > 1:
            xt = xt + np.sqrt(beta_eff) * slot(steps - k + 1)
    if next(slots, None) is not None:
        raise ShapeError(f"noise has more than the chain's {steps} slots")
    return np.mean((x0 - xt) ** 2, axis=1)


def ddim_invert_batch(
    net: NoisePredictor,
    schedule: NoiseSchedule,
    x0: np.ndarray,
    steps: int,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Per-row score 0.5 * ||x_T||^2 after DDIM inversion of a (B, d) batch.

    Each update evaluates the predictor at the target step of the jump, so
    all evaluation times stay within [1, T].
    """
    x = _as_batch(net, x0).copy()
    taus = substep_grid(schedule.T, steps)
    for k in range(1, steps + 1):
        t_next, t_cur = int(taus[k]), int(taus[k - 1])
        abar_next = schedule.alpha_bar(t_next)
        abar_cur = schedule.alpha_bar(t_cur)
        eps_hat = predict_noise(net, x, t_next, counter)
        x0_hat = (x - np.sqrt(1.0 - abar_cur) * eps_hat) / np.sqrt(abar_cur)
        x = np.sqrt(abar_next) * x0_hat + np.sqrt(1.0 - abar_next) * eps_hat
    return 0.5 * np.sum(x * x, axis=1)
