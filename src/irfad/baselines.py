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

from collections.abc import Callable, Sequence

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
    noise: Sequence[np.ndarray],
    counter: EvalCounter | None = None,
    ready: Callable[[int], None] | None = None,
) -> np.ndarray:
    """Per-row mean squared reconstruction error of a (B, d) batch.

    `noise` holds the chain's `steps` (B, d) slots in draw order (see
    `draw_recon_noise`): noise[0] is the jump noise and noise[j] the noise
    the j-th reverse step injects, j = 1 .. steps - 1, so the chain reads
    its slots in the order they are drawn. `ready(j)`, when given, is
    called before noise[j] is first read and returns once that slot has
    been drawn, so the chain can start while later slots are still being
    drawn on another thread; the scorer passes the wait on slot j's future
    in its one-thread noise executor, which re-raises a failed draw.
    """
    t_start = check_step(t_start, schedule.T)
    x0 = _as_batch(net, x0)
    taus = substep_grid(t_start, steps)
    if len(noise) != steps or any(np.shape(z) != x0.shape for z in noise):
        raise ShapeError("noise does not match batch shape or step count")
    if ready is not None:
        ready(0)
    xt = q_sample(schedule, x0, t_start, noise[0])
    for k in range(steps, 0, -1):
        t_hi, t_lo = int(taus[k]), int(taus[k - 1])
        abar_hi = schedule.alpha_bar(t_hi)
        abar_lo = schedule.alpha_bar(t_lo)
        beta_eff = 1.0 - abar_hi / abar_lo
        eps_hat = predict_noise(net, xt, t_hi, counter)
        xt = (xt - beta_eff / np.sqrt(1.0 - abar_hi) * eps_hat) / np.sqrt(1.0 - beta_eff)
        if k > 1:
            j = steps - k + 1
            if ready is not None:
                ready(j)
            xt = xt + np.sqrt(beta_eff) * noise[j]
    return np.mean((x0 - xt) ** 2, axis=1)


def draw_recon_noise(rng: np.random.Generator, out: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """Fill a chain's `steps` (B, d) slots with standard normals, in place,
    and return them; `out` may be a list of arrays or one (steps, B, d) array.

    Draw order: the jump noise out[0] first, then one slot per noise-
    injecting reverse step, out[1] .. out[steps - 1]. Filling the slots one
    call at a time, in that order, draws the same bits: the scorer's noise
    executor runs one task per slot, `draw_recon_noise(rng, [slot])`, while
    the chain reads the slots already in.
    """
    for slot in out:
        rng.standard_normal(out=slot)
    return out


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
