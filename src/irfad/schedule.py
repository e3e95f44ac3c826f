"""Diffusion noise schedule and closed-form forward-process quantities.

The forward chain q(x_t | x_{t-1}) = N(sqrt(1-beta_t) x_{t-1}, beta_t I)
has the closed-form marginal

    q(x_t | x_0) = N(sqrt(abar_t) x_0, (1 - abar_t) I),
    abar_t = prod_{s=1..t} (1 - beta_s),

so a noisy state can be drawn in one shot as
x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps, and its mean path is
mu(x_t) = sqrt(abar_t) x_0.

Conventions: steps are 1-indexed (t = 1..T); t = 0 denotes clean data and
abar_0 == 1. The cumulative products are precomputed once (scoring is the
hot path) and the schedule is immutable after construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

DEFAULT_T = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise levels beta_t and cumulative products abar_t.

    Direct construction performs no range validation so that tests can
    build degenerate schedules (e.g. beta == 0, abar == 1); use
    `linear_schedule` for checked construction.
    """

    T: int
    betas: np.ndarray  # shape (T,), betas[t-1] is beta_t
    alpha_bars: np.ndarray  # shape (T,), alpha_bars[t-1] is abar_t
    beta_start: float | None = field(default=None)
    beta_end: float | None = field(default=None)

    def __post_init__(self):
        betas = np.ascontiguousarray(self.betas, dtype=np.float64)
        abars = np.ascontiguousarray(self.alpha_bars, dtype=np.float64)
        if betas.shape != (self.T,) or abars.shape != (self.T,):
            raise ShapeError(
                f"schedule arrays must have shape ({self.T},), got "
                f"{betas.shape} and {abars.shape}"
            )
        betas.flags.writeable = False
        abars.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", abars)

    def check_step(self, t) -> None:
        t = np.asarray(t)
        if not np.issubdtype(t.dtype, np.integer):
            raise ParameterError(f"step index must be integral, got dtype {t.dtype}")
        if t.size == 0 or np.any(t < 1) or np.any(t > self.T):
            raise ParameterError(f"step index {t} outside [1, {self.T}]")

    def alpha_bar(self, t):
        """abar_t for scalar or array t; abar_0 == 1 by convention."""
        t = np.asarray(t)
        if np.any(t < 0) or np.any(t > self.T):
            raise ParameterError(f"step index {t} outside [0, {self.T}]")
        padded = np.concatenate(([1.0], self.alpha_bars))
        out = padded[t]
        return float(out) if out.ndim == 0 else out


def linear_schedule(
    T: int = DEFAULT_T,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
) -> NoiseSchedule:
    """Linearly spaced beta_t from beta_start (t=1) to beta_end (t=T)."""
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ParameterError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    betas = np.linspace(beta_start, beta_end, T)
    alpha_bars = np.cumprod(1.0 - betas)
    return NoiseSchedule(
        T=int(T),
        betas=betas,
        alpha_bars=alpha_bars,
        beta_start=float(beta_start),
        beta_end=float(beta_end),
    )


def _coeffs(schedule: NoiseSchedule, t, ndim: int):
    """sqrt(abar_t) and sqrt(1 - abar_t), shaped to broadcast over samples.

    Scalar t applies one coefficient to the whole array; a 1-D t of length
    n pairs with a leading batch axis of size n.
    """
    schedule.check_step(t)
    abar = schedule.alpha_bars[np.asarray(t) - 1]
    if abar.ndim == 1:
        abar = abar.reshape((-1,) + (1,) * (ndim - 1))
    return np.sqrt(abar), np.sqrt(1.0 - abar)


def q_sample(schedule: NoiseSchedule, x0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """Forward marginal draw x_t = sqrt(abar_t) x_0 + sqrt(1-abar_t) eps.

    Deterministic given eps; the caller controls the randomness.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ShapeError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    root_abar, root_rest = _coeffs(schedule, t, x0.ndim)
    return root_abar * x0 + root_rest * eps


def mean_path(schedule: NoiseSchedule, x0: np.ndarray, t) -> np.ndarray:
    """Mean of the forward marginal, mu(x_t) = sqrt(abar_t) x_0."""
    x0 = np.asarray(x0, dtype=np.float64)
    root_abar, _ = _coeffs(schedule, t, x0.ndim)
    return root_abar * x0
