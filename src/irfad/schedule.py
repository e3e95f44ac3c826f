"""Diffusion noise schedule and closed-form forward-process quantities.

The forward chain q(x_t | x_{t-1}) = N(sqrt(1-beta_t) x_{t-1}, beta_t I)
has the closed-form marginal

    q(x_t | x_0) = N(sqrt(abar_t) x_0, (1 - abar_t) I),
    abar_t = prod_{s=1..t} (1 - beta_s),

so a noisy state can be drawn in one shot as
x_t = sqrt(abar_t) x_0 + sqrt(1 - abar_t) eps, and its mean path is
mu(x_t) = sqrt(abar_t) x_0.

Conventions: steps are 1-indexed (t = 1..T); t = 0 denotes clean data and
abar_0 == 1. The cumulative products and their two square roots,
sqrt(abar_t) and sqrt(1 - abar_t), are precomputed once (scoring is the
hot path) and the schedule is immutable after construction.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

DEFAULT_T = 1000
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


def check_step(t, T: int, low: int = 1) -> int:
    """One step index t as an int in [low, T].

    The one check of a step wherever one enters: booleans, fractions and
    arrays are refused with ParameterError.
    """
    try:
        step = None if isinstance(t, (bool, np.bool_)) else operator.index(t)
    except TypeError:
        step = None
    if step is None:
        raise ParameterError(f"step index must be one integer, got {t!r}")
    if not low <= step <= T:
        raise ParameterError(f"step index {step} outside [{low}, {T}]")
    return step


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative products abar_t of the per-step noise levels beta_t.

    Every forward quantity reads abar_t alone; the betas themselves are a
    local of `linear_schedule`, which records their range in `beta_start`
    and `beta_end`. Direct construction performs no range validation so
    that tests can build degenerate schedules (e.g. abar == 1); use
    `linear_schedule` for checked construction. The read-only tables
    `root_alpha_bars` and `root_rests` hold sqrt(abar_t) and
    sqrt(1 - abar_t); NumPy's sqrt is correctly rounded, so an entry has
    the bits of the same sqrt taken per call.
    """

    T: int
    alpha_bars: np.ndarray  # shape (T,), alpha_bars[t-1] is abar_t
    beta_start: float | None = field(default=None)
    beta_end: float | None = field(default=None)
    root_alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)
    root_rests: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        abars = np.ascontiguousarray(self.alpha_bars, dtype=np.float64)
        if abars.shape != (self.T,):
            raise ShapeError(f"alpha_bars must have shape ({self.T},), got {abars.shape}")
        tables = {
            "alpha_bars": abars,
            "root_alpha_bars": np.sqrt(abars),
            "root_rests": np.sqrt(1.0 - abars),
        }
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def alpha_bar(self, t) -> float:
        """abar_t of one step t in [0, T]; abar_0 == 1 by convention."""
        t = check_step(t, self.T, low=0)
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])


def linear_schedule(
    T: int = DEFAULT_T,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
) -> NoiseSchedule:
    """Linearly spaced beta_t from beta_start (t=1) to beta_end (t=T)."""
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ParameterError(f"T must be a positive integer, got {T!r}")
    if 8 * int(T) > np.iinfo(np.intp).max:  # a float64 table of T entries
        raise ParameterError(f"T = {T} exceeds the addressable size")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    betas = np.linspace(beta_start, beta_end, T)
    return NoiseSchedule(
        T=int(T),
        alpha_bars=np.cumprod(1.0 - betas),
        beta_start=float(beta_start),
        beta_end=float(beta_end),
    )


def _coeffs(schedule: NoiseSchedule, t, ndim: int):
    """sqrt(abar_t) and sqrt(1 - abar_t), shaped to broadcast over samples.

    One step t applies one coefficient to the whole array; a 1-D integer
    array t of length n pairs with a leading batch axis of size n. Both are
    read from the schedule's square-root tables.
    """
    if isinstance(t, np.ndarray) and t.ndim == 1:
        integral = np.issubdtype(t.dtype, np.integer)
        if not integral or t.size == 0 or t.min() < 1 or t.max() > schedule.T:
            raise ParameterError(f"per-row steps must be integers in [1, {schedule.T}]")
        shape = (-1,) + (1,) * (ndim - 1)
        i = t - 1
        return schedule.root_alpha_bars[i].reshape(shape), schedule.root_rests[i].reshape(shape)
    i = check_step(t, schedule.T) - 1
    return schedule.root_alpha_bars[i], schedule.root_rests[i]


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
