import numpy as np
import pytest

from irfad.errors import ParameterError, ShapeError
from irfad.rng import make_rng
from irfad.schedule import (
    NoiseSchedule,
    check_step,
    linear_schedule,
    mean_path,
    q_sample,
)
from oracles import gaussian_eps_star


def test_linear_endpoints():
    sched = linear_schedule(1000, 1e-4, 0.02)
    assert sched.alpha_bars[0] == 1.0 - 1e-4
    assert np.array_equal(sched.alpha_bars, np.cumprod(1.0 - np.linspace(1e-4, 0.02, 1000)))
    assert sched.T == 1000


def test_single_step_product():
    sched = linear_schedule(1, 0.5, 0.5)
    assert sched.alpha_bars[0] == 0.5


def test_two_step_product():
    sched = linear_schedule(2, 0.1, 0.3)
    assert sched.alpha_bars[1] == (1.0 - 0.1) * (1.0 - 0.3)
    assert sched.alpha_bars[1] == pytest.approx(0.63, rel=1e-12)


@pytest.mark.parametrize(
    "T,start,end",
    [
        (0, 1e-4, 0.02),
        (10, 0.0, 0.02),
        (10, -0.1, 0.02),
        (10, 0.02, 1e-4),
        (10, 1e-4, 1.0),
        (10, 1e-4, 1.5),
        (2**61, 1e-4, 0.02),  # 8 * T bytes past the address space
        (np.int64(2**61), 1e-4, 0.02),
    ],
)
def test_invalid_ranges(T, start, end):
    with pytest.raises(ParameterError):
        linear_schedule(T, start, end)


def test_recurrence_exact_at_working_precision():
    sched = linear_schedule()
    betas = np.linspace(1e-4, 0.02, sched.T)
    prev = 1.0
    for t in range(1, sched.T + 1):
        expected = prev * (1.0 - betas[t - 1])
        assert sched.alpha_bars[t - 1] == expected
        prev = expected


def test_alpha_bars_strictly_decreasing_and_in_range():
    sched = linear_schedule()
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert np.all(sched.alpha_bars > 0) and np.all(sched.alpha_bars <= 1)


def test_sqrt_of_product_matches_product_of_sqrts():
    sched = linear_schedule(500)
    root_prod = np.cumprod(np.sqrt(1.0 - np.linspace(1e-4, 0.02, 500)))
    assert np.allclose(np.sqrt(sched.alpha_bars), root_prod, rtol=1e-12, atol=0)


def test_schedule_arrays_immutable():
    sched = linear_schedule(10)
    for table in (sched.alpha_bars, sched.root_alpha_bars, sched.root_rests):
        with pytest.raises(ValueError):
            table[0] = 0.5


def test_root_tables_keep_the_per_call_sqrt_bits():
    sched = linear_schedule()
    x0, eps = np.array([1.0]), np.array([1.0])
    for t in range(1, sched.T + 1):
        abar = sched.alpha_bars[t - 1]
        assert mean_path(sched, x0, t).tobytes() == (np.sqrt(abar) * x0).tobytes()
        assert q_sample(sched, np.zeros(1), t, eps).tobytes() == (
            np.sqrt(abar) * 0.0 + np.sqrt(1.0 - abar) * eps
        ).tobytes()
    steps = np.arange(1, sched.T + 1)
    rows = np.ones((sched.T, 1))
    want = np.sqrt(sched.alpha_bars)[:, None] * rows + np.sqrt(1.0 - sched.alpha_bars)[:, None]
    assert q_sample(sched, rows, steps, rows).tobytes() == want.tobytes()


def test_q_sample_zero_x0():
    sched = linear_schedule(100)
    eps = np.array([1.0, -2.0, 0.5])
    for t in (1, 50, 100):
        expected = np.sqrt(1.0 - sched.alpha_bar(t)) * eps
        assert np.array_equal(q_sample(sched, np.zeros(3), t, eps), expected)


def test_q_sample_zero_eps_equals_mean_path():
    sched = linear_schedule(100)
    rng = make_rng(0, "test-q")
    x0 = rng.standard_normal(7)
    for t in (1, 25, 100):
        assert np.array_equal(
            q_sample(sched, x0, t, np.zeros_like(x0)), mean_path(sched, x0, t)
        )


def test_q_sample_scalar_hand_case():
    # abar = 0.64: x_t = 0.8*2.5 + 0.6*1.0 = 2.6
    sched = NoiseSchedule(T=1, alpha_bars=np.array([0.64]))
    out = q_sample(sched, np.array([2.5]), 1, np.array([1.0]))
    assert out[0] == pytest.approx(2.6, abs=1e-12)


def test_mean_path_hand_cases():
    sched = NoiseSchedule(T=1, alpha_bars=np.array([0.25]))
    assert mean_path(sched, np.array([2.5]), 1)[0] == pytest.approx(1.25, abs=1e-12)
    # beta == 0 limit: abar == 1 makes the mean path the identity
    ident = NoiseSchedule(T=1, alpha_bars=np.array([1.0]))
    x0 = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(mean_path(ident, x0, 1), x0)
    assert np.array_equal(mean_path(sched, np.zeros(4), 1), np.zeros(4))


def test_step_validation():
    sched = linear_schedule(10)
    with pytest.raises(ParameterError):
        q_sample(sched, np.zeros(2), 0, np.zeros(2))
    with pytest.raises(ParameterError):
        q_sample(sched, np.zeros(2), 11, np.zeros(2))
    with pytest.raises(ParameterError):
        mean_path(sched, np.zeros(2), -1)
    for bad in (2.5, True, np.array([[5]])):
        with pytest.raises(ParameterError):
            mean_path(sched, np.zeros(2), bad)
    for bad in (np.array([0, 5]), np.array([5.0, 6.0]), np.array([], dtype=int)):
        with pytest.raises(ParameterError):
            q_sample(sched, np.zeros((len(bad), 2)), bad, np.zeros((len(bad), 2)))
    for bad in (True, 2.5, np.array([5]), -1, 11):
        with pytest.raises(ParameterError):
            sched.alpha_bar(bad)
    for bad in (True, 2.5, np.array([5]), 0, 11):
        with pytest.raises(ParameterError):
            check_step(bad, sched.T)
    assert sched.alpha_bar(0) == 1.0
    assert sched.alpha_bar(np.int64(10)) == sched.alpha_bars[9]
    assert check_step(np.int32(10), sched.T) == 10
    with pytest.raises(ShapeError):
        q_sample(sched, np.zeros(2), 5, np.zeros(3))


def test_per_sample_t_vector():
    sched = linear_schedule(100)
    x0 = np.ones((4, 2))
    t = np.array([1, 10, 50, 100])
    out = mean_path(sched, x0, t)
    for i, ti in enumerate(t):
        assert np.array_equal(out[i], np.sqrt(sched.alpha_bar(int(ti))) * x0[i])


def test_forward_moments_monte_carlo():
    # empirical mean -> mean path, per-coordinate variance -> 1 - abar
    sched = linear_schedule()
    t = 400
    n = 100_000
    x0 = np.array([1.7, -0.4, 2.0])
    rng = make_rng(3, "test-moments")
    eps = rng.standard_normal((n, 3))
    draws = q_sample(sched, np.tile(x0, (n, 1)), np.full(n, t), eps)
    var = 1.0 - sched.alpha_bar(t)
    se_mean = np.sqrt(var / n)
    se_var = var * np.sqrt(2.0 / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean_path(sched, x0, t)) < 3 * se_mean)
    assert np.all(np.abs(draws.var(axis=0) - var) < 3 * se_var)


@pytest.mark.parametrize("t", [100, 400])
def test_gaussian_eps_star_is_the_least_squares_fit_of_eps(t):
    # E[eps | x_t] is affine in x_t for Gaussian x0, so a least-squares fit
    # of eps on [x_t, 1] over many forward draws converges to the oracle's map
    sched = linear_schedule(1000)
    rng = make_rng(0, "test-gaussian-eps-star")
    n = 400_000
    mu = np.array([1.5, -1.0, 0.5])
    root = np.array([[0.8, 0.0, 0.0], [0.5, 0.3, 0.0], [-0.4, 0.2, 1.5]])
    cov = root @ root.T
    x0 = mu + rng.standard_normal((n, 3)) @ root.T
    eps = rng.standard_normal((n, 3))
    abar = sched.alpha_bar(t)
    x_t = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
    design = np.column_stack([x_t, np.ones(n)])
    fit = np.linalg.lstsq(design, eps, rcond=None)[0]  # rows: x_t's 3 coefficients, then 1's
    # the oracle's affine map, read off at the origin and the unit vectors
    offset = gaussian_eps_star(mu, cov, sched, t, np.zeros(3))
    slope = gaussian_eps_star(mu, cov, sched, t, np.eye(3)) - offset
    assert np.abs(fit[:3] - slope).max() < 0.01
    assert np.abs(fit[3] - offset).max() < 0.01
    gap = design @ fit - gaussian_eps_star(mu, cov, sched, t, x_t)
    assert np.mean(gap**2) < 1e-4
