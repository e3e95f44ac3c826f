import numpy as np
import pytest

from irfad.baselines import ddim_invert_batch, reconstruct_batch, substep_grid
from irfad.errors import ParameterError, ShapeError
from irfad.net import EvalCounter, NoisePredictor
from irfad.rng import make_rng
from irfad.schedule import linear_schedule


@pytest.fixture
def schedule():
    return linear_schedule(1000)


@pytest.fixture
def zero_net(schedule):
    # fresh nets have a zero output head, so eps_hat is identically zero
    return NoisePredictor.create(4, (8,), 4, schedule, seed=0)


def test_substep_grid_endpoints_and_monotonicity():
    taus = substep_grid(1000, 3)
    assert taus[0] == 0 and taus[-1] == 1000
    assert np.all(np.diff(taus) >= 1)
    assert len(taus) == 4
    with pytest.raises(ParameterError):
        substep_grid(10, 11)
    with pytest.raises(ParameterError):
        substep_grid(10, 0)


def test_ddim_zero_net_closed_form(schedule, zero_net):
    x0 = np.array([[1.0, -2.0, 0.5, 3.0]])
    for steps in (1, 3, 10):
        counter = EvalCounter()
        score = ddim_invert_batch(zero_net, schedule, x0, steps, counter)
        abar_T = schedule.alpha_bar(schedule.T)
        assert score.shape == (1,)
        assert score[0] == pytest.approx(abar_T * np.sum(x0**2) / 2.0, rel=1e-10)
        assert counter.count == steps


def test_ddim_deterministic(schedule, zero_net):
    rng = make_rng(0, "test-ddim")
    zero_net.params = [rng.standard_normal(p.shape) * 0.1 for p in zero_net.params]
    x0 = rng.standard_normal((1, 4))
    a = ddim_invert_batch(zero_net, schedule, x0, 3)
    b = ddim_invert_batch(zero_net, schedule, x0, 3)
    assert a[0] == b[0]


def test_recon_zero_net_zero_noise_recovers_input(schedule, zero_net):
    # with eps_hat = 0 and all injected noise zero the chain is
    # x0 -> sqrt(abar) x0 -> x0, so the reconstruction error vanishes
    x0 = np.array([[1.0, -2.0, 0.5, 3.0]])
    steps = 5
    noise = np.zeros((steps, 1, 4))
    counter = EvalCounter()
    score = reconstruct_batch(zero_net, schedule, x0, 500, steps, noise, counter)
    assert score.shape == (1,)
    assert score[0] == pytest.approx(0.0, abs=1e-18)
    assert counter.count == steps


def test_recon_zero_net_matches_closed_form_chain(schedule, zero_net):
    # independent recursion: x_hat = (x_t - beta_eff/sqrt(1-abar_hi)*0)/sqrt(1-beta_eff)
    rng = make_rng(1, "test-recon-chain")
    x0 = rng.standard_normal(4)
    t_start, steps = 400, 4
    jump = rng.standard_normal(4)
    zs = [rng.standard_normal(4) for _ in range(steps - 1)]

    taus = substep_grid(t_start, steps)
    abar = lambda t: schedule.alpha_bar(int(t))
    x = np.sqrt(abar(t_start)) * x0 + np.sqrt(1.0 - abar(t_start)) * jump
    for k in range(steps, 0, -1):
        beta_eff = 1.0 - abar(taus[k]) / abar(taus[k - 1])
        x = x / np.sqrt(1.0 - beta_eff)
        if k > 1:
            x = x + np.sqrt(beta_eff) * zs[steps - k]
    expected = np.mean((x0 - x) ** 2)

    noise = np.stack([jump] + zs)[:, None]
    score = reconstruct_batch(zero_net, schedule, x0[None], t_start, steps, noise)
    assert score[0] == pytest.approx(expected, rel=1e-12)
    assert score[0] > 0.0


def test_recon_single_step_from_t1(schedule, zero_net):
    counter = EvalCounter()
    reconstruct_batch(
        zero_net, schedule, np.ones((1, 4)), 1, 1, np.zeros((1, 1, 4)), counter
    )
    assert counter.count == 1


def _slot_fills(seed, steps, shape):
    """`steps` slots filled one draw at a time, in draw order."""
    rng = make_rng(seed, "recon-stream")
    return [rng.standard_normal(out=np.empty(shape)) for _ in range(steps)]


def test_recon_deterministic_given_rng_seed(schedule, zero_net):
    x0 = np.ones((1, 4))
    a = reconstruct_batch(zero_net, schedule, x0, 300, 10, _slot_fills(3, 10, x0.shape))
    b = reconstruct_batch(zero_net, schedule, x0, 300, 10, _slot_fills(3, 10, x0.shape))
    assert a[0] == b[0]


@pytest.fixture
def random_net(schedule):
    net = NoisePredictor.create(4, (8,), 4, schedule, seed=0)
    rng = make_rng(0, "test-recon-net")
    net.params = [rng.standard_normal(p.shape) * 0.3 for p in net.params]
    return net


def test_recon_noise_is_any_iterable_read_in_draw_order(schedule, random_net):
    x0 = make_rng(5, "test-recon-rows").standard_normal((3, 4))
    steps = 6
    slots = _slot_fills(7, steps, x0.shape)
    want = reconstruct_batch(random_net, schedule, x0, 300, steps, slots)
    got = reconstruct_batch(random_net, schedule, x0, 300, steps, (z for z in slots))
    assert got.tobytes() == want.tobytes()
    # one (steps, B, d) draw, iterated, draws the bits of one fill per slot
    block = make_rng(7, "recon-stream").standard_normal((steps,) + x0.shape)
    assert block.tobytes() == np.stack(slots).tobytes()
    got = reconstruct_batch(random_net, schedule, x0, 300, steps, block)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise, error, evaluations", [
    (np.zeros((3, 2, 4)), "has 3 slots, the chain needs 5", 3),
    ([np.zeros((2, 4))] * 2 + [np.zeros((1, 4))] * 3, "slot 2 has shape", 2),
    ([np.zeros((2, 4))] * 4 + [np.zeros((2, 4, 1))], "slot 4 has shape", 4),
    (np.zeros((6, 2, 4)), "more than the chain's 5 slots", 5),
], ids=["short", "misshapen", "extra-axis", "long"])
def test_recon_noise_of_the_wrong_length_or_shape(schedule, zero_net, noise, error, evaluations):
    # slot j is read after j network evaluations: a missing or misshapen
    # slot stops the chain there, a slot left over after the last step
    counter = EvalCounter()
    with pytest.raises(ShapeError, match=error):
        reconstruct_batch(zero_net, schedule, np.ones((2, 4)), 500, 5, iter(noise), counter)
    assert counter.count == 2 * evaluations


def test_recon_step_budget_validation(schedule, zero_net):
    x0 = np.ones((1, 4))
    with pytest.raises(ParameterError):
        reconstruct_batch(zero_net, schedule, x0, 5, 6, _slot_fills(0, 6, x0.shape))
    with pytest.raises(ParameterError):
        reconstruct_batch(zero_net, schedule, x0, 5, 0, np.zeros((0, 1, 4)))
    with pytest.raises(ParameterError):
        reconstruct_batch(
            zero_net, schedule, x0, np.array([5]), 1, np.zeros((1, 1, 4))
        )


def test_counters_shared_with_scoring_context(schedule, zero_net):
    counter = EvalCounter()
    ddim_invert_batch(zero_net, schedule, np.ones((1, 4)), 3, counter)
    reconstruct_batch(
        zero_net, schedule, np.ones((1, 4)), 100, 7,
        np.zeros((7, 1, 4)), counter,
    )
    assert counter.count == 10


# -- behaviour with the trained reference net -----------------------------------


def test_reconstruction_separates_toy_classes(toy_run):
    from irfad.pipeline import RECON, Scorer

    scorer = Scorer(
        RECON,
        toy_run.net,
        toy_run.schedule,
        t_infer=toy_run.t_infer,
        batch_size=512,
        noise_seed=0,
        recon_t_start=500,
        recon_steps=50,
    )
    table = scorer(toy_run.test.samples)
    labels = toy_run.test.labels
    assert table.s[labels == 1].mean() > table.s[labels == 0].mean()


def test_ddim_auroc_in_range_on_toy(toy_run):
    from irfad.metrics import auroc
    from irfad.pipeline import DDIM, Scorer

    scorer = Scorer(
        DDIM, toy_run.net, toy_run.schedule, t_infer=toy_run.t_infer,
        batch_size=512, ddim_steps=3,
    )
    table = scorer(toy_run.test.samples)
    value = auroc(table.s, toy_run.test.labels)
    assert 0.0 <= value <= 1.0
