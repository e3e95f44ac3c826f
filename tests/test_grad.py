import warnings

import numpy as np
import pytest

from irfad.errors import ContractError, NumericError, ShapeError
from irfad.grad import Tape
from irfad.net import NoisePredictor
from irfad.rng import make_rng
from irfad.schedule import linear_schedule

from oracles import fd_gradient, grad_close


def random_shape(rng, max_dim=4):
    ndim = int(rng.integers(1, 3))
    return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(ndim))


def build_op_graph(op: str, rng):
    """Random small-shape instance of one op wrapped into a scalar loss.

    Returns (arrays, run) where run() rebuilds the tape on the current
    array contents and returns (loss_value, grads aligned with arrays).
    """
    if op == "affine":
        n, k, m = (int(rng.integers(1, 4)) for _ in range(3))
        arrays = [
            rng.standard_normal((n, k)),
            rng.standard_normal((k, m)),
            rng.standard_normal(m),
        ]
        target = rng.standard_normal((n, m))

        def run():
            tape = Tape()
            x, w, b = (tape.leaf(v, param=True) for v in arrays)
            loss = tape.mean_squared_error(tape.affine(x, w, b), tape.leaf(target))
            grads = tape.backward(loss)
            return float(loss.value), [grads[x.id], grads[w.id], grads[b.id]]

    elif op == "silu":
        shape = random_shape(rng)
        arrays = [rng.standard_normal(shape) * 2.0]
        target = rng.standard_normal(shape)

        def run():
            tape = Tape()
            a = tape.leaf(arrays[0], param=True)
            loss = tape.mean_squared_error(tape.silu(a), tape.leaf(target))
            grads = tape.backward(loss)
            return float(loss.value), [grads[a.id]]

    elif op == "mean_squared_error":
        shape = random_shape(rng)
        arrays = [rng.standard_normal(shape) for _ in range(2)]

        def run():
            tape = Tape()
            a, b = (tape.leaf(x, param=True) for x in arrays)
            loss = tape.mean_squared_error(a, b)
            grads = tape.backward(loss)
            return float(loss.value), [grads[a.id], grads[b.id]]

    else:
        raise AssertionError(op)
    return arrays, run


ALL_OPS = ("affine", "silu", "mean_squared_error")


def sweep_op(op: str, instances: int, seed: int = 0):
    rng = make_rng(seed, f"fd-{op}")
    for _ in range(instances):
        arrays, run = build_op_graph(op, rng)
        _, grads = run()
        for arr, g in zip(arrays, grads):
            numeric = fd_gradient(lambda: run()[0], arr)
            assert grad_close(g, numeric), f"{op}: analytic vs FD mismatch"


@pytest.mark.parametrize("op", ALL_OPS)
def test_op_gradients_match_finite_differences(op):
    sweep_op(op, instances=10)


def test_mse_identical_inputs_is_zero():
    tape = Tape()
    v = tape.leaf(np.array([1.0, -2.0, 3.0]))
    assert float(tape.mean_squared_error(v, v).value) == 0.0


def test_affine_identity():
    tape = Tape()
    a = np.arange(6.0).reshape(2, 3)
    out = tape.affine(tape.leaf(np.eye(2)), tape.leaf(a), tape.leaf(np.zeros(3)))
    assert np.array_equal(out.value, a)


def test_silu_saturates_to_zero_without_warning():
    # exp(1000) overflows inside the shared SiLU helper; the tape and the
    # inference kernel must both keep it silent
    x = np.array([-1000.0, -800.0, 0.0, 800.0])
    tape = Tape()
    a = tape.leaf(x, param=True)
    # one hidden unit per entry of x, read out one to one
    net = NoisePredictor.create(4, (4,), 2, linear_schedule(10), seed=0)
    net.params = [np.vstack([np.diag(x), np.zeros((2, 4))]), np.zeros(4),
                  np.eye(4), np.zeros(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tape.silu(a)
        grads = tape.backward(tape.mean_squared_error(out, tape.leaf(np.zeros(4))))
        direct = net.forward_features(np.ones((1, 4)), bias0=np.zeros(4))
    assert out.value.tolist() == [0.0, 0.0, 0.0, 800.0]
    assert grads[a.id].tolist() == [0.0, 0.0, 0.0, 2.0 * 800.0 / 4.0]
    assert direct.tolist() == [out.value.tolist()]


def test_backward_closed_form_linear():
    # loss = mean((x @ w + b - y)^2) -> grad w = x^T r, grad b = sum of rows of r,
    # with r = 2 (x @ w + b - y) / size
    rng = make_rng(4, "closed-linear")
    x, w, b, y = (rng.standard_normal(s) for s in ((4, 3), (3, 2), (2,), (4, 2)))
    tape = Tape()
    wn, bn = tape.leaf(w, param=True), tape.leaf(b, param=True)
    out = tape.affine(tape.leaf(x), wn, bn)
    grads = tape.backward(tape.mean_squared_error(out, tape.leaf(y)))
    r = 2.0 * (x @ w + b - y) / y.size
    assert np.allclose(grads[wn.id], x.T @ r, rtol=0, atol=1e-15)
    assert np.allclose(grads[bn.id], r.sum(axis=0), rtol=0, atol=1e-15)


def test_backward_closed_form_mse_against_zero():
    p_val = np.array([1.0, -2.0, 0.5, 4.0])
    tape = Tape()
    p = tape.leaf(p_val, param=True)
    loss = tape.mean_squared_error(p, tape.leaf(np.zeros(4)))
    grads = tape.backward(loss)
    assert np.allclose(grads[p.id], 2.0 * p_val / 4.0, rtol=0, atol=1e-15)


def test_two_layer_net_matches_finite_differences():
    rng = make_rng(1, "fd-2layer")
    x = rng.standard_normal((3, 4))
    arrays = [
        rng.standard_normal((4, 5)),
        rng.standard_normal(5),
        rng.standard_normal((5, 2)),
        rng.standard_normal(2),
    ]
    target = rng.standard_normal((3, 2))

    def run():
        tape = Tape()
        params = [tape.leaf(a, param=True) for a in arrays]
        h = tape.silu(tape.affine(tape.leaf(x), params[0], params[1]))
        out = tape.affine(h, params[2], params[3])
        loss = tape.mean_squared_error(out, tape.leaf(target))
        grads = tape.backward(loss)
        return float(loss.value), [grads[p.id] for p in params]

    _, grads = run()
    for arr, g in zip(arrays, grads):
        assert grad_close(g, fd_gradient(lambda: run()[0], arr))


def test_backward_deterministic():
    rng = make_rng(2, "fd-det")
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)

    def run():
        tape = Tape()
        wn = tape.leaf(w, param=True)
        out = tape.silu(tape.affine(tape.leaf(x), wn, tape.leaf(b, param=True)))
        loss = tape.mean_squared_error(out, tape.leaf(np.zeros((4, 3))))
        return tape.backward(loss)[wn.id]

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_shared_parameters_accumulate_gradients():
    # one (w, b) pair feeds two affines, so each gradient sums two uses
    rng = make_rng(3, "fd-shared")
    x = rng.standard_normal((4, 3))
    arrays = [rng.standard_normal((3, 3)), rng.standard_normal(3)]
    target = rng.standard_normal((4, 3))

    def run():
        tape = Tape()
        w, b = (tape.leaf(a, param=True) for a in arrays)
        h = tape.silu(tape.affine(tape.leaf(x), w, b))
        loss = tape.mean_squared_error(tape.affine(h, w, b), tape.leaf(target))
        grads = tape.backward(loss)
        return float(loss.value), [grads[w.id], grads[b.id]]

    _, grads = run()
    for arr, g in zip(arrays, grads):
        assert grad_close(g, fd_gradient(lambda: run()[0], arr))


def test_input_leaves_need_no_gradient():
    rng = make_rng(5, "needs-grad")
    x = rng.standard_normal((4, 3))
    arrays = [rng.standard_normal((3, 5)), rng.standard_normal(5)]
    target = rng.standard_normal((4, 5))

    def run(x_is_param):
        tape = Tape()
        xn = tape.leaf(x, param=x_is_param)
        w, b = (tape.leaf(a, param=True) for a in arrays)
        out = tape.silu(tape.affine(xn, w, b))
        y = tape.leaf(target)
        loss = tape.mean_squared_error(out, y)
        grads = tape.backward(loss)
        return xn, y, out, [grads[w.id], grads[b.id]]

    xn, y, out, grads = run(False)
    assert not xn.needs_grad and not y.needs_grad and out.needs_grad
    xp, _, _, reference = run(True)
    assert xp.needs_grad
    for g, ref in zip(grads, reference):
        assert np.array_equal(g, ref)


def test_non_scalar_backward_root_rejected():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)), param=True)
    out = tape.affine(a, tape.leaf(np.ones((3, 2))), tape.leaf(np.zeros(2)))
    with pytest.raises(ContractError):
        tape.backward(out)


def test_shape_mismatch_rejected():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    b = tape.leaf(np.ones(4))
    with pytest.raises(ShapeError):
        tape.mean_squared_error(a, b)
    with pytest.raises(ShapeError):
        tape.affine(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))), b)
    with pytest.raises(ShapeError):
        tape.affine(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))), b)


def test_non_finite_leaf_rejected():
    tape = Tape()
    with pytest.raises(NumericError):
        tape.leaf(np.array([1.0, np.nan]))
    with pytest.raises(NumericError):
        tape.leaf(np.array([np.inf]))
