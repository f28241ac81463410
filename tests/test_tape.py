import numpy as np
import numpy.testing as npt
import pytest

from vrfnet import (
    GConvBlock,
    GconvConfig,
    MscfBlock,
    MscfConfig,
    Rng,
    ShapeError,
    Tape,
    Tensor,
    add,
    block_gradient_errors,
    concat_channels,
    finite_diff_check,
    full,
    hadamard,
    reduce_channel,
    sigmoid,
    slice_channels,
    spatial_mean,
    sum_all,
)


def test_backward_square():
    # loss = sum(x^2) at x = 3 -> grad 6
    tape = Tape()
    x = tape.leaf(Tensor(np.full((1, 1, 1, 1), 3.0)))
    loss = sum_all(hadamard(x, x))
    grads = tape.backward(loss)
    assert grads[x.id].item() == pytest.approx(6.0)


def test_backward_bilinear():
    # loss = sum(a * b) -> dL/da = b, dL/db = a
    tape = Tape()
    ta, tb = Rng(1).tensor((1, 3, 2, 2)), Rng(2).tensor((1, 3, 2, 2))
    a, b = tape.leaf(ta), tape.leaf(tb)
    grads = tape.backward(sum_all(hadamard(a, b)))
    npt.assert_array_equal(grads[a.id].data, tb.data)
    npt.assert_array_equal(grads[b.id].data, ta.data)


def test_backward_fanout_accumulates():
    # y = x*x + x  ->  dy/dx = 2x + 1  (x consumed by several ops)
    tape = Tape()
    tx = Rng(3).tensor((1, 2, 2, 2))
    x = tape.leaf(tx)
    loss = sum_all(add(hadamard(x, x), x))
    grads = tape.backward(loss)
    npt.assert_allclose(grads[x.id].data, 2 * tx.data + 1, rtol=1e-14)


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = tape.leaf(Rng(4).tensor((1, 2, 2, 2)))
    y = hadamard(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_zero_grad_for_unused_leaf():
    tape = Tape()
    x = tape.leaf(Rng(5).tensor((1, 1, 2, 2)))
    unused = tape.leaf(Rng(6).tensor((1, 1, 2, 2)))
    grads = tape.backward(sum_all(x))
    npt.assert_array_equal(grads[unused.id].data, np.zeros((1, 1, 2, 2)))


def test_mixing_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(Rng(7).tensor((1, 1, 1, 1)))
    b = t2.leaf(Rng(8).tensor((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        add(a, b)


def test_backward_linearity():
    # backward(alpha*f + beta*g) == alpha*backward(f) + beta*backward(g)
    tx = Rng(9).tensor((1, 2, 3, 3))
    alpha, beta = 0.7, -1.3

    tape_f = Tape()
    xf = tape_f.leaf(tx)
    gf = tape_f.backward(sum_all(hadamard(xf, xf)))[xf.id].data

    tape_g = Tape()
    xg = tape_g.leaf(tx)
    gg = tape_g.backward(sum_all(sigmoid(xg)))[xg.id].data

    tape_c = Tape()
    xc = tape_c.leaf(tx)
    combined = add(hadamard(sum_all(hadamard(xc, xc)), full((1, 1, 1, 1), alpha)),
                   hadamard(sum_all(sigmoid(xc)), full((1, 1, 1, 1), beta)))
    gc = tape_c.backward(combined)[xc.id].data

    npt.assert_allclose(gc, alpha * gf + beta * gg, rtol=1e-12)


def test_finite_diff_linear_function():
    # for a linear f the central difference is exact at any step size;
    # a moderate h keeps f64 evaluation rounding below the bound
    x = Rng(10).tensor((1, 2, 3, 3))
    assert finite_diff_check(sum_all, x, h=1e-3) <= 1e-10


def test_finite_diff_sigmoid_at_zero():
    # analytic gradient of sum(sigmoid(x)) at x = 0 is 0.25 per element
    x = Tensor(np.zeros((1, 2, 2, 2)))
    tape = Tape()
    lx = tape.leaf(x)
    grads = tape.backward(sum_all(sigmoid(lx)))
    npt.assert_allclose(grads[lx.id].data, np.full((1, 2, 2, 2), 0.25), rtol=1e-15)
    assert finite_diff_check(lambda t: sum_all(sigmoid(t)), x) < 1e-8


def test_finite_diff_requires_f64():
    x = Rng(11).tensor((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(TypeError):
        finite_diff_check(sum_all, x)


def test_finite_diff_mscf_input():
    block = MscfBlock(MscfConfig(c=8), Rng(12), np.float64)
    x = Rng(13).tensor((1, 8, 6, 6), -2, 2)
    err = finite_diff_check(lambda t: sum_all(block.forward(t)), x)
    assert err < 1e-5


def test_gconv_parameter_gradients_match_fd():
    # every parameter gradient of a full gated-conv block, h = 1e-6
    block = GConvBlock(GconvConfig(c=6), Rng(7), np.float64)
    x = Rng(8).tensor((1, 6, 4, 4))
    errors = block_gradient_errors(block, x, h=1e-6)
    for name, err in errors.items():
        assert err < 1e-6, f"{name}: {err}"


def _other():
    return Rng(99).tensor((1, 3, 4, 4), -2, 2)


def _bcast():
    return Rng(98).tensor((1, 1, 4, 4), -2, 2)


@pytest.mark.parametrize(
    "name,f",
    [
        ("add", lambda t: sum_all(add(t, _other()))),
        ("add_broadcast", lambda t: sum_all(add(t, _bcast()))),
        ("hadamard", lambda t: sum_all(hadamard(t, _other()))),
        ("hadamard_self", lambda t: sum_all(hadamard(t, t))),
        ("hadamard_broadcast", lambda t: sum_all(hadamard(t, _bcast()))),
        ("sigmoid", lambda t: sum_all(sigmoid(t))),
        ("reduce_avg", lambda t: sum_all(reduce_channel("avg", t))),
        ("reduce_max", lambda t: sum_all(hadamard(reduce_channel("max", t), _bcast()))),
        ("spatial_mean", lambda t: sum_all(spatial_mean(t))),
        ("concat_slice", lambda t: sum_all(
            hadamard(slice_channels(concat_channels([t, t]), 2, 5), _other()))),
    ],
)
def test_registered_op_gradients(name, f):
    # every tape-registered op, random inputs in [-2, 2]
    x = Rng(14).tensor((1, 3, 4, 4), -2, 2)
    assert finite_diff_check(f, x) < 1e-5, name
