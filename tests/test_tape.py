import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import vrfnet
from vrfnet import (
    GConvBlock,
    GconvConfig,
    GmcfBottleneck,
    GmcfConfig,
    MscfBlock,
    MscfConfig,
    Node,
    Rng,
    ShapeError,
    Tape,
    Tensor,
    add,
    block_gradient_errors,
    channel_avg_max,
    concat_channels,
    finite_diff_check,
    full,
    hadamard,
    select_scales,
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


def test_second_backward_raises():
    tape = Tape()
    x = tape.leaf(Rng(15).tensor((1, 2, 2, 2)))
    loss = sum_all(hadamard(x, x))
    tape.backward(loss)
    with pytest.raises(ValueError, match="already differentiated"):
        tape.backward(loss)


def test_rejected_loss_consumes_nothing():
    tape = Tape()
    tx = Rng(16).tensor((1, 2, 2, 2))
    x = tape.leaf(tx)
    y = hadamard(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)
    with pytest.raises(ValueError, match="node recorded on this tape"):
        tape.backward(tx)
    loss = sum_all(y)
    npt.assert_array_equal(tape.backward(loss)[x.id].data, 2 * tx.data)
    with pytest.raises(ValueError, match="already differentiated"):
        tape.backward(loss)


def test_backward_drops_the_arrays_an_adjoint_saved():
    tape = Tape()
    x = tape.leaf(Rng(17).tensor((1, 2, 3, 3)))
    scale = Rng(18).tensor((1, 2, 3, 3))  # a constant operand: hadamard's adjoint keeps it
    saved = weakref.ref(scale.data)
    loss = sum_all(hadamard(x, scale))
    del scale
    assert saved() is not None
    grads = tape.backward(loss)
    assert saved() is None, "the tape still holds what an op saved for its adjoint"
    assert len(tape) == 3 and loss.tensor.shape == (1, 1, 1, 1)
    assert grads[x.id].shape == (1, 2, 3, 3)


@pytest.mark.parametrize("node_first", [True, False])
def test_hadamard_adjoint_forms_no_product_for_a_constant_operand(node_first):
    # the backward holds the loss's adjoint, broadcast to the product's
    # shape, and the node's gradient g * r; the constant's g * x, which
    # nothing would take, would be a third array of that size
    tape = Tape()
    tx, r = Rng(22).tensor((1, 8, 64, 64)), Rng(23).tensor((1, 8, 64, 64))
    x = tape.leaf(tx)
    loss = sum_all(hadamard(x, r) if node_first else hadamard(r, x))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * tx.data.nbytes, f"backward peak {peak} B for {tx.data.nbytes} B arrays"
    npt.assert_array_equal(grads[x.id].data, r.data)


def test_backward_frees_a_later_adjoint_before_an_earlier_rule_runs():
    tape = Tape()
    tx = Rng(19).tensor((1, 2, 3, 3))
    x = tape.leaf(tx)
    seen = {}

    def earlier_rule(g, acc):
        seen["later adjoint alive"] = seen["later adjoint"]() is not None
        acc(x, g * 3.0)

    a = tape.record(Tensor(tx.data * 3.0), "probe", earlier_rule)

    def later_rule(g, acc):
        seen["later adjoint"] = weakref.ref(g)
        acc(a, g * 2.0)  # a new array: the rule does not pass its own adjoint on

    b = tape.record(Tensor(tx.data * 6.0), "probe", later_rule)
    grads = tape.backward(sum_all(b))
    assert seen["later adjoint alive"] is False
    npt.assert_array_equal(grads[x.id].data, np.full(tx.shape, 6.0))


@pytest.mark.parametrize("shape", [(1, 8, 16, 16), (2, 8, 12, 12)])
def test_backward_peak_stays_close_to_what_the_forward_holds(shape):
    # Held for the whole walk, every adjoint and saved activation made the
    # backward's peak about 1.65x the memory the forward holds; freed as
    # the walk goes, about 1.35x.
    block = GmcfBottleneck(GmcfConfig(c=8), Rng(20), np.float64)
    x = Rng(21).tensor(shape)
    block.forward(x, mode="train")  # first-call caches are not the forward's memory
    tracemalloc.start()
    try:
        tape = Tape()
        xn = tape.leaf(x, "input")
        pn = {k: tape.leaf(t, k) for k, t in block.params().items()}
        loss = sum_all(block.forward(xn, pn, "train"))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grads) == 1 + len(pn)
    assert peak / held < 1.5, f"backward peak {peak} B is {peak / held:.2f}x the forward's {held} B"


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


def _pair():
    return Rng(97).tensor((1, 2, 4, 4), -2, 2)


@pytest.mark.parametrize(
    "name,f",
    [
        ("add", lambda t: sum_all(add(t, _other()))),
        ("add_broadcast", lambda t: sum_all(add(t, _bcast()))),
        ("hadamard", lambda t: sum_all(hadamard(t, _other()))),
        ("hadamard_self", lambda t: sum_all(hadamard(t, t))),
        ("hadamard_broadcast", lambda t: sum_all(hadamard(t, _bcast()))),
        ("sigmoid", lambda t: sum_all(sigmoid(t))),
        ("reduce_avg", lambda t: sum_all(slice_channels(channel_avg_max(t), 0, 1))),
        ("reduce_max", lambda t: sum_all(
            hadamard(slice_channels(channel_avg_max(t), 1, 2), _bcast()))),
        ("channel_avg_max", lambda t: sum_all(hadamard(channel_avg_max(t), _pair()))),
        # S = 3 scales of 1 channel: cat, mask and gate all read t
        ("select_scales", lambda t: sum_all(
            hadamard(select_scales(t, hadamard(t, t), slice_channels(t, 1, 2)), _bcast()))),
        ("spatial_mean", lambda t: sum_all(spatial_mean(t))),
        ("concat_slice", lambda t: sum_all(
            hadamard(slice_channels(concat_channels([t, t]), 2, 5), _other()))),
    ],
)
def test_registered_op_gradients(name, f):
    # every tape-registered op, random inputs in [-2, 2]
    x = Rng(14).tensor((1, 3, 4, 4), -2, 2)
    assert finite_diff_check(f, x) < 1e-5, name


@pytest.mark.parametrize("scales,c", [(1, 3), (3, 2), (4, 1)])
@pytest.mark.parametrize("which", ["cat", "mask", "x"])
def test_select_scales_adjoints_match_exact_differences(scales, c, which):
    # y = x * sum_i f_i * m_i is linear in each input, so under a
    # probe-weighted loss central differences are exact at any step, up
    # to the rounding of the loss itself
    rng = Rng(20 + scales)
    inputs = {
        "cat": rng.tensor((2, scales * c, 3, 4), -2, 2),
        "mask": rng.tensor((2, scales, 3, 4), 0, 1),
        "x": rng.tensor((2, c, 3, 4), -2, 2),
    }
    probe = rng.tensor((2, c, 3, 4), -2, 2)

    def loss(t):
        bound = dict(inputs, **{which: t})
        return sum_all(hadamard(select_scales(bound["cat"], bound["mask"], bound["x"]), probe))

    assert finite_diff_check(loss, inputs[which], h=1.0) < 1e-9, which


_MISSHAPEN = textwrap.dedent("""
    import numpy as np
    from vrfnet import ShapeError, Tape, Tensor, sum_all

    def run(handed):
        tape = Tape()
        x = tape.leaf(Tensor(np.ones((1, 2, 3, 3))))

        def rule(g, acc):
            for args in handed:
                acc(x, *args)

        y = tape.record(Tensor(np.ones((1, 2, 3, 3))), "probe", rule)
        try:
            grad = tape.backward(sum_all(y))[x.id]
        except ShapeError:
            return "ShapeError"
        return f"gradient sums to {grad.data.sum():g}"

    good, bad = (np.ones((1, 2, 3, 3)),), (np.ones((1, 1, 1, 1)),)
    # as the first adjoint, as the second (a new sum), as the third (an
    # add in place), and one channel too few for a channel range
    for handed in ([bad], [good, bad], [good, good, bad], [(np.ones((1, 1, 3, 3)), slice(0, 2))]):
        print(run(handed))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_backward_rejects_a_misshapen_adjoint_with_asserts_compiled_out(flags):
    src = str(Path(vrfnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", _MISSHAPEN], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ShapeError"] * 4


def _spy_on_adjoints(monkeypatch):
    """From now on, every array a recorded rule hands the tape is made
    read-only and kept with a copy of it, per target node id, and the
    adjoint each rule receives is kept too."""
    handed, received = {}, {}
    record = Tape.record

    def spied_record(tape, tensor, op, backward):
        def spied(grad, acc):
            received[node.id] = grad.copy()

            def spy(ref, arr, *channels):
                if isinstance(ref, Node):
                    arr.setflags(write=False)
                    handed.setdefault(ref.id, []).append((arr, arr.copy(), channels))
                acc(ref, arr, *channels)

            backward(grad, spy)

        node = record(tape, tensor, op, spied)
        return node

    monkeypatch.setattr(Tape, "record", spied_record)
    return handed, received


def _out_of_place(shape, dtype, handed):
    """The adjoint as the sum of what was handed, in order, each sum a new
    array; a channel range adds into that range alone."""
    total = None
    for arr, _, channels in handed:
        if not channels:
            total = arr if total is None else total + arr
            continue
        full = np.zeros(shape, dtype) if total is None else total.copy()
        full[:, channels[0]] = arr if total is None else total[:, channels[0]] + arr
        total = full
    return total


def _probe(shape, dtype, seed):
    """Values in [-2, 2], about a fifth each +0 and -0: a sum that starts
    from a +0 instead of taking the first array as it is changes a -0."""
    rng = Rng(seed)
    a, z = rng.uniform(shape, -2, 2), rng.random(shape)
    a[z < 0.2] = 0.0
    a[z > 0.8] = -0.0
    return Tensor.wrap(a.astype(dtype))


_ALIASING_GRAPHS = {
    # sum_all's read-only broadcast, handed twice by add(a, a) and once more
    "add_self": lambda a, b, p: sum_all(add(add(a, a), a)),
    # add hands the same g to both operands first; each is added to later
    "add_g_to_both": lambda a, b, p: sum_all(
        add(hadamard(a, b), hadamard(add(a, b), p(a.tensor.shape, 1)))),
    # views of concat's adjoint: two for a, one for b
    "concat_views": lambda a, b, p: sum_all(
        hadamard(concat_channels([a, b, a]), p((a.tensor.shape[0], 12, 3, 3), 2))),
    # both halves and a middle range of a after a whole adjoint (the
    # backward walks the records in reverse); a range of b first
    "slice_halves": lambda a, b, p: sum_all(add(
        concat_channels([
            add(hadamard(slice_channels(a, 0, 2), p((a.tensor.shape[0], 2, 3, 3), 4)),
                hadamard(slice_channels(a, 2, 4), slice_channels(b, 1, 3))),
            slice_channels(a, 1, 3),
        ]),
        hadamard(a, p(a.tensor.shape, 3)))),
    # a leaf whose adjoint is the broadcast itself
    "sum_all_view": lambda a, b, p: sum_all(a),
}


@pytest.mark.parametrize("graph", sorted(_ALIASING_GRAPHS))
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_adds_in_place_only_into_adjoints_it_allocated(graph, n, dtype, monkeypatch):
    # an array an op hands the tape may be a view of another adjoint, or
    # be handed to several inputs: the tape must leave it as it is, and
    # its in-place sums must give the bits of the out-of-place ones
    handed, received = _spy_on_adjoints(monkeypatch)
    tape = Tape()
    a = tape.leaf(_probe((n, 4, 3, 3), dtype, 40))
    b = tape.leaf(_probe((n, 4, 3, 3), dtype, 41))
    grads = tape.backward(_ALIASING_GRAPHS[graph](a, b, lambda s, k: _probe(s, dtype, 50 + k)))
    for items in handed.values():
        for arr, copy, _ in items:
            assert arr.tobytes() == copy.tobytes(), "the tape wrote into an array an op handed it"
    assert a.id in handed
    for node_id, items in handed.items():
        got = grads[node_id].data if node_id in grads else received[node_id]
        want = _out_of_place(got.shape, dtype, items)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (graph, node_id)
    if b.id not in handed:
        npt.assert_array_equal(grads[b.id].data, np.zeros((n, 4, 3, 3)))
