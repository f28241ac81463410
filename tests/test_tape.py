import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import vrfnet
from conftest import traced_memory
from vrfnet import (
    GConvBlock,
    GconvConfig,
    GmcfBlock,
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
    value_of,
)
from vrfnet.tape import counting, emit


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
    with traced_memory() as mem:
        grads = tape.backward(loss)
        peak = mem.peak()
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
def test_backward_peak_stays_under_38_input_sized_arrays(shape):
    # In units of the input's bytes the backward's peak reads 32.1 at
    # (1,8,16,16) and 31.9 at (2,8,12,12). It read 43.1 and 42.8 while the
    # tape held some activations twice (a concat's parts beside the stack,
    # an im2col conv's columns), and 42.2 and 41.9 with a walk that keeps
    # every adjoint and rule to its end. The bound is fixed to the input's
    # size, not to what the forward holds, so a forward that holds less
    # does not tighten it.
    block = GmcfBottleneck(GmcfConfig(c=8), Rng(20), np.float64)
    x = Rng(21).tensor(shape)
    block.forward(x, mode="train")  # first-call caches are not the forward's memory
    with traced_memory() as mem:
        tape = Tape()
        xn = tape.leaf(x, "input")
        pn = {k: tape.leaf(t, k) for k, t in block.params().items()}
        loss = sum_all(block.forward(xn, pn, "train"))
        mem.reset_peak()
        grads = tape.backward(loss)
        peak = mem.peak()
    assert len(grads) == 1 + len(pn)
    bound = 38 * x.data.nbytes
    assert peak < bound, f"backward peak {peak} B is over {bound} B, 38 input-sized arrays"


def test_a_train_step_holds_each_activation_once():
    # a train step of the benchmark's kind at c=16, 24x24 f32: tape forward
    # with dropout at both sites, a weighted-sum loss, backward. It peaked
    # at 1,240,442 B while the tape held MSCF's branches beside their
    # concat, the mask conv's columns and select_scales' sum, and while
    # channel_avg_max's adjoint formed a second sum with select_scales';
    # at 993,674 B without them
    c = 16
    cfg = GmcfConfig(c=c, dropout=0.1, gconv=GconvConfig(c=c, dropout=0.1))
    block = GmcfBottleneck(cfg, Rng(1), np.float32, dropout_rng=Rng(4))
    x = Rng(2).tensor((1, c, 24, 24), -1, 1, np.float32)
    r = Rng(5).tensor((1, c, 24, 24), -1, 1, np.float32)

    def step():
        tape = Tape()
        xn = tape.leaf(x, "input")
        pn = {k: tape.leaf(t, k) for k, t in block.params().items()}
        return tape.backward(sum_all(hadamard(block.forward(xn, pn, "train"), r)))

    step()  # first-call caches are not the step's memory
    with traced_memory() as mem:
        grads = step()
        peak = mem.peak()
    assert len(grads) == 1 + len(block.params())
    assert peak < 1_100_000, f"a train step peaked at {peak} B"


def test_a_taped_gmcf_block_holds_no_bottleneck_output_beside_its_concat():
    # the concat points each bottleneck's node at its stack, and the next
    # bottleneck's rules (its MSCF convs, select_scales, the residual add)
    # read their input through that node or keep only its shape, so the
    # array each bottleneck wrote is freed. Were those rules to keep the
    # tensor they were given, output 0 would outlive the forward.
    block = GmcfBlock(GmcfConfig(c=8, n_bottlenecks=2), Rng(36))
    written = []
    for child in (block._children["m0"], block._children["m1"]):
        def forward(xin, params=None, mode="eval", _child=child):
            y = type(_child).forward(_child, xin, params, mode)
            written.append(weakref.ref(value_of(y).data))
            return y

        child.forward = forward
    tape = Tape()
    xn = tape.leaf(Rng(37).tensor((1, 8, 6, 6)), "input")
    pn = {k: tape.leaf(t, k) for k, t in block.params().items()}
    out = block.forward(xn, pn, "train")
    assert [ref() is None for ref in written] == [True, True]
    grads = tape.backward(sum_all(out))
    assert len(grads) == 1 + len(pn)


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


def _never_called(g, acc):
    raise AssertionError("an untaped op's adjoint rule ran")


def test_emit_returns_an_untaped_output_itself_and_counts_its_cost():
    out = Rng(20).tensor((1, 2, 3, 3))
    with counting() as counter:
        assert emit("probe", out, (Rng(21).tensor((1, 2, 3, 3)),), _never_called,
                    macs=7, eltwise=5) is out
        assert emit("probe", out, (), _never_called, eltwise=2) is out
    assert (counter.macs, counter.eltwise) == (7, 7)
    assert emit("probe", out, (), _never_called, macs=1) is out  # no counter open


def test_emit_rejects_nodes_from_two_tapes():
    a, b = (Tape().leaf(Rng(22).tensor((1, 1, 1, 1))) for _ in range(2))
    with pytest.raises(ValueError, match="different tapes"):
        emit("probe", Rng(23).tensor((1, 1, 1, 1)), (a, b), _never_called)


def test_emit_records_nothing_for_constant_inputs():
    # a tape is open, but the op reads only a constant, a missing bias and
    # a width (the forms a conv's and a concat's inputs take)
    tape = Tape()
    x = tape.leaf(Rng(24).tensor((1, 1, 2, 2)))
    out = Rng(25).tensor((1, 1, 2, 2))
    assert emit("probe", out, (Rng(26).tensor((1, 1, 2, 2)), None, 3), _never_called) is out
    assert len(tape) == 1
    node = emit("probe", out, (x, None), _never_called)
    assert isinstance(node, Node) and node.tape is tape and node.op == "probe"
    assert len(tape) == 2


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
            hadamard(slice_channels(concat_channels([t, t], 6), 2, 5), _other()))),
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
        hadamard(concat_channels([a, b, a], 12), p((a.tensor.shape[0], 12, 3, 3), 2))),
    # both halves and a middle range of a after a whole adjoint (the
    # backward walks the records in reverse); a range of b first
    "slice_halves": lambda a, b, p: sum_all(add(
        concat_channels([
            add(hadamard(slice_channels(a, 0, 2), p((a.tensor.shape[0], 2, 3, 3), 4)),
                hadamard(slice_channels(a, 2, 4), slice_channels(b, 1, 3))),
            slice_channels(a, 1, 3),
        ], 4),
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


def _handing(x, *arrays):
    """A tape whose loss reaches leaf ``x`` through one probe op per array,
    each rule handing x its array: ``(arr, handover)`` pairs, the last one
    handed first (the walk runs in reverse). Returns x's gradient."""
    tape = x.tape
    nodes = []
    for arr, handover in arrays:
        def rule(g, acc, arr=arr, handover=handover):
            acc(x, arr, handover=handover)

        nodes.append(tape.record(x.tensor, "probe", rule))
    loss = nodes[0]
    for node in nodes[1:]:
        loss = add(loss, node)  # g itself to both: the probes' rules ignore it
    return tape.backward(sum_all(loss))[x.id].data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_handed_over_adjoint_takes_the_later_sums_in_place(dtype):
    tape = Tape()
    x = tape.leaf(_probe((2, 3, 4, 4), dtype, 60))
    first, second, third = (_probe((2, 3, 4, 4), dtype, 61 + k).data.copy() for k in range(3))
    want = (first + second) + third
    kept = second.copy(), third.copy()
    got = _handing(x, (third, False), (second, False), (first, True))
    assert np.shares_memory(got, first), "the tape copied a handed-over adjoint"
    assert got.tobytes() == want.tobytes()
    assert (second.tobytes(), third.tobytes()) == tuple(k.tobytes() for k in kept)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", ["view", "g", "broadcast"])
def test_an_adjoint_handed_without_the_flag_is_never_written(form, dtype):
    # the first adjoint is a view of a wider array, the adjoint the rule
    # received, or a read-only broadcast; a handed-over array then takes
    # the sum, and a third is added into that
    shape = (2, 3, 4, 4)
    tape = Tape()
    x = tape.leaf(_probe(shape, dtype, 70))
    wide = _probe((2, 6, 4, 4), dtype, 71).data.copy()
    row = _probe((1, 1, 1, 4), dtype, 72).data
    handed, third = (_probe(shape, dtype, 73 + k).data.copy() for k in range(2))
    seen = {}

    def first_rule(g, acc):
        arr = {"view": wide[:, 1:4], "g": g, "broadcast": np.broadcast_to(row, shape)}[form]
        seen["first"], seen["copy"] = arr, arr.copy()
        acc(x, arr)

    def handing_rule(g, acc):
        acc(x, handed, handover=True)

    def third_rule(g, acc):
        acc(x, third)

    a = tape.record(x.tensor, "probe", third_rule)
    b = tape.record(x.tensor, "probe", handing_rule)
    c = tape.record(x.tensor, "probe", first_rule)
    want_handed = handed.copy()
    loss = sum_all(hadamard(add(add(a, b), c), _probe(shape, dtype, 75)))
    got = tape.backward(loss)[x.id].data
    first = seen["first"]
    assert first.tobytes() == seen["copy"].tobytes(), "the tape wrote into an array it was lent"
    assert np.shares_memory(got, handed)
    assert got.tobytes() == ((seen["copy"] + want_handed) + third).tobytes()


def test_a_taped_concat_points_its_recorded_parts_at_the_stack():
    tape = Tape()
    leaf = tape.leaf(Rng(80).tensor((2, 3, 4, 4)))
    plain = Rng(81).tensor((2, 1, 4, 4))
    made = sigmoid(leaf)  # a recorded op's node
    view = slice_channels(leaf, 1, 3)  # a recorded op whose value is a view
    olds = {id(node): (node.tensor, node.tensor.data.copy()) for node in (leaf, made, view)}
    plain_old = plain.data
    out = concat_channels([made, leaf, plain, view, made], 12)
    stack = out.tensor.data
    for node in (made, view):
        old, copy = olds[id(node)]
        assert node.tensor is not old and np.shares_memory(node.tensor.data, stack)
        assert node.tensor.shape == old.shape and node.tensor.dtype == old.dtype
        assert node.tensor.data.tobytes() == copy.tobytes()
    assert leaf.tensor is olds[id(leaf)][0] and not np.shares_memory(leaf.tensor.data, stack)
    assert plain.data is plain_old
    grads = tape.backward(sum_all(hadamard(out, Rng(82).tensor((2, 12, 4, 4)))))
    assert grads[leaf.id].shape == (2, 3, 4, 4)


def _select_scales_adjoints_by_formula(g, f, m, x):
    """``select_scales``' adjoints for the output adjoint ``g``, each as
    the op formed it before its adjoint recomputed the sum: the cat's as
    one product g * x * m_i, the mask's as one einsum over g * x, and
    x's as g times the forward's sum."""
    n, scales, h, w = m.shape
    c = x.shape[1]
    stack = f.reshape(n, scales, c, h, w)
    if c * h * w > 1:
        s = np.einsum("nschw,nshw->nchw", stack, m)
    else:
        s = stack[:, 0] * m[:, :1]
        for i in range(1, scales):
            s += stack[:, i] * m[:, i : i + 1]
    gx = g * x
    return ((gx[:, None] * m[:, :, None]).reshape(f.shape),
            np.einsum("nchw,nschw->nshw", gx, stack), g * s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
@pytest.mark.parametrize("n,scales,c,h,w", [(1, 3, 4, 5, 6), (2, 3, 4, 3, 3), (2, 4, 1, 1, 1),
                                            (3, 2, 1, 1, 1), (1, 1, 2, 3, 2)])
def test_select_scales_adjoints_keep_the_bits_of_their_formulas(n, scales, c, h, w, dtype):
    # branches and masks with ties (a branch equal to another, a mask
    # map equal to another) and zeros of both signs everywhere; the loss
    # weights the output by g, so the op's adjoint is g itself
    def values(shape, seed):
        return _probe(shape, np.float64, seed).data.astype(dtype)

    f = values((n, scales * c, h, w), 91)
    m = values((n, scales, h, w), 92)
    if scales > 1:
        f[:, c : 2 * c] = f[:, :c]
        m[:, -1] = m[:, 0]
    x, g = values((n, c, h, w), 93), values((n, c, h, w), 94)
    tape = Tape()
    nodes = [tape.leaf(Tensor.wrap(a.copy())) for a in (f, m, x)]
    y = select_scales(*nodes)
    grads = tape.backward(sum_all(hadamard(y, Tensor.wrap(g.copy()))))
    for node, want in zip(nodes, _select_scales_adjoints_by_formula(g, f, m, x)):
        got = grads[node.id].data
        assert got.dtype == dtype and got.shape == want.shape
        # array_equal and signbit, not tobytes(): longdouble carries padding bytes
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
