"""Tensors whose samples lie apart: channel slices kept as views.

``Tensor.wrap`` keeps any rank-4 array whose samples are each one
C-contiguous block, so at batch > 1 a channel slice is a view whose batch
stride exceeds a sample. Every op must give the bits it gives on the
slice's C-order copy, forward and adjoint.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_memory

from vrfnet import (
    ConvSpec,
    DropoutState,
    Rng,
    Tape,
    Tensor,
    add,
    batch_norm,
    channel_avg_max,
    concat_channels,
    conv2d,
    dropout,
    hadamard,
    relu,
    select_scales,
    sigmoid,
    sigmoid_gate,
    slice_channels,
    spatial_mean,
    sum_all,
)
from vrfnet import ops


def _same_bits(a, b):
    # values and signs of zeros; unlike tobytes() blind to longdouble's padding bytes
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_wrap_keeps_arrays_whose_samples_are_contiguous_blocks():
    base = np.arange(3 * 6 * 4 * 5, dtype=np.float64).reshape(3, 6, 4, 5)
    for kept in (base[:, 1:4], base[:, 2:3], base[::2], base[::2, 3:]):
        t = Tensor.wrap(kept)
        assert np.shares_memory(t.data, base) and np.array_equal(t.data, kept)
        assert all(sample.flags.c_contiguous for sample in t.data)
        assert not t.data.flags.writeable and base.flags.writeable


def test_wrap_copies_every_other_layout():
    base = np.arange(3 * 6 * 4 * 5, dtype=np.float64).reshape(3, 6, 4, 5)
    e = base.itemsize
    copied = {
        "row crop": base[:, :, 1:3],
        "column crop": base[:, :, :, 1:4],
        "transpose": base.transpose(0, 1, 3, 2),
        "reversed batch": base[::-1],
        "broadcast batch": np.broadcast_to(base[:1], base.shape),
        # each sample a block of 6*4*5 elements, starting 60 elements apart
        "overlapping samples": np.lib.stride_tricks.as_strided(
            base, (2, 6, 4, 5), (60 * e, 20 * e, 5 * e, e)),
    }
    for name, arr in copied.items():
        t = Tensor.wrap(arr)
        assert not np.shares_memory(t.data, base), name
        assert t.data.flags.c_contiguous and np.array_equal(t.data, arr), name


def _conv(spec):
    def run(x, w, b):
        return conv2d(x, w, b, spec)
    return run


OPS = ["add", "hadamard", "sum_all", "channel_avg_max", "select_scales", "spatial_mean",
       "concat", "slice", "relu", "sigmoid", "sigmoid_gate", "batch_norm-train",
       "batch_norm-eval", "dropout", "depthwise", "pointwise", "dense", "grouped"]


@st.composite
def view_cases(draw, ops=st.sampled_from(OPS), n=st.integers(1, 3), c=st.integers(2, 5),
               h=st.integers(3, 8), w=st.integers(3, 8)):
    """An op case: (name, op, activation inputs, constant arguments, dtype,
    depthwise tile, a probe scale per sample).

    The activations are passed as channel slices or as their copies; a
    conv's weights and bias, batch norm's affine and a dropout state are
    the same in both runs. ``tile`` is the depthwise kernel's tile: 0
    and 100 run the row-padded layout with tiles of one or a few planes
    (crossing from one sample into the next) and band the im2col
    columns by rows; 1 << 40 runs the window layout and one band.
    """
    n, c, h, w = draw(n), draw(c), draw(h), draw(w)
    rng = Rng(draw(st.integers(0, 2**16)))
    x = (n, c, h, w)
    op = draw(ops)
    consts = []
    if op in ("add", "hadamard"):
        fn, shapes = {"add": add, "hadamard": hadamard}[op], [x, x]
    elif op == "select_scales":
        s = draw(st.integers(1, 3))
        fn, shapes = select_scales, [(n, s * c, h, w), (n, s, h, w), x]
    elif op == "concat":
        fn, shapes = (lambda a, b: concat_channels([a, b], 2 * c)), [x, x]
    elif op == "slice":
        fn, shapes = (lambda a: slice_channels(a, 1, c)), [x]
    elif op.startswith("batch_norm"):
        mode = op.split("-")[1]
        stats = [Tensor(rng.uniform((1, c, 1, 1), 0.5, 1.5)) for _ in range(2)]

        def fn(a, gamma, beta):
            return batch_norm(a, gamma, beta, *stats, 1e-5, 0.1, mode)[0]
        shapes, consts = [x], [rng.uniform((1, c, 1, 1)) for _ in range(2)]
    elif op == "dropout":
        seed = rng.integers(0, 2**16)
        fn, shapes = (lambda a: dropout(a, DropoutState(0.3, Rng(seed)), "train")), [x]
    elif op in ("depthwise", "pointwise", "dense", "grouped"):
        k, d = draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 2))
        c_out = draw(st.integers(1, 4))
        if op == "depthwise":
            spec = ConvSpec(c, c, k, dilation=d, groups=c)
        elif op == "pointwise":
            spec = ConvSpec(c, c_out, 1)
        elif op == "dense":
            spec = ConvSpec(c, c_out, k, dilation=d)
        else:  # groups of more than one channel, or depthwise with two outputs a channel
            g = draw(st.sampled_from([q for q in range(2, c + 1) if c % q == 0]))
            spec = ConvSpec(c, g * (2 if g == c else draw(st.integers(1, 2))), 3, dilation=d,
                            groups=g)
        fn, shapes = _conv(spec), [x]
        consts = [rng.uniform(spec.weight_shape), rng.uniform(spec.bias_shape)]
    else:
        fn = {"sum_all": sum_all, "channel_avg_max": channel_avg_max, "relu": relu,
              "sigmoid": sigmoid, "sigmoid_gate": sigmoid_gate,
              "spatial_mean": spatial_mean}[op]
        shapes = [x]
    inputs = [rng.uniform(s, -2.0, 2.0) for s in shapes]
    dtype = draw(st.sampled_from([np.float32, np.float64, np.longdouble]))
    tile = draw(st.sampled_from([0, 100, 1 << 40]))
    return op, fn, inputs, consts, dtype, tile, rng.uniform((n, 1, 1, 1))


def _run(fn, inputs, consts, as_views, adjoint_view, scale):
    """The op's output and every leaf gradient of sum(y * probe).

    With ``as_views`` each input is the channel range 1..c+1 of an array
    two channels wider. With ``adjoint_view`` the output's adjoint is a
    channel range of a wider one too: y is concatenated with a constant
    channel, so its adjoint is a slice of the concat's.
    """
    tape = Tape()
    leaves = []
    for a in inputs:
        if as_views:
            wide = np.zeros((a.shape[0], a.shape[1] + 2) + a.shape[2:], dtype=a.dtype)
            wide[:, 1:-1] = a
            t = Tensor.wrap(wide[:, 1:-1])
            assert np.shares_memory(t.data, wide)
            assert a.shape[0] == 1 or not t.data.flags.c_contiguous
        else:
            t = Tensor.wrap(a.copy())
        leaves.append(tape.leaf(t))
    leaves += [tape.leaf(Tensor.wrap(a)) for a in consts]
    y = fn(*leaves)
    yd = y.tensor.data
    probe = np.broadcast_to(np.linspace(-1, 1, yd.shape[1]).reshape(1, -1, 1, 1), yd.shape)
    probe = (probe * scale[: yd.shape[0]]).astype(yd.dtype)
    if adjoint_view:
        pad = Tensor.wrap(np.zeros(yd.shape[:1] + (1,) + yd.shape[2:], dtype=yd.dtype))
        wide = np.concatenate([probe, pad.data], axis=1)
        loss = sum_all(hadamard(concat_channels([y, pad], yd.shape[1] + 1), Tensor.wrap(wide)))
    else:
        loss = sum_all(hadamard(y, Tensor.wrap(probe)))
    grads = tape.backward(loss)
    return [yd] + [grads[leaf.id].data for leaf in leaves]


@settings(max_examples=300, deadline=None)
@given(case=view_cases())
def test_every_op_gives_the_same_bits_on_a_channel_slice_as_on_its_copy(case):
    _check_same_bits(case)


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_every_op_gives_the_same_bits_on_a_large_channel_slice(op, data):
    # past 8192 elements numpy reduces a strided array a buffer at a time,
    # and a flat sum of a slice's view then adds in another order
    _check_same_bits(data.draw(view_cases(st.just(op), st.just(3), st.just(24),
                                          st.just(20), st.just(20))))


def _check_same_bits(case):
    op, fn, inputs, consts, dtype, tile, scale = case
    inputs = [a.astype(dtype) for a in inputs]
    consts = [a.astype(dtype) for a in consts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_DW_TILE", tile)
        want = _run(fn, inputs, consts, False, False, scale)
        got = _run(fn, inputs, consts, True, True, scale)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert _same_bits(a, b), (op, dtype, tile, inputs[0].shape, "output" if i == 0 else i)


def test_row_padded_depthwise_conv_reads_a_channel_slice_where_it_lies():
    # the planes are copied into each tile from the 4-D slice; a reshape of
    # the slice to (n*c, h, w) would first copy all of it
    c, h, d = 64, 40, 7
    spec = ConvSpec(c, c, 3, dilation=d, groups=c)
    x = slice_channels(Rng(64).tensor((2, 2 * c, h, h), dtype=np.float32), c, 2 * c)
    assert not x.data.flags.c_contiguous
    w, b = ops.init_conv_params(spec, Rng(65), np.float32)
    row, size = h + spec.padding, (h + 2 * spec.padding) * (h + spec.padding) + 2 * d
    tile = ops._DW_TILE // (h * row)
    want = conv2d(Tensor.wrap(x.data.copy()), w, b, spec)  # also fills first-call caches
    with traced_memory() as mem:
        y = conv2d(x, w, b, spec)
        peak = mem.peak()
    assert _same_bits(y.data, want.data)
    # as in test_row_padded_depthwise_forward_holds_one_tile_of_planes
    bound = y.data.nbytes + 4 * tile * (size + h * row) + 64 * 1024
    assert peak <= bound, f"peak {peak} B against its output, one tile and accumulator {bound} B"
