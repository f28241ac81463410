"""Elementwise arithmetic, channel reductions, and shape plumbing.

All ops here follow the dual-dispatch convention of :mod:`vrfnet.tape`:
plain tensors in, plain tensor out; nodes in, node out (with the adjoint
rule recorded). Binary ops broadcast only the second operand, and only
where its dim is 1: b may collapse batch and spatial axes freely, and
its channel count must equal a's or be 1.

Two ops are not binary broadcasts: they fuse MSCF's pooling and its
scale selection, each into one pass. :func:`channel_avg_max` writes the
channel mean and the channel max into one (n, 2, h, w) buffer, and
:func:`select_scales` computes x * sum_i f_i * m_i over a view of the
concatenated branch outputs.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor
from .tape import Node, tally, tape_of, value_of


def _check_pair(a: Tensor, b: Tensor) -> None:
    if a.dtype != b.dtype:
        raise TypeError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    for da, db in zip(a.shape, b.shape):
        if db != da and db != 1:
            raise ShapeError(f"cannot broadcast shape {b.shape} onto {a.shape}")


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over the axes that were broadcast to reach ``grad.shape``."""
    axes = tuple(i for i, (d, g) in enumerate(zip(shape, grad.shape)) if d == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


def add(a, b):
    ta, tb = value_of(a), value_of(b)
    _check_pair(ta, tb)
    out = Tensor.wrap(ta.data + tb.data)
    tally(eltwise=out.size)
    tape = tape_of(a, b)
    if tape is None:
        return out

    def backward(g, acc):
        acc(a, _unbroadcast(g, ta.shape))
        acc(b, _unbroadcast(g, tb.shape))

    return tape.record(out, "add", backward)


def hadamard(a, b):
    """Elementwise product a * b (b broadcastable onto a)."""
    ta, tb = value_of(a), value_of(b)
    _check_pair(ta, tb)
    out = Tensor.wrap(ta.data * tb.data)
    tally(eltwise=out.size)
    tape = tape_of(a, b)
    if tape is None:
        return out

    def backward(g, acc):
        # a constant operand wants no adjoint: its product is not formed
        if isinstance(a, Node):
            acc(a, _unbroadcast(g * tb.data, ta.shape))
        if isinstance(b, Node):
            acc(b, _unbroadcast(g * ta.data, tb.shape))

    return tape.record(out, "hadamard", backward)


def sum_all(x):
    """Sum over all axes, returned as a (1,1,1,1) scalar tensor."""
    tx = value_of(x)
    out = Tensor.wrap(tx.data.sum(dtype=tx.dtype).reshape(1, 1, 1, 1))
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        # a read-only view: the tape copies it before adding into it
        acc(x, np.broadcast_to(g, tx.shape))

    return tape.record(out, "sum_all", backward)


def channel_avg_max(x):
    """Channel mean and channel max of x, as the two channels of one
    (n, 2, h, w) buffer.

    Both reductions write into their channel of the output (``out=``),
    in numpy's deterministic axis-1 order, so results are bit-stable
    across runs. The mean is the sum divided in place by c, as
    ``np.mean`` computes it, without its Python wrapper. The max routes
    its gradient to the first maximal channel at each pixel; the adjoint
    fills one dx buffer with the mean's share by broadcast and adds the
    max's share at the argmax.
    """
    tx = value_of(x)
    c = tx.shape[1]
    buf = np.empty((tx.shape[0], 2) + tx.shape[2:], dtype=tx.dtype)
    mean = np.add.reduce(tx.data, axis=1, keepdims=True, out=buf[:, 0:1])
    np.true_divide(mean, c, out=mean)
    np.max(tx.data, axis=1, keepdims=True, out=buf[:, 1:2])
    out = Tensor.wrap(buf)
    tally(eltwise=2 * tx.size)
    tape = tape_of(x)
    if tape is None:
        return out

    argmax = tx.data.argmax(axis=1)[:, None]  # first max per pixel

    def backward(g, acc):
        dx = np.empty(tx.shape, dtype=tx.dtype)
        g_mean = g[:, 0:1] / c
        dx[...] = g_mean
        np.put_along_axis(dx, argmax, g_mean + g[:, 1:2], axis=1)
        acc(x, dx)

    return tape.record(out, "channel_avg_max", backward)


def select_scales(cat, mask, x):
    """MSCF's scale selection and gate: y = x * sum_i f_i * m_i.

    ``cat`` (n, S*c, h, w) holds the S branch outputs f_i side by side,
    ``mask`` (n, S, h, w) one selection map m_i per branch and ``x``
    (n, c, h, w) the gate. One einsum sums the products over an
    (n, S, c, h, w) view of ``cat`` in branch order into the output,
    which x then multiplies in place (where c*h*w is 1, einsum would sum
    over the branches as a dot product in another order, so a loop over
    the branches does it instead). The sum s = sum_i f_i * m_i is kept
    for the adjoint only when a tape records the op. Where every product
    is a zero of negative sign, the sum is +0 (einsum starts from +0).
    """
    tc, tm, tx = value_of(cat), value_of(mask), value_of(x)
    if not tc.dtype == tm.dtype == tx.dtype:
        raise TypeError(f"dtype mismatch: {tc.dtype}, {tm.dtype}, {tx.dtype}")
    n, sc, h, w = tc.shape
    scales, c = tm.shape[1], tx.shape[1]
    if tm.shape != (n, scales, h, w) or tx.shape != (n, c, h, w) or sc != scales * c:
        raise ShapeError(
            f"select_scales needs cat (n,S*c,h,w), mask (n,S,h,w), x (n,c,h,w): "
            f"got {tc.shape}, {tm.shape}, {tx.shape}"
        )
    stack = tc.data.reshape(n, scales, c, h, w)
    if c * h * w > 1:
        s = np.einsum("nschw,nshw->nchw", stack, tm.data)
    else:  # a lone value per sample: einsum would sum it as a dot product, out of order
        s = stack[:, 0] * tm.data[:, :1]
        for i in range(1, scales):
            s += stack[:, i] * tm.data[:, i : i + 1]
    tally(eltwise=2 * scales * s.size)  # S products, S - 1 sums, the gate
    tape = tape_of(cat, mask, x)
    if tape is None:
        return Tensor.wrap(np.multiply(s, tx.data, out=s))
    out = Tensor.wrap(s * tx.data)

    def backward(g, acc):
        gx = g * tx.data
        acc(cat, (gx[:, None] * tm.data[:, :, None]).reshape(tc.shape))
        acc(mask, np.einsum("nchw,nschw->nshw", gx, stack))
        del gx  # freed before x's gradient is formed
        acc(x, g * s)

    return tape.record(out, "select_scales", backward)


def spatial_mean(x):
    """Global average pool over (h, w), out (n,c,1,1): the sum divided in
    place by h*w, as ``np.mean`` computes it."""
    tx = value_of(x)
    hw = tx.shape[2] * tx.shape[3]
    mean = np.add.reduce(tx.data, axis=(2, 3), keepdims=True)
    out = Tensor.wrap(np.true_divide(mean, hw, out=mean))
    tally(eltwise=tx.size)
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        acc(x, np.broadcast_to(g / hw, tx.shape).copy())

    return tape.record(out, "spatial_mean", backward)


def concat_channels(parts):
    """Concatenate along the channel axis."""
    parts = list(parts)
    tensors = [value_of(p) for p in parts]
    ref = tensors[0]
    for t in tensors[1:]:
        if t.dtype != ref.dtype:
            raise TypeError("concat dtype mismatch")
        if (t.shape[0], t.shape[2], t.shape[3]) != (ref.shape[0], ref.shape[2], ref.shape[3]):
            raise ShapeError(f"concat needs matching (n,h,w): {t.shape} vs {ref.shape}")
    out = Tensor.wrap(np.concatenate([t.data for t in tensors], axis=1))
    tape = tape_of(*parts)
    if tape is None:
        return out

    widths = [t.shape[1] for t in tensors]

    def backward(g, acc):
        off = 0
        for p, c in zip(parts, widths):
            acc(p, g[:, off : off + c])
            off += c

    return tape.record(out, "concat_channels", backward)


def slice_channels(x, start: int, stop: int):
    """Channel slice x[:, start:stop]: a view of x where that is contiguous
    (batch 1), otherwise a copy. The adjoint is added into that channel
    range of x's adjoint alone."""
    tx = value_of(x)
    if not (0 <= start < stop <= tx.shape[1]):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for shape {tx.shape}")
    out = Tensor.wrap(tx.data[:, start:stop])
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        acc(x, g, slice(start, stop))

    return tape.record(out, "slice_channels", backward)
