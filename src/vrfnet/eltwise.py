"""Elementwise arithmetic, channel reductions, and shape plumbing.

Every op here computes its output, defines its adjoint rule, and
returns through :func:`vrfnet.tape.emit`: plain tensors in, plain
tensor out; nodes in, node out (with the rule recorded). Binary ops
broadcast only the second operand, and only
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
from .tape import Node, emit, op_entry, share_value, value_of


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


@op_entry
def add(a, b):
    ta, tb = value_of(a), value_of(b)
    _check_pair(ta, tb)
    out = Tensor.wrap(ta.data + tb.data)
    sa, sb = ta.shape, tb.shape  # all the adjoint needs: the operands may be freed

    def backward(g, acc):
        acc(a, _unbroadcast(g, sa))
        acc(b, _unbroadcast(g, sb))

    return emit("add", out, (a, b), backward, eltwise=out.size)


@op_entry
def hadamard(a, b):
    """Elementwise product a * b (b broadcastable onto a)."""
    ta, tb = value_of(a), value_of(b)
    _check_pair(ta, tb)
    out = Tensor.wrap(ta.data * tb.data)

    def backward(g, acc):
        # a constant operand wants no adjoint: its product is not formed
        if isinstance(a, Node):
            acc(a, _unbroadcast(g * tb.data, ta.shape))
        if isinstance(b, Node):
            acc(b, _unbroadcast(g * ta.data, tb.shape))

    return emit("hadamard", out, (a, b), backward, eltwise=out.size)


@op_entry
def sum_all(x):
    """Sum over all axes, returned as a (1,1,1,1) scalar tensor.

    The sum runs over the elements in C order, flattened: numpy's pairwise
    sum of a channel slice's view would group them by sample, so a view
    is flattened into a copy and sums to the bits of its C-order copy.
    """
    tx = value_of(x)
    out = Tensor.wrap(tx.data.reshape(-1).sum(dtype=tx.dtype).reshape(1, 1, 1, 1))

    def backward(g, acc):
        # a read-only view: the tape copies it before adding into it
        acc(x, np.broadcast_to(g, tx.shape))

    return emit("sum_all", out, (x,), backward)


@op_entry
def channel_avg_max(x):
    """Channel mean and channel max of x, as the two channels of one
    (n, 2, h, w) buffer.

    Both reductions write into their channel of the output (``out=``),
    in numpy's deterministic axis-1 order, so results are bit-stable
    across runs. The mean is the sum divided in place by c, as
    ``np.mean`` computes it, without its Python wrapper. The max routes
    its gradient to the first maximal channel at each pixel; the adjoint
    fills one dx buffer with the mean's share by broadcast and writes
    the max's share at the argmax, one flat-index assignment whose
    indices it forms from ``argmax`` of the saved input.
    """
    tx = value_of(x)
    n, c, h, w = tx.shape
    buf = np.empty((n, 2, h, w), dtype=tx.dtype)
    mean = np.add.reduce(tx.data, axis=1, keepdims=True, out=buf[:, 0:1])
    np.true_divide(mean, c, out=mean)
    np.max(tx.data, axis=1, keepdims=True, out=buf[:, 1:2])

    def backward(g, acc):
        # the flat index in x of each pixel's first max: its sample's
        # offset plus its channel's plus the pixel's
        flat = tx.data.argmax(axis=1)
        flat *= h * w
        flat += np.arange(0, tx.size, c * h * w).reshape(n, 1, 1)
        flat += np.arange(h * w).reshape(h, w)
        dx = np.empty(tx.shape, dtype=tx.dtype)
        g_mean = g[:, 0:1] / c
        dx[...] = g_mean
        dx.reshape(-1)[flat] = (g_mean + g[:, 1:2]).reshape(flat.shape)
        acc(x, dx)

    return emit("channel_avg_max", Tensor.wrap(buf), (x,), backward, eltwise=2 * tx.size)


@op_entry
def select_scales(cat, mask, x):
    """MSCF's scale selection and gate: y = x * sum_i f_i * m_i.

    ``cat`` (n, S*c, h, w) holds the S branch outputs f_i side by side,
    ``mask`` (n, S, h, w) one selection map m_i per branch and ``x``
    (n, c, h, w) the gate. One einsum sums the products over an
    (n, S, c, h, w) view of ``cat`` in branch order into the output,
    which x then multiplies in place (where c*h*w is 1, einsum would sum
    over the branches as a dot product in another order, so a loop over
    the branches does it instead). Where every product is a zero of
    negative sign, the sum is +0 (einsum starts from +0).

    The op keeps no sum: its adjoint recomputes s = sum_i f_i * m_i as
    the forward does, for x's adjoint g * s. It forms g * x in slot 0 of
    one fresh (n, S, c, h, w) buffer; the mask's adjoint reads it there,
    and then every slot i is made g * x * m_i, the adjoint of ``cat``,
    which the tape is handed (see :meth:`~vrfnet.tape.Tape.record`).
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

    def scale_sum():
        if c * h * w > 1:
            return np.einsum("nschw,nshw->nchw", stack, tm.data)
        # a lone value per sample: einsum would sum it as a dot product, out of order
        s = stack[:, 0] * tm.data[:, :1]
        for i in range(1, scales):
            s += stack[:, i] * tm.data[:, i : i + 1]
        return s

    s = scale_sum()
    out = Tensor.wrap(np.multiply(s, tx.data, out=s))

    def backward(g, acc):
        dcat = np.empty(stack.shape, dtype=g.dtype)
        # x read through its node: a concat may have pointed it at its stack
        gx = np.multiply(g, value_of(x).data, out=dcat[:, 0])
        dmask = np.einsum("nchw,nschw->nshw", gx, stack)
        np.multiply(gx[:, None], tm.data[:, 1:, None], out=dcat[:, 1:])
        np.multiply(gx, tm.data[:, :1], out=gx)
        del gx
        acc(cat, dcat.reshape(tc.shape), handover=True)
        del dcat  # the tape may add into it from now on
        acc(mask, dmask)
        del dmask  # freed before x's gradient is formed
        dx = scale_sum()
        acc(x, np.multiply(g, dx, out=dx))

    # S products, S - 1 sums, the gate
    return emit("select_scales", out, (cat, mask, x), backward, eltwise=2 * scales * s.size)


@op_entry
def spatial_mean(x):
    """Global average pool over (h, w), out (n,c,1,1): the sum divided in
    place by h*w, as ``np.mean`` computes it."""
    tx = value_of(x)
    hw = tx.shape[2] * tx.shape[3]
    mean = np.add.reduce(tx.data, axis=(2, 3), keepdims=True)
    out = Tensor.wrap(np.true_divide(mean, hw, out=mean))

    def backward(g, acc):
        # a read-only view: the tape copies it before adding into it
        acc(x, np.broadcast_to(g / hw, tx.shape))

    return emit("spatial_mean", out, (x,), backward, eltwise=tx.size)


@op_entry
def concat_channels(parts, channels: int):
    """Concatenate along the channel axis into one buffer ``channels`` wide.

    ``parts`` may be any iterable: each part is copied in as it arrives
    and not held afterwards unless it is a tape node, so a generator of
    branch outputs holds one branch at a time besides the buffer. A part
    that an op recorded on a tape is not held twice either: its node is
    pointed at its channel range of the buffer, an equal view
    (:func:`~vrfnet.tape.share_value`), as soon as it is copied in. A
    leaf, and a plain tensor, keep their own values. Under a probe replay
    the op's entry gathers a generator of parts into a list first (see
    :mod:`vrfnet.tape`); everywhere else the parts stream.
    """
    out = None
    kept = []  # the parts that are nodes, and the widths of the others
    off = 0
    for part in parts:
        t = value_of(part)
        if out is None:
            out = np.empty((t.shape[0], channels) + t.shape[2:], dtype=t.dtype)
        elif t.dtype != out.dtype:
            raise TypeError("concat dtype mismatch")
        elif (t.shape[0],) + t.shape[2:] != (out.shape[0],) + out.shape[2:]:
            raise ShapeError(f"concat needs matching (n,h,w): {t.shape} vs {out.shape}")
        c = t.shape[1]
        if off + c > channels:
            raise ShapeError(f"concat parts are wider than the {channels} channels given")
        out[:, off : off + c] = t.data
        if isinstance(part, Node):
            share_value(part, out[:, off : off + c])
        kept.append(part if isinstance(part, Node) else c)
        off += c
        del part, t  # the next part is computed without this one
    if out is None or off != channels:
        raise ShapeError(f"concat parts are {off} channels wide, not {channels}")

    def backward(g, acc):
        off = 0
        for part in kept:
            c = part if isinstance(part, int) else part.tensor.shape[1]
            acc(part, g[:, off : off + c])
            off += c

    return emit("concat_channels", Tensor.wrap(out), kept, backward)


@op_entry
def slice_channels(x, start: int, stop: int):
    """Channel slice x[:, start:stop]: a view of x at every batch size,
    each sample of it one C-contiguous block (see :class:`Tensor`). The
    adjoint is added into that channel range of x's adjoint alone."""
    tx = value_of(x)
    if not (0 <= start < stop <= tx.shape[1]):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for shape {tx.shape}")
    out = Tensor.wrap(tx.data[:, start:stop])

    def backward(g, acc):
        acc(x, g, slice(start, stop))

    return emit("slice_channels", out, (x,), backward)
