"""Elementwise arithmetic, channel reductions, and shape plumbing.

All ops here follow the dual-dispatch convention of :mod:`vrfnet.tape`:
plain tensors in, plain tensor out; nodes in, node out (with the adjoint
rule recorded). Binary ops broadcast only the second operand, and only
where its dim is 1: b may collapse batch and spatial axes freely, and
its channel count must equal a's or be 1.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor
from .tape import tally, tape_of, value_of


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
        acc(a, _unbroadcast(g * tb.data, ta.shape))
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
        acc(x, np.broadcast_to(g, tx.shape).copy())

    return tape.record(out, "sum_all", backward)


def reduce_channel(kind: str, x):
    """Collapse the channel axis to 1: kind "avg" or "max", out (n,1,h,w).

    The reduction order is numpy's deterministic axis-1 order, so results
    are bit-stable across runs. Max routes gradients to the first maximal
    channel at each pixel.
    """
    tx = value_of(x)
    if kind == "avg":
        out = Tensor.wrap(tx.data.mean(axis=1, keepdims=True, dtype=tx.dtype))
    elif kind == "max":
        out = Tensor.wrap(tx.data.max(axis=1, keepdims=True))
    else:
        raise ValueError(f"unknown reduction {kind!r}")
    tally(eltwise=tx.size)
    tape = tape_of(x)
    if tape is None:
        return out

    c = tx.shape[1]
    if kind == "avg":

        def backward(g, acc):
            acc(x, np.repeat(g / c, c, axis=1))

    else:
        argmax = tx.data.argmax(axis=1)[:, None]  # first max per pixel

        def backward(g, acc):
            dx = np.zeros_like(tx.data)
            np.put_along_axis(dx, argmax, g, axis=1)
            acc(x, dx)

    return tape.record(out, f"reduce_channel_{kind}", backward)


def spatial_mean(x):
    """Global average pool over (h, w), out (n,c,1,1)."""
    tx = value_of(x)
    out = Tensor.wrap(tx.data.mean(axis=(2, 3), keepdims=True, dtype=tx.dtype))
    tally(eltwise=tx.size)
    tape = tape_of(x)
    if tape is None:
        return out

    hw = tx.shape[2] * tx.shape[3]

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
    (batch 1), otherwise a copy."""
    tx = value_of(x)
    if not (0 <= start < stop <= tx.shape[1]):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for shape {tx.shape}")
    out = Tensor.wrap(tx.data[:, start:stop])
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        dx = np.zeros_like(tx.data)
        dx[:, start:stop] = g
        acc(x, dx)

    return tape.record(out, "slice_channels", backward)
