"""Convolution variants, activations, batch normalization, and dropout.

``conv2d`` is the one conv op, and every conv is "same": an odd k,
stride 1 and zero padding p = d(k-1)/2, so its output is h x w as its
input is. A depthwise conv (groups == c_in == c_out: the MSCF branches
and the GConv gate) runs a direct kernel, forward and backward: one
einsum multiplies a strided view that holds every tap's shifted slice
by the taps and sums them in one pass (at dilation 1, one sum per
column of taps). Such a conv does only k*k MACs per output, so it is
bound by memory traffic; im2col would write and read back a k*k-times
copy of its input for a degenerate matmul, and a multiply-then-add loop
over taps makes two passes per tap. The layout follows the conv's size: one whose
tap windows fit in an eighth of a cache-sized tile (the gradient probes'
6x6 planes) sums over a compact copy of its taps' windows, and any
larger one over row-padded planes, which copy nothing per tap but
compute a few outputs per row that are cropped. Those planes are laid
out one cache-sized tile at a time, each tile just before it is summed,
into one tile-sized buffer whose zero padding is written once. Both
layouts give the same bits, at any tile size. The backward is one pass
of the same kernel over the output gradient with the taps flipped: the
pass's sums are the input gradient, and its per-tap dot products with
the input the weight gradient, taps flipped back. So a tape keeps the
conv's input and taps but no padded layout of the input.
Every other conv lowers to im2col plus a batched matmul per group, which
handles dilation and groups in one code path. Its columns are the same
window copy (``_windows``: one strided copy of a window view of the
padded input); a 1x1 conv reads its input as the columns. Where a
sample's columns would exceed four kernel tiles, they are built and
multiplied one band of output rows at a time. A product
of one (sample, group) block runs as a 2-D dot: the same BLAS gemm in
f32 and f64, and in longdouble a loop about twice as fast as matmul's
generic one, with the same sums in the same order. No columns outlive
the forward: a tape keeps an im2col conv's input and taps, as for a
depthwise conv, and the weight gradient builds the columns again.
Every conv's input gradient is its lowering run on the output
gradient, padded as the input is, with the taps flipped (``_input_grad``;
a 1x1 conv's is one product with the transposed taps). All ops are
differentiable under the tape; relu's subgradient at 0 is taken as 0.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from .tensor import Rng, ShapeError, Tensor
from .tape import emit, value_of


@dataclass(frozen=True)
class ConvSpec:
    """Descriptor of every conv: an odd square kernel, stride 1, "same" padding."""

    c_in: int
    c_out: int
    k: int
    _: KW_ONLY
    dilation: int = 1
    groups: int = 1
    bias: bool = True

    def __post_init__(self):
        for name in ("c_in", "c_out", "k", "dilation", "groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"ConvSpec.{name} must be >= 1")
        if self.k % 2 == 0:
            raise ValueError(f"'same' padding requires an odd kernel, got k={self.k}")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ValueError(
                f"channel counts ({self.c_in}, {self.c_out}) not divisible by groups={self.groups}"
            )

    # Each cached property is computed on first use and stored on the
    # (immutable) spec, so conv2d does not rebuild it every call.

    @cached_property
    def padding(self) -> int:
        """The zero padding along h and w that keeps them: d(k-1)/2."""
        return self.dilation * (self.k - 1) // 2

    @cached_property
    def depthwise(self) -> bool:
        return self.groups == self.c_in == self.c_out

    @cached_property
    def fan_in(self) -> int:
        """Weights per output element: the MACs of one output."""
        return (self.c_in // self.groups) * self.k * self.k

    @cached_property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.c_out, self.c_in // self.groups, self.k, self.k)

    @cached_property
    def bias_shape(self) -> tuple[int, int, int, int]:
        return (1, self.c_out, 1, 1)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """The output size for an h x w input: h x w."""
        return h, w


def conv2d(x, w, b, spec: ConvSpec):
    """2-d convolution per ``spec``; "same" zero padding, weights (c_out, c_in/g, k, k).

    Bias is folded into the op (shape (1, c_out, 1, 1)); pass b=None iff
    spec.bias is False.
    """
    tx, tw, tb = value_of(x), value_of(w), value_of(b)
    if tx.shape[1] != spec.c_in:
        raise ShapeError(f"input has {tx.shape[1]} channels, spec expects {spec.c_in}")
    if tw.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {tw.shape} does not match spec {spec.weight_shape}")
    if spec.bias != (tb is not None):
        raise ValueError("bias tensor presence must match spec.bias")
    if tb is not None and tb.shape != spec.bias_shape:
        raise ShapeError(f"bias must have shape {spec.bias_shape}, got {tb.shape}")
    if tw.dtype != tx.dtype or (tb is not None and tb.dtype != tx.dtype):
        raise TypeError("conv operand dtypes must match")

    if spec.depthwise:
        lower, vjp = _depthwise, _depthwise_vjp
    else:
        lower, vjp = _im2col, _im2col_vjp
    out = lower(tx.data, tw.data, tb.data if tb is not None else None, spec)

    def backward(grad, acc):
        dx, dw = vjp(grad, tx.data, tw.data, spec)
        acc(x, dx)
        acc(w, dw)
        if b is not None:
            acc(b, grad.sum(axis=(0, 2, 3)).reshape(spec.bias_shape))

    return emit("conv2d", Tensor.wrap(out), (x, w, b), backward,
                macs=out.size * spec.fan_in, eltwise=out.size if tb is not None else 0)


def _im2col(xd, wd, bd, spec: ConvSpec):
    """Any conv as im2col columns times a matmul per (sample, group) block.

    Where a sample's columns, c_in*k*k*h*w elements, would exceed four
    kernel tiles (``_DW_TILE``), they are built one band of output rows
    at a time, each band times the taps in one product, so the conv
    holds one band of columns. Each output is the same dot product
    either way. The band height follows from one sample's columns, so
    each sample's products have the same shapes at any batch size, and
    a sample's output does not depend on the batch it is in.
    Returns the output alone: no columns outlive the call, and the
    adjoint (:func:`_im2col_vjp`) builds its own.
    """
    n, cin, h, w = xd.shape
    k, d, g = spec.k, spec.dilation, spec.groups
    cog, m = spec.c_out // g, spec.fan_in
    wm = wd.reshape(g, cog, m)

    pointwise = k == 1
    rows = h if pointwise else max(1, 4 * _DW_TILE // (cin * k * k * w))
    if rows >= h:
        # a 1x1 conv's input already is its own columns
        cols = xd if pointwise else _windows(_padded(xd, spec.padding), k, d, h)
        out = _product(wm, cols.reshape(n, g, m, h * w))
    else:
        xp = _padded(xd, spec.padding)
        out = np.empty((n, g, cog, h, w), dtype=xd.dtype)
        for i in range(0, h, rows):
            r = min(rows, h - i)
            # unnamed, so each band's columns are freed before the next's are built
            band = _product(wm, _windows(xp, k, d, r, i).reshape(n, g, m, r * w))
            out[:, :, :, i : i + r] = band.reshape(n, g, cog, r, w)
    out = out.reshape(n, spec.c_out, h, w)
    if bd is not None:
        np.add(out, bd, out=out)
    return out


def _im2col_vjp(grad, xd, wd, spec: ConvSpec):
    """``(dx, dw)`` of an im2col conv for its output gradient ``grad``.

    The input gradient is the same lowering run on the output gradient
    (:func:`_input_grad`), as for a depthwise conv; a pointwise conv's is
    one product of the transposed taps with the gradient. The weight
    gradient is the gradient times the columns, which the forward does
    not keep: a 1x1 conv's are a view of its input, and any other conv's
    are built here again, all of them at once, with the values the
    forward's had.
    """
    n, _, h, w = grad.shape
    g = spec.groups
    go = grad.reshape(n, g, spec.c_out // g, -1)
    if spec.k == 1:
        dx = np.matmul(wd.reshape(g, -1, spec.fan_in).transpose(0, 2, 1), go).reshape(xd.shape)
        cols = xd
    else:
        dx = _input_grad(grad, wd, spec)
        cols = _windows(_padded(xd, spec.padding), spec.k, spec.dilation, h)
    cols = cols.reshape(n, g, -1, h * w)
    dw = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(spec.weight_shape)
    return dx, dw


def _product(wm: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The taps ``wm`` (g, c_out/g, m) times the columns ``cols`` (n, g, m, l),
    a matmul per (sample, group) block. One block is one 2-D dot: the same
    gemm as matmul in f32 and f64, and in longdouble about half the time of
    matmul's generic loop on the gradient probes' convs."""
    if cols.shape[0] * cols.shape[1] == 1:
        return np.dot(wm[0], cols[0, 0])
    return np.matmul(wm, cols)


def _input_grad(grad: np.ndarray, wd: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The input gradient (n, c_in, h, w) of the conv ``spec`` for its
    output gradient ``grad`` (n, c_out, h, w): a conv of the gradient.

    The adjoint of a "same" correlation is the correlation, at the same
    dilation and padding, with the taps flipped and each group's in and
    out channels swapped (Dumoulin & Visin, *A guide to convolution
    arithmetic*, 2016). The sums run one kernel row at a time: a row's
    windows, (n, c_out, k, h, w), hold k taps a position where all rows'
    would hold k*k, and one matmul per row multiplies them by that row's
    taps. The rows' products are added in order.
    """
    n, c_out, h, w = grad.shape
    k, d, g = spec.k, spec.dilation, spec.groups
    cig, cog = spec.c_in // g, c_out // g
    gz = _padded(grad, spec.padding)
    # taps[u] (g, cig, cog*k): row u of the flipped taps, in channel by
    # (out channel, tap column), the order of a row's windows
    taps = wd.reshape(g, cog, cig, k, k)[:, :, :, ::-1, ::-1].transpose(3, 0, 2, 1, 4)
    taps = taps.reshape(k, g, cig, cog * k)
    sn, sc, sh, sw = gz.strides
    dx = part = None
    for u in range(k):
        rows = np.ndarray((n, c_out, k, h, w), gz.dtype, gz, u * d * sh,
                          (sn, sc, sw * d, sh, sw)).copy()
        rows = rows.reshape(n, g, cog * k, h * w)
        if dx is None:
            dx = np.matmul(taps[u], rows)
        else:
            part = np.matmul(taps[u], rows, out=part)
            np.add(dx, part, out=dx)
    return dx.reshape(n, spec.c_in, h, w)


def _padded(xd: np.ndarray, p: int) -> np.ndarray:
    """``xd`` (n, c, h, w) zero-padded by ``p`` along h and w, in one buffer:
    the window view of :func:`_windows` needs one, which a broadcast
    adjoint or a channel slice is not."""
    if not p:
        return np.ascontiguousarray(xd)
    n, c, h, w = xd.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=xd.dtype)
    xp[:, :, p : p + h, p : p + w] = xd
    return xp


def _windows(xp: np.ndarray, k: int, d: int, rows: int, top: int = 0) -> np.ndarray:
    """Every tap's window of ``xp`` (n, c, h + 2p, w + 2p), an input padded
    by p = d(k-1)/2, for ``rows`` output rows from row ``top`` on: a
    C-order copy (n, c, k, k, rows, w) whose element (u, v, i, j) is xp
    at row u*d + top + i, column v*d + j.

    The copy is of one strided view (np.ndarray, not as_strided: see
    :func:`_dw_conv`). It is C-order because a reshape of the view alone
    can return a strided view (when a padded row is k wide, say), which
    matmul and einsum sum in another order.
    """
    n, c, _, width = xp.shape
    sn, sc, sh, sw = xp.strides
    view = np.ndarray((n, c, k, k, rows, width - d * (k - 1)), xp.dtype, xp, top * sh,
                      (sn, sc, sh * d, sw * d, sh, sw))
    return view.copy()


# The row-padded depthwise kernel lays out and sums one tile of (sample,
# channel) planes at a time, in one buffer, the tile holding about this
# many output elements, so that its planes and accumulator stay in L2.
# A conv whose tap windows fit in an eighth of a tile runs on a copy of
# them instead (see _dw). An im2col conv whose columns would exceed four
# tiles a sample builds them a band of output rows at a time (see _im2col).
_DW_TILE = 1 << 16


def _depthwise(xd, wd, bd, spec: ConvSpec):
    """A depthwise conv as a sum of shifted slices.

    No im2col columns: each tap multiplies a strided window of the
    padded planes (see :func:`_dw`). The forward keeps no layout of its
    input: its planes or windows are freed when it returns, and the
    adjoint (:func:`_depthwise_vjp`) needs only the input and the taps.
    """
    k = spec.k
    return _dw(xd, wd.reshape(xd.shape[1], k, k), spec.dilation, bd)[0]


def _depthwise_vjp(grad, xd, wd, spec: ConvSpec):
    """``(dx, dw)`` of a depthwise conv for its output gradient
    ``grad``: one pass of the same kernel over ``grad`` with the taps
    flipped, the adjoint of a correlation being the flipped correlation.
    The pass gives the input gradient, and its ``weight_grad`` applied to
    the input gives the weight gradient with its taps flipped: tap (u, v)
    of the conv pairs g[i, j] with x[i + ud - p, j + vd - p], and the
    pass's tap (k-1-u, k-1-v) pairs the same values.
    """
    k = spec.k
    dx, weight_grad = _dw(grad, wd.reshape(-1, k, k)[:, ::-1, ::-1], spec.dilation, None)
    dw = weight_grad(xd)[:, ::-1, ::-1]
    return dx, dw.reshape(spec.weight_shape)


def _dw(xd: np.ndarray, taps: np.ndarray, d: int, bias):
    """The "same" depthwise conv of ``xd`` (n, c, h, w) with ``taps`` (c, k, k)
    at dilation ``d``, padded by d(k-1)/2, in the layout its size calls for.

    A conv whose tap windows, n*c*k*k*h*w elements, fit in an eighth of
    a kernel tile (``_DW_TILE``) and that has more than one output a
    plane runs on a compact copy of its taps' windows
    (:func:`_dw_window`); every other one on row-padded planes
    (:func:`_dw_conv`), which copies no window. On small planes the
    row-padded layout computes outputs it then crops (2.2x the needed
    ones at dilation 7 on 6x6); on larger ones the k*k-fold copy of the
    input costs more than that, at dilation 1 from about an eighth of a
    tile on. With one output a plane, einsum would sum the taps as a dot
    product, in another order. The two layouts give the same bits.
    Returns the output and ``weight_grad(y) -> (c, k, k)``: per tap, the
    sum over outputs of y (shaped like the output) times the padded
    input that tap reads.
    """
    n, c, h, w = xd.shape
    k = taps.shape[-1]
    kernel = _dw_window if 1 < h * w and n * c * k * k * h * w <= _DW_TILE // 8 else _dw_conv
    return kernel(xd, taps, d, d * (k - 1) // 2, bias)


def _dw_window(xd: np.ndarray, taps: np.ndarray, d: int, p: int, bias):
    """Depthwise conv on a compact copy of its taps' windows.

    The windows are :func:`_windows`' copy, (n, c, k, k, h*w). The sums
    are those of :func:`_dw_conv`, with the taps and bias indexed per
    channel: one einsum over all taps, or at d = 1 one sum per column of
    them (one einsum that keeps the column axis), the columns then added
    in order. Each output sums the same products in the same order as
    there, so the two give the same bits, NaN from a non-finite tap that
    reads only padding included. ``weight_grad`` copies the windows
    again, so nothing of the layout outlives the call, and is one dot
    product per plane and tap.
    """
    n, c, h, w = xd.shape
    k, l = taps.shape[-1], h * w

    def windows():
        return _windows(_padded(xd, p), k, d, h).reshape(n, c, k, k, l)

    def weight_grad(y):
        dw = np.matmul(windows().reshape(n, c, k * k, l), y.reshape(n, c, l, 1))
        return dw.sum(axis=0).reshape(c, k, k)

    if d == 1:
        out = np.add.reduce(np.einsum("ncuvl,cuv->ncvl", windows(), taps), axis=2)
    else:
        out = np.einsum("ncuvl,cuv->ncl", windows(), taps)
    if bias is not None:
        np.add(out, bias.reshape(1, c, 1), out=out)
    return out.reshape(n, c, h, w), weight_grad


def _dw_conv(xd: np.ndarray, taps: np.ndarray, d: int, p: int, bias):
    """Depthwise conv of ``xd`` (n, c, h, w) with ``taps`` (c, k, k),
    padded by ``p`` = d(k-1)/2.

    Plane q (sample q // c, channel q % c) is laid out as a row of
    ``planes``, stored in rows ``row`` = w + p wide: p zero rows above and
    below, zeros right of each row and none left of it, plus p leading
    and p trailing zeros. Tap (u, v) of output pixel (i, j) then sits at
    flat offset (i + u*d)*row + j + v*d (a reach left of column 0 lands
    in the previous row's zeros), so each tap reads one contiguous slice
    of l = h*row elements. ``planes`` holds one tile of planes, about
    ``_DW_TILE`` outputs: its zeros are written once, and each tile's
    planes are copied into the same interior just before the tile is
    summed, so the padding stays zero and the layout of all n*c planes
    never exists at once. One view of the tile holds every tap's slice,
    axis (u, v) stepping to tap (u, v): shape (planes, k, k, l), strides
    (plane, row*d, d, 1) elements. One einsum multiplies it by the
    per-plane taps and sums over (u, v) into an output tile ``row`` wide,
    in one pass. At d = 1 a tap column's stride equals the pixel stride
    and einsum then iterates in a slow order (about 10x slower on 80x80
    f32 planes), so there each of the k columns of taps is its own
    einsum, and the columns are added. The bias is added to the whole
    tile, where it broadcasts along rows l long (numpy buffers a
    per-plane broadcast over the cropped rows when a plane is under 8192
    elements, which was slower), and the spare columns are cropped last.
    ``weight_grad`` of plane q and tap (u, v) is one dot product of y,
    laid out ``row`` wide a tile at a time, with that tap's slice. It
    lays each tile of planes out again, unless one tile holds them all:
    then the layout made here serves it. Planes are copied in from the
    4-D ``xd`` and ``y`` a sample's run of channels at a time
    (:func:`_fill`), so a channel slice is read where it lies.
    """
    n, c, h, w = xd.shape
    k = taps.shape[-1]
    nc, row = n * c, w + p
    l, size = h * row, (h + 2 * p) * row + 2 * p
    tile = min(max(1, _DW_TILE // l), nc)
    # the output, which outlives the call, is allocated before the tile
    # buffers, which an eval forward frees on return: glibc then finds
    # them at the top of its heap for the next op. Allocated after them,
    # it can leave a hole below itself, and the heap is then trimmed and
    # faulted back in every step (fwd-gmcfblock-c256-hw20, in one of three
    # checkout directories: 845 page faults a step against 18)
    out = np.empty((nc, h, w), dtype=xd.dtype)
    planes = np.zeros((tile, size), dtype=xd.dtype)
    start = p + p * row
    interior = planes[:, start : start + h * row].reshape(tile, h, row)[:, :, :w]
    if tile == nc:
        _fill(interior, xd, 0, nc)

    def weight_grad(y):
        yp = np.zeros((tile, 1, l), dtype=y.dtype)
        ys = yp.reshape(tile, h, row)[:, :, :w]
        dwt = np.empty((k * k, nc), dtype=y.dtype)
        for a in range(0, nc, tile):
            z = min(a + tile, nc)
            if tile < nc:
                _fill(interior, xd, a, z)
            _fill(ys, y, a, z)
            for t in range(k * k):
                s = (t // k * row + t % k) * d
                dwt[t, a:z] = np.matmul(yp[: z - a], planes[: z - a, s : s + l, None]).reshape(-1)
        return dwt.reshape(k * k, n, c).sum(axis=1).T.reshape(c, k, k)

    wt = np.tile(taps, (n, 1, 1))  # per-plane taps: wt[q] is taps[q % c]
    bt = None if bias is None else np.tile(bias.reshape(c), n)[:, None]
    acc = np.empty((tile, l), dtype=xd.dtype)
    cols = [slice(v, v + 1) for v in range(k)] if d == 1 else [slice(0, k)]
    tmp = np.empty_like(acc) if len(cols) > 1 else None
    e = planes.itemsize
    for a in range(0, nc, tile):
        z = min(a + tile, nc)
        if tile < nc:
            _fill(interior, xd, a, z)
        ac = acc[: z - a]
        for j, vs in enumerate(cols):
            # np.ndarray, not as_strided, which copies the array interface
            # into a dict per call: with it, the peak traced memory of one
            # gradient-check sweep of a (1, 8, 6, 6) block rose from 0.33
            # to 1.24 MiB
            view = np.ndarray((z - a, k, vs.stop - vs.start, l), planes.dtype, planes,
                              vs.start * d * e, (size * e, row * d * e, d * e, e))
            np.einsum("quvl,quv->ql", view, wt[a:z, :, vs], out=tmp[: z - a] if j else ac)
            if j:
                np.add(ac, tmp[: z - a], out=ac)
        if bt is not None:
            np.add(ac, bt[a:z], out=ac)
        out[a:z] = ac.reshape(z - a, h, row)[:, :, :w]
    return out.reshape(n, c, h, w), weight_grad


def _fill(dst: np.ndarray, src: np.ndarray, a: int, z: int) -> None:
    """Copy planes a..z of ``src`` (n, c, h, w), plane q being channel q % c
    of sample q // c, into ``dst[:z - a]``, one sample's run of channels
    at a time. (A reshape of ``src`` to (n*c, h, w) would copy all of a
    channel slice, whose samples are not adjacent.)"""
    c = src.shape[1]
    q = a
    while q < z:
        i, ch = divmod(q, c)
        m = min(z - q, c - ch)
        dst[q - a : q - a + m] = src[i, ch : ch + m]
        q += m


def _sigmoid(xd: np.ndarray, s: float = 1.0) -> np.ndarray:
    """sigmoid(s * xd) as 1 / (1 + exp(-s * xd)), in one buffer.

    Where exp overflows to inf the result is 0, the exact limit, so the
    overflow is not reported.
    """
    with np.errstate(over="ignore"):
        y = np.multiply(xd, -s)
        np.exp(y, out=y)
    np.add(y, 1, out=y)
    return np.reciprocal(y, out=y)


def relu(x):
    tx = value_of(x)
    out = Tensor.wrap(np.maximum(tx.data, 0))

    def backward(g, acc):
        acc(x, g * (tx.data > 0))

    return emit("relu", out, (x,), backward, eltwise=out.size)


def sigmoid(x):
    tx = value_of(x)
    sig = _sigmoid(tx.data)

    def backward(g, acc):
        acc(x, g * sig * (1.0 - sig))

    return emit("sigmoid", Tensor.wrap(sig), (x,), backward, eltwise=sig.size)


def _with_limits_at_inf(f, x: np.ndarray, at_neg_inf: float, at_pos_inf: float) -> np.ndarray:
    """``f()``, with its values where x is -inf or +inf set to the given limits.

    For the gate and its derivative, an infinite x meets a saturated
    sigmoid factor there (inf * 0), which numpy flags as an invalid
    operation. Only then is ``f`` evaluated again and the limits written
    in, so finite inputs cost nothing extra.
    """
    try:
        with np.errstate(invalid="raise"):
            return f()
    except FloatingPointError:
        with np.errstate(invalid="ignore"):
            y = f()
        y[np.isneginf(x)] = at_neg_inf
        y[np.isposinf(x)] = at_pos_inf
        return y


def sigmoid_gate(x):
    """x * sigmoid(1.702 * x): the sigmoid-weighted gate used by the
    gated convolution's spatial branch (a sigmoid approximation of GELU).

    At x = -inf the gate and its derivative are 0, their limits; at
    x = +inf the gate is +inf and its derivative 1.
    """
    tx = value_of(x)
    sig = _sigmoid(tx.data, 1.702)
    out = Tensor.wrap(_with_limits_at_inf(lambda: tx.data * sig, tx.data, 0.0, np.inf))

    def backward(g, acc):
        # x * sig first: 1.702 * x would overflow for |x| near the dtype's max
        slope = _with_limits_at_inf(
            lambda: sig + 1.702 * (tx.data * sig * (1.0 - sig)), tx.data, 0.0, 1.0
        )
        acc(x, g * slope)

    return emit("sigmoid_gate", out, (x,), backward, eltwise=3 * out.size)


def batch_norm(x, gamma, beta, running_mean, running_var, eps, momentum, mode):
    """y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel.

    Returns ``(y, running_mean, running_var)`` and changes no argument.
    Eval mode normalizes with the given running stats and returns them
    as they are. Train mode normalizes with the batch statistics over
    (n, h, w) (biased variance) and returns new running stats moved
    toward them by ``momentum``, with the unbiased variance estimate as
    the running value; the caller stores them.
    """
    tx, tg, tb = value_of(x), value_of(gamma), value_of(beta)
    n, c, h, w = tx.shape
    if any(t.shape != (1, c, 1, 1) for t in (tg, tb, running_mean, running_var)):
        raise ShapeError(f"batch_norm stats/affine must have shape (1, {c}, 1, 1) "
                         f"for an input with {c} channels")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    axes = (0, 2, 3)
    m = n * h * w
    if mode == "train":
        if m < 2:
            raise ValueError("train-mode batch norm needs n*h*w >= 2 (variance undefined)")
        # the sums divided in place by m, as np.mean and np.var compute
        # them: np.var's own centred copy is the one x - mean below
        mean = np.add.reduce(tx.data, axis=axes, keepdims=True, dtype=tx.dtype)
        np.true_divide(mean, m, out=mean)
        centred = tx.data - mean
        var = np.add.reduce(np.square(centred), axis=axes, keepdims=True, dtype=tx.dtype)
        np.true_divide(var, m, out=var)
        rm, rv = running_mean.data, running_var.data
        running_mean = Tensor.wrap((1 - momentum) * rm + momentum * mean.astype(rm.dtype))
        running_var = Tensor.wrap(
            (1 - momentum) * rv + momentum * (var.astype(rv.dtype) * m / (m - 1))
        )
    else:
        mean = running_mean.data.astype(tx.dtype)
        var = running_var.data.astype(tx.dtype)
        centred = tx.data - mean

    inv_std = 1.0 / np.sqrt(var + tx.dtype.type(eps))
    xhat = np.multiply(centred, inv_std, out=centred)
    y = tg.data * xhat
    out = Tensor.wrap(np.add(y, tb.data, out=y))

    def backward(g, acc):
        # g * xhat is formed once: its channel sums are gamma's adjoint and
        # g's are beta's; over m, they are the two means train mode's x
        # adjoint subtracts (np.mean's sums and division)
        gx = g * xhat
        sum_gx = np.add.reduce(gx, axis=axes, keepdims=True)
        sum_g = np.add.reduce(g, axis=axes, keepdims=True)
        acc(gamma, sum_gx)
        acc(beta, sum_g)
        if mode == "eval":
            acc(x, g * tg.data * inv_std)
        else:
            dx = np.subtract(g, sum_g / m)
            np.subtract(dx, np.multiply(xhat, sum_gx / m, out=gx), out=dx)
            acc(x, np.multiply(tg.data * inv_std, dx, out=dx))

    out = emit("batch_norm", out, (x, gamma, beta), backward, eltwise=2 * out.size)
    return out, running_mean, running_var


class DropoutState:
    """Drop probability plus the rng that draws the masks (one rng per
    dropout site: two states sharing a seed draw the same masks)."""

    def __init__(self, p: float, rng: Rng):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = rng


def dropout(x, state: DropoutState, mode: str = "eval"):
    """Inverted dropout: train zeroes with prob p and scales by 1/(1-p);
    eval (or p=0) is a bit-exact identity."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or state.p == 0.0:
        return x

    tx = value_of(x)
    # a bool mask, one byte an element: x * keep casts it to 0 or 1 in
    # x's dtype, which gives the bits of a float mask
    keep = state.rng.random(tx.shape) >= state.p
    inv = tx.dtype.type(1.0 / (1.0 - state.p))
    out = Tensor.wrap(tx.data * keep * inv)

    def backward(g, acc):
        acc(x, g * keep * inv)

    return emit("dropout", out, (x,), backward)


def init_conv_params(spec: ConvSpec, rng: Rng | None, dtype) -> tuple[Tensor, Tensor | None]:
    """Weight/bias tensors for a conv: uniform(+-1/sqrt(fan_in)) when an
    rng is given, zeros otherwise."""
    bound = 1.0 / np.sqrt(spec.fan_in)
    if rng is None:
        w = Tensor.wrap(np.zeros(spec.weight_shape, dtype=dtype))
        b = Tensor.wrap(np.zeros(spec.bias_shape, dtype=dtype)) if spec.bias else None
    else:
        w = rng.tensor(spec.weight_shape, -bound, bound, dtype)
        b = rng.tensor(spec.bias_shape, -bound, bound, dtype) if spec.bias else None
    return w, b
