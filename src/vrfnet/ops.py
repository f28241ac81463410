"""Convolution variants, activations, batch normalization, and dropout.

``conv2d`` is the one conv op; padding is zero-fill. A stride-1
depthwise conv (groups == c_in == c_out: the MSCF branches and the GConv
gate) runs a direct kernel over cache-sized tiles of padded planes,
forward and backward: one einsum per tile multiplies a strided view that
holds every tap's shifted slice by the per-plane taps and sums them in
one pass (at dilation 1, one einsum per column of taps). Such a conv
does only k*k MACs per output, so it is bound by memory traffic; im2col
would write and read back a k*k-times copy of its input for a degenerate
matmul, and a multiply-then-add loop over taps makes two passes per tap.
Every other conv lowers to im2col plus a batched matmul per group, which
handles stride, dilation and groups in one code path. The columns are
one strided copy of a window view of the padded input; a 1x1 conv reads
its input as the columns. A product of one (sample, group) block runs as
a 2-D dot: the same BLAS gemm in f32 and f64, and in longdouble a loop
about twice as fast as matmul's generic one, with the same sums in the
same order. All ops are differentiable under the tape; relu's
subgradient at 0 is taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import Rng, ShapeError, Tensor
from .tape import Node, tally, tape_of, value_of


@dataclass(frozen=True)
class ConvSpec:
    """Descriptor for every convolution variant (square kernels only)."""

    c_in: int
    c_out: int
    k: int
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    padding: int = 0
    bias: bool = True

    def __post_init__(self):
        for name in ("c_in", "c_out", "k", "stride", "dilation", "groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"ConvSpec.{name} must be >= 1")
        if self.padding < 0:
            raise ValueError("ConvSpec.padding must be >= 0")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ValueError(
                f"channel counts ({self.c_in}, {self.c_out}) not divisible by groups={self.groups}"
            )

    @staticmethod
    def same(c_in, c_out, k, dilation=1, groups=1, bias=True) -> "ConvSpec":
        """Stride-1 spec whose padding preserves h and w; requires odd k."""
        if k % 2 == 0:
            raise ValueError(f"'same' padding requires an odd kernel, got k={k}")
        return ConvSpec(c_in, c_out, k, 1, dilation, groups, dilation * (k - 1) // 2, bias)

    # Each cached property is computed on first use and stored on the
    # (immutable) spec, so conv2d does not rebuild it every call.

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

    @cached_property
    def span(self) -> int:
        """Extent of the dilated kernel along h and w."""
        return self.dilation * (self.k - 1) + 1

    @property
    def param_count(self) -> int:
        n = self.c_out * self.fan_in
        return n + self.c_out if self.bias else n

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.padding - self.span) // self.stride + 1
        wo = (w + 2 * self.padding - self.span) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"{self} maps input {h}x{w} to empty output")
        return ho, wo


def conv2d(x, w, b, spec: ConvSpec):
    """2-d convolution per ``spec``; zero padding, weights (c_out, c_in/g, k, k).

    Bias is folded into the op (shape (1, c_out, 1, 1)); pass b=None iff
    spec.bias is False.
    """
    tx, tw = value_of(x), value_of(w)
    tb = value_of(b) if b is not None else None
    n, cin, h, width = tx.shape
    if cin != spec.c_in:
        raise ShapeError(f"input has {cin} channels, spec expects {spec.c_in}")
    if tw.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {tw.shape} does not match spec {spec.weight_shape}")
    if spec.bias != (tb is not None):
        raise ValueError("bias tensor presence must match spec.bias")
    if tb is not None and tb.shape != spec.bias_shape:
        raise ShapeError(f"bias must have shape {spec.bias_shape}, got {tb.shape}")
    if tw.dtype != tx.dtype or (tb is not None and tb.dtype != tx.dtype):
        raise TypeError("conv operand dtypes must match")

    ho, wo = spec.out_hw(h, width)
    lower = _depthwise if spec.depthwise and spec.stride == 1 else _im2col
    out, vjp = lower(tx.data, tw.data, tb.data if tb is not None else None, spec, ho, wo)
    res = Tensor.wrap(out)
    tally(macs=out.size * spec.fan_in, eltwise=out.size if tb is not None else 0)

    tape = tape_of(x, w, b)
    if tape is None:
        return res

    def backward(grad, acc):
        dx, dw = vjp(grad, isinstance(x, Node), isinstance(w, Node))
        if dx is not None:
            acc(x, dx)
        if dw is not None:
            acc(w, dw)
        if b is not None and isinstance(b, Node):
            acc(b, grad.sum(axis=(0, 2, 3)).reshape(spec.bias_shape))

    return tape.record(res, "conv2d", backward)


def _im2col(xd, wd, bd, spec: ConvSpec, ho: int, wo: int):
    """Any conv as im2col columns times a matmul per (sample, group) block.

    Returns the output and ``vjp(grad, want_x, want_w) -> (dx, dw)``.
    """
    n, cin, h, width = xd.shape
    k, s, d, p, g = spec.k, spec.stride, spec.dilation, spec.padding, spec.groups
    cog, m, l = spec.c_out // g, spec.fan_in, ho * wo

    pointwise = k == 1 and s == 1 and p == 0
    if pointwise:
        cols = xd.reshape(n, g, m, l)  # the input already is its own columns
    else:
        xp = xd
        if p:
            xp = np.zeros((n, cin, h + 2 * p, width + 2 * p), dtype=xd.dtype)
            xp[:, :, p : p + h, p : p + width] = xd
        # tap (u, v) of output pixel (i, j) reads xp[..., u*d + i*s, v*d + j*s],
        # so one view with axes (n, cin, u, v, i, j) holds every tap's window
        # (np.ndarray, not as_strided: see _dw_conv). The columns are one
        # C-order copy of it: a reshape alone can return a strided view
        # (when a row of xp is k wide, say), which matmul sums in another
        # order.
        sn, sc, sh, sw = xp.strides
        window = np.ndarray((n, cin, k, k, ho, wo), xp.dtype, xp, 0,
                            (sn, sc, sh * d, sw * d, sh * s, sw * s))
        cols = window.copy().reshape(n, g, m, l)
    wm = wd.reshape(g, cog, m)

    if n * g == 1:
        # one block: the same gemm as matmul in f32 and f64, and in
        # longdouble about half the time of matmul's generic loop on the
        # gradient probes' convs
        out = np.dot(wm[0], cols[0, 0])
    else:
        out = np.matmul(wm, cols)
    out = out.reshape(n, spec.c_out, ho, wo)
    if bd is not None:
        np.add(out, bd, out=out)

    def vjp(grad, want_x, want_w):
        go = grad.reshape(n, g, cog, l)
        dx = dw = None
        if want_x:
            dcols = np.matmul(wm.transpose(0, 2, 1), go)
            if pointwise:
                dx = dcols.reshape(xd.shape)
            else:
                dcols = dcols.reshape(n, cin, k, k, ho, wo)
                dxp = np.zeros_like(xp)
                for u in range(k):
                    for v in range(k):
                        dxp[:, :, u * d : u * d + s * ho : s, v * d : v * d + s * wo : s] += dcols[
                            :, :, u, v
                        ]
                dx = dxp[:, :, p : p + h, p : p + width] if p else dxp
        if want_w:
            dw = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(spec.weight_shape)
        return dx, dw

    return out, vjp


# The depthwise kernel works on tiles of (sample, channel) planes holding
# about this many output elements, so that each tile's planes and
# accumulator stay in L2.
_DW_TILE = 1 << 16


def _depthwise(xd, wd, bd, spec: ConvSpec, ho: int, wo: int):
    """A stride-1 depthwise conv as a sum of shifted slices.

    No im2col columns: each tap multiplies one contiguous slice of the
    padded planes (see :func:`_dw_conv`). The input gradient is the same
    kernel run on the output gradient with the taps flipped, and the
    weight gradient is one dot product per plane and tap.
    Returns the output and ``vjp(grad, want_x, want_w) -> (dx, dw)``.
    """
    n, c, h, width = xd.shape
    k, d, p = spec.k, spec.dilation, spec.padding
    taps = wd.reshape(c, k, k)
    out, planes, row = _dw_conv(xd, taps, d, p, bd)

    def vjp(grad, want_x, want_w):
        dx = dw = None
        if want_x:
            # padding d(k-1) - p maps the output back onto the input; a
            # negative one is padding 0 and a crop
            q = d * (k - 1) - p
            dx = _dw_conv(grad, taps[:, ::-1, ::-1], d, max(q, 0), None)[0]
            if q < 0:
                dx = dx[:, :, -q : h - q, -q : width - q]
        if want_w:
            l = ho * row
            gp = np.zeros((n * c, 1, l), dtype=grad.dtype)
            gp.reshape(n * c, ho, row)[:, :, :wo] = grad.reshape(n * c, ho, wo)
            dwt = np.empty((k * k, n * c), dtype=grad.dtype)
            for t in range(k * k):
                s = (t // k * row + t % k) * d
                dwt[t] = np.matmul(gp, planes[:, s : s + l, None]).reshape(-1)
            dw = dwt.reshape(k * k, n, c).sum(axis=1).T.reshape(spec.weight_shape)
        return dx, dw

    return out, vjp


def _dw_conv(xd: np.ndarray, taps: np.ndarray, d: int, p: int, bias):
    """Stride-1 depthwise conv of ``xd`` (n, c, h, w) with ``taps`` (c, k, k).

    Plane q (sample q // c, channel q % c) becomes row q of ``planes``,
    stored in rows ``row`` wide: p zero rows above and below, zeros right
    of each row and none left of it, plus p leading zeros. Tap (u, v) of
    output pixel (i, j) then sits at flat offset (i + u*d)*row + j + v*d
    (a reach left of column 0 lands in the previous row's zeros), so each
    tap reads one contiguous slice of l = ho*row elements. One view of a
    tile of planes holds every tap's slice, axis (u, v) stepping to tap
    (u, v): shape (planes, k, k, l), strides (plane, row*d, d, 1)
    elements. One einsum multiplies it by the per-plane taps and sums
    over (u, v) into an output tile ``row`` wide, in one pass. At d = 1 a
    tap column's stride equals the pixel stride and einsum then iterates
    in a slow order (about 10x slower on 80x80 f32 planes), so there each
    of the k columns of taps is its own einsum, and the columns are added. The bias is added to
    the whole tile, where it broadcasts along rows l long (numpy buffers a
    per-plane broadcast over the cropped rows when a plane is under 8192
    elements, which was slower), and the spare columns are cropped last.
    Returns the output, ``planes`` and ``row``.
    """
    n, c, h, w = xd.shape
    k = taps.shape[-1]
    span = d * (k - 1)
    ho, wo = h + 2 * p - span, w + 2 * p - span
    nc, row = n * c, max(w + p, wo)
    l, size = ho * row, (h + 2 * p) * row + span
    # the output, which outlives the call, is allocated before the planes
    # and tile buffers, which an eval forward frees on return: glibc then
    # finds them at the top of its heap for the next op. Allocated after
    # them, it left a hole below itself, and the heap was trimmed and
    # faulted back in every step (fwd-gmcf-c64-hw80: about 600 page
    # faults a step, against 14).
    out = np.empty((nc, ho, wo), dtype=xd.dtype)
    planes = np.zeros((nc, size), dtype=xd.dtype)
    start = p + p * row
    planes[:, start : start + h * row].reshape(nc, h, row)[:, :, :w] = xd.reshape(nc, h, w)
    wt = np.tile(taps, (n, 1, 1))  # per-plane taps: wt[q] is taps[q % c]
    bt = None if bias is None else np.tile(bias.reshape(c), n)[:, None]
    tile = max(1, _DW_TILE // l)
    acc = np.empty((min(tile, nc), l), dtype=xd.dtype)
    cols = [slice(v, v + 1) for v in range(k)] if d == 1 else [slice(0, k)]
    tmp = np.empty_like(acc) if len(cols) > 1 else None
    e = planes.itemsize
    for a in range(0, nc, tile):
        z = min(a + tile, nc)
        ac = acc[: z - a]
        for j, vs in enumerate(cols):
            # np.ndarray, not as_strided, which copies the array interface
            # into a dict per call: with it, the peak traced memory of one
            # gradient-check sweep of a (1, 8, 6, 6) block rose from 0.33
            # to 1.24 MiB
            view = np.ndarray((z - a, k, vs.stop - vs.start, l), planes.dtype, planes,
                              (a * size + vs.start * d) * e, (size * e, row * d * e, d * e, e))
            np.einsum("quvl,quv->ql", view, wt[a:z, :, vs], out=tmp[: z - a] if j else ac)
            if j:
                np.add(ac, tmp[: z - a], out=ac)
        if bt is not None:
            np.add(ac, bt[a:z], out=ac)
        out[a:z] = ac.reshape(z - a, ho, row)[:, :, :wo]
    return out.reshape(n, c, ho, wo), planes, row


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
    tally(eltwise=out.size)
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        acc(x, g * (tx.data > 0))

    return tape.record(out, "relu", backward)


def sigmoid(x):
    tx = value_of(x)
    sig = _sigmoid(tx.data)
    out = Tensor.wrap(sig)
    tally(eltwise=out.size)
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        acc(x, g * sig * (1.0 - sig))

    return tape.record(out, "sigmoid", backward)


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
    tally(eltwise=3 * out.size)
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        # x * sig first: 1.702 * x would overflow for |x| near the dtype's max
        slope = _with_limits_at_inf(
            lambda: sig + 1.702 * (tx.data * sig * (1.0 - sig)), tx.data, 0.0, 1.0
        )
        acc(x, g * slope)

    return tape.record(out, "sigmoid_gate", backward)


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

    if mode == "train":
        m = n * h * w
        if m < 2:
            raise ValueError("train-mode batch norm needs n*h*w >= 2 (variance undefined)")
        mean = tx.data.mean(axis=(0, 2, 3), keepdims=True, dtype=tx.dtype)
        var = tx.data.var(axis=(0, 2, 3), keepdims=True, dtype=tx.dtype)
        rm, rv = running_mean.data, running_var.data
        running_mean = Tensor.wrap((1 - momentum) * rm + momentum * mean.astype(rm.dtype))
        running_var = Tensor.wrap(
            (1 - momentum) * rv + momentum * (var.astype(rv.dtype) * m / (m - 1))
        )
    else:
        mean = running_mean.data.astype(tx.dtype)
        var = running_var.data.astype(tx.dtype)

    inv_std = 1.0 / np.sqrt(var + tx.dtype.type(eps))
    xhat = (tx.data - mean) * inv_std
    out = Tensor.wrap(tg.data * xhat + tb.data)
    tally(eltwise=2 * out.size)

    tape = tape_of(x, gamma, beta)
    if tape is None:
        return out, running_mean, running_var

    def backward(g, acc):
        if isinstance(gamma, Node):
            acc(gamma, (g * xhat).sum(axis=(0, 2, 3), keepdims=True))
        if isinstance(beta, Node):
            acc(beta, g.sum(axis=(0, 2, 3), keepdims=True))
        if isinstance(x, Node):
            if mode == "eval":
                acc(x, g * tg.data * inv_std)
            else:
                gm = g.mean(axis=(0, 2, 3), keepdims=True)
                gxm = (g * xhat).mean(axis=(0, 2, 3), keepdims=True)
                acc(x, tg.data * inv_std * (g - gm - xhat * gxm))

    return tape.record(out, "batch_norm", backward), running_mean, running_var


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
    keep = (state.rng.random(tx.shape) >= state.p).astype(tx.dtype)
    inv = tx.dtype.type(1.0 / (1.0 - state.p))
    out = Tensor.wrap(tx.data * keep * inv)
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        acc(x, g * keep * inv)

    return tape.record(out, "dropout", backward)


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
