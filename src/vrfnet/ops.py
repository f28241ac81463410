"""Convolution variants, activations, batch normalization, and dropout.

The conv fast path lowers to im2col plus batched matmul and handles
stride, dilation, and groups in one code path (depthwise is just
groups == c_in == c_out). Padding is zero-fill. All ops are
differentiable under the tape; relu's subgradient at 0 is taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def depthwise(self) -> bool:
        return self.groups == self.c_in == self.c_out

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.c_out, self.c_in // self.groups, self.k, self.k)

    @property
    def param_count(self) -> int:
        n = self.c_out * (self.c_in // self.groups) * self.k * self.k
        return n + self.c_out if self.bias else n

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        span = self.dilation * (self.k - 1) + 1
        ho = (h + 2 * self.padding - span) // self.stride + 1
        wo = (w + 2 * self.padding - span) // self.stride + 1
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
    if tb is not None and tb.shape != (1, spec.c_out, 1, 1):
        raise ShapeError(f"bias must have shape (1, {spec.c_out}, 1, 1), got {tb.shape}")
    if tw.dtype != tx.dtype or (tb is not None and tb.dtype != tx.dtype):
        raise TypeError("conv operand dtypes must match")

    ho, wo = spec.out_hw(h, width)
    k, s, d, p, g = spec.k, spec.stride, spec.dilation, spec.padding, spec.groups
    cg, cog = cin // g, spec.c_out // g
    m, l = cg * k * k, ho * wo

    xp = np.pad(tx.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else tx.data
    cols6 = np.empty((n, cin, k, k, ho, wo), dtype=tx.dtype)
    for u in range(k):
        for v in range(k):
            cols6[:, :, u, v] = xp[:, :, u * d : u * d + s * ho : s, v * d : v * d + s * wo : s]
    cols = cols6.reshape(n, g, m, l)
    wm = tw.data.reshape(g, cog, m)

    out = np.matmul(wm, cols).reshape(n, spec.c_out, ho, wo)
    if tb is not None:
        out = out + tb.data
    res = Tensor.wrap(out)
    tally(macs=out.size * m, eltwise=out.size if tb is not None else 0)

    tape = tape_of(x, w, b)
    if tape is None:
        return res

    def backward(grad, acc):
        go = grad.reshape(n, g, cog, l)
        if isinstance(x, Node):
            dcols = np.matmul(wm.transpose(0, 2, 1), go).reshape(n, cin, k, k, ho, wo)
            dxp = np.zeros_like(xp)
            for u in range(k):
                for v in range(k):
                    dxp[:, :, u * d : u * d + s * ho : s, v * d : v * d + s * wo : s] += dcols[
                        :, :, u, v
                    ]
            acc(x, dxp[:, :, p : p + h, p : p + width] if p else dxp)
        if isinstance(w, Node):
            dwm = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0)
            acc(w, dwm.reshape(spec.weight_shape))
        if b is not None and isinstance(b, Node):
            acc(b, grad.sum(axis=(0, 2, 3)).reshape(1, spec.c_out, 1, 1))

    return tape.record(res, "conv2d", backward)


def _sigmoid(xd: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows
    e = np.exp(-np.abs(xd))
    return np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def sigmoid_gate(x):
    """x * sigmoid(1.702 * x): the sigmoid-weighted gate used by the
    gated convolution's spatial branch (a sigmoid approximation of GELU)."""
    tx = value_of(x)
    sig = _sigmoid(1.702 * tx.data)
    out = Tensor.wrap(tx.data * sig)
    tally(eltwise=3 * out.size)
    tape = tape_of(x)
    if tape is None:
        return out

    def backward(g, acc):
        acc(x, g * (sig + 1.702 * tx.data * sig * (1.0 - sig)))

    return tape.record(out, "sigmoid_gate", backward)


_ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "sigmoid_gate": sigmoid_gate}


def activation(kind: str, x):
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None


class BatchNormState:
    """Per-channel running statistics plus the norm's hyperparameters.

    Mutable on purpose: train-mode calls update the running stats in
    place (callers must serialize concurrent train-mode use).
    """

    def __init__(self, c: int, eps: float = 1e-5, momentum: float = 0.1, dtype=np.float64):
        self.c = c
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.running_mean = np.zeros((1, c, 1, 1), dtype=dtype)
        self.running_var = np.ones((1, c, 1, 1), dtype=dtype)


def batch_norm(x, gamma, beta, state: BatchNormState, mode: str = "eval"):
    """y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel.

    Train mode normalizes with the batch statistics over (n, h, w)
    (biased variance) and updates the running stats by momentum, using
    the unbiased variance estimate for the running value. Eval mode uses
    the running stats only.
    """
    tx, tg, tb = value_of(x), value_of(gamma), value_of(beta)
    n, c, h, w = tx.shape
    if c != state.c or tg.shape != (1, c, 1, 1) or tb.shape != (1, c, 1, 1):
        raise ShapeError(f"batch_norm state/affine sized for {state.c} channels, input has {c}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    if mode == "train":
        m = n * h * w
        if m < 2:
            raise ValueError("train-mode batch norm needs n*h*w >= 2 (variance undefined)")
        mean = tx.data.mean(axis=(0, 2, 3), keepdims=True, dtype=tx.dtype)
        var = tx.data.var(axis=(0, 2, 3), keepdims=True, dtype=tx.dtype)
        mom = state.momentum
        state.running_mean = (1 - mom) * state.running_mean + mom * mean.astype(
            state.running_mean.dtype
        )
        state.running_var = (1 - mom) * state.running_var + mom * (
            var.astype(state.running_var.dtype) * m / (m - 1)
        )
    else:
        mean = state.running_mean.astype(tx.dtype)
        var = state.running_var.astype(tx.dtype)

    inv_std = 1.0 / np.sqrt(var + tx.dtype.type(state.eps))
    xhat = (tx.data - mean) * inv_std
    out = Tensor.wrap(tg.data * xhat + tb.data)
    tally(eltwise=2 * out.size)

    tape = tape_of(x, gamma, beta)
    if tape is None:
        return out

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

    return tape.record(out, "batch_norm", backward)


class DropoutState:
    """Drop probability plus the rng that draws the masks."""

    def __init__(self, p: float = 0.0, rng: Rng | None = None):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = rng if rng is not None else Rng(0)


def dropout(x, state: DropoutState, mode: str = "eval"):
    """Inverted dropout: train zeroes with prob p and scales by 1/(1-p);
    eval (or p=0) is a bit-exact identity."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if state.p >= 1.0:
        raise ValueError("dropout probability must be < 1")
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
    fan_in = (spec.c_in // spec.groups) * spec.k * spec.k
    bound = 1.0 / np.sqrt(fan_in)
    if rng is None:
        w = Tensor.wrap(np.zeros(spec.weight_shape, dtype=dtype))
        b = Tensor.wrap(np.zeros((1, spec.c_out, 1, 1), dtype=dtype)) if spec.bias else None
    else:
        w = rng.tensor(spec.weight_shape, -bound, bound, dtype)
        b = rng.tensor((1, spec.c_out, 1, 1), -bound, bound, dtype) if spec.bias else None
    return w, b
