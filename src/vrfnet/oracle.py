"""Brute-force reference implementations used as ground truth.

Everything here recomputes results from first principles: convolution
is a sum over kernel taps, one float64 multiply-add per (group, input
channel, tap) of that tap's shifted slice of the zero-padded input into
the group's output channels, in (channel, row, column) order, with the
bias added last (no im2col, einsum, matmul, dot product or window
copy), and each block is restated as straight-line code over those
primitives. The only things shared with the fast path are the Tensor
container, the ConvSpec descriptor, the OpCounter tally, and the
parameter values under test. All arithmetic accumulates in float64
regardless of the input dtype, so the oracle is strictly more accurate
than the fast path it checks.

Multiply-accumulate counting: the input is zero-padded up front, by the
spec's d(k-1)/2 on each side ("same"), so every tap is multiplied at
every output, padding included; each conv adds out.size*(c_in/groups)*k*k
to the counter once, exactly the multiplies its taps' slices execute.
Elementwise work is tallied with the same cost table the profiler
documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GconvConfig, GmcfBlockConfig, GmcfConfig, MscfConfig
from .ops import ConvSpec
from .tape import OpCounter
from .tensor import Tensor


@dataclass
class OracleReport:
    """One fast-vs-oracle comparison, emitted as a JSON line."""

    op: str
    max_abs_diff: float
    max_rel_diff: float
    shapes: list = field(default_factory=list)
    seed: int | None = None


def compare(op: str, fast: Tensor, ref: Tensor, seed: int | None = None) -> OracleReport:
    """Max abs/rel difference between a fast result and its oracle."""
    a = fast.data.astype(np.float64)
    b = ref.data.astype(np.float64)
    diff = np.abs(a - b)
    rel = diff / np.maximum(np.abs(b), 1e-8)
    return OracleReport(op, float(diff.max()), float(rel.max()), [fast.shape], seed)


def oracle_conv2d(x: Tensor, w: Tensor, b: Tensor | None, spec: ConvSpec,
                  counter: OpCounter | None = None) -> Tensor:
    """Direct convolution summed over taps; float64 accumulation; "same"
    zero padding, so the output is h x w."""
    n, cin, h, width = x.shape
    if cin != spec.c_in or w.shape != spec.weight_shape:
        raise ValueError(f"shapes {x.shape}/{w.shape} inconsistent with {spec}")
    k, d, p = spec.k, spec.dilation, spec.padding
    cg, cog = cin // spec.groups, spec.c_out // spec.groups

    xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    wd = w.data.astype(np.float64)
    out = np.zeros((n, spec.c_out, h, width), dtype=np.float64)
    for o in range(0, spec.c_out, cog):
        acc = out[:, o : o + cog]  # this group's output channels, in place
        base_c = (o // cog) * cg
        for c in range(cg):
            for u in range(k):
                for v in range(k):
                    # tap (u, v) of channel c reads the input shifted by (ud, vd)
                    shifted = xp[:, base_c + c, None, u * d : u * d + h, v * d : v * d + width]
                    acc += wd[o : o + cog, c, u, v, None, None] * shifted
    if b is not None:
        out += b.data.astype(np.float64).reshape(1, -1, 1, 1)
    if counter is not None:
        counter.macs += out.size * spec.fan_in
        counter.eltwise += out.size if b is not None else 0
    return Tensor.wrap(out)


def _sig(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _count(counter, n):
    if counter is not None:
        counter.eltwise += n


def _f64(t: Tensor) -> np.ndarray:
    return t.data.astype(np.float64)


def oracle_spatial_attention(fcat: np.ndarray, params, prefix, counter) -> np.ndarray:
    avg = fcat.mean(axis=1, keepdims=True)
    mx = fcat.max(axis=1, keepdims=True)
    _count(counter, 2 * fcat.size)
    pooled = np.concatenate([avg, mx], axis=1)
    spec = ConvSpec(2, params[prefix + "conv.w"].shape[0], params[prefix + "conv.w"].shape[2])
    logits = oracle_conv2d(Tensor.wrap(pooled), params[prefix + "conv.w"],
                           params.get(prefix + "conv.b"), spec, counter)
    _count(counter, logits.size)
    return _sig(logits.data)


def oracle_channel_attention(y: np.ndarray, params, prefix, counter) -> np.ndarray:
    gap = y.mean(axis=(2, 3), keepdims=True)
    _count(counter, y.size)
    rw = params[prefix + "reduce.w"]
    ew = params[prefix + "expand.w"]
    reduced = oracle_conv2d(Tensor.wrap(gap), rw, params.get(prefix + "reduce.b"),
                            ConvSpec(rw.shape[1], rw.shape[0], 1), counter)
    hidden = np.maximum(reduced.data, 0)
    _count(counter, hidden.size)
    expanded = oracle_conv2d(Tensor.wrap(hidden), ew, params.get(prefix + "expand.b"),
                             ConvSpec(ew.shape[1], ew.shape[0], 1), counter)
    _count(counter, expanded.size)
    return _sig(expanded.data)


def oracle_mscf(x: Tensor, cfg: MscfConfig, params, prefix="", counter=None) -> Tensor:
    xd = _f64(x)
    feats = []
    for i, d in enumerate(cfg.dilations):
        spec = ConvSpec(cfg.c, cfg.c, cfg.dw_kernel, dilation=d, groups=cfg.c)
        feats.append(
            oracle_conv2d(
                Tensor.wrap(xd), params[f"{prefix}scale{i}.w"],
                params.get(f"{prefix}scale{i}.b"), spec, counter,
            ).data
        )
    fcat = np.concatenate(feats, axis=1)
    mask = oracle_spatial_attention(fcat, params, prefix + "sa.", counter)
    fused = np.zeros_like(xd)
    for i, f in enumerate(feats):
        fused = fused + f * mask[:, i : i + 1]
        _count(counter, f.size)  # hadamard
        if i:
            _count(counter, f.size)  # accumulate add
    y = fused * xd
    _count(counter, y.size)
    if cfg.use_ca:
        weights = oracle_channel_attention(y, params, prefix + "ca.", counter)
        y = y * weights
        _count(counter, y.size)
    return Tensor.wrap(y)


def oracle_gconv(x: Tensor, cfg: GconvConfig, params, prefix="", counter=None) -> Tensor:
    xd = _f64(x)
    h = cfg.hidden
    both = oracle_conv2d(
        Tensor.wrap(xd), params[prefix + "proj.w"], params.get(prefix + "proj.b"),
        ConvSpec(cfg.c, 2 * h, 1), counter,
    ).data
    x_prime, v = both[:, :h], both[:, h:]
    g = oracle_conv2d(
        Tensor.wrap(x_prime.copy()), params[prefix + "dw.w"], params.get(prefix + "dw.b"),
        ConvSpec(h, h, cfg.dw_kernel, groups=h), counter,
    ).data
    if cfg.activation == "sigmoid_gate":
        gated = g * _sig(1.702 * g)
        _count(counter, 3 * g.size)
    else:
        gated = np.maximum(g, 0)
        _count(counter, g.size)
    prod = gated * v
    _count(counter, prod.size)
    restored = oracle_conv2d(
        Tensor.wrap(prod), params[prefix + "restore.w"], params.get(prefix + "restore.b"),
        ConvSpec(h, cfg.c, 1), counter,
    ).data
    out = xd + restored  # dropout is identity at p=0 / eval
    _count(counter, out.size)
    return Tensor.wrap(out)


def oracle_gmcf_bottleneck(x: Tensor, cfg: GmcfConfig, params, buffers,
                           mode="eval", prefix="", counter=None) -> Tensor:
    xd = _f64(x)
    m = oracle_mscf(Tensor.wrap(xd), cfg.mscf, params, prefix + "mscf.", counter).data
    gamma = _f64(params[prefix + "bn.gamma"])
    beta = _f64(params[prefix + "bn.beta"])
    if mode == "train":
        mean = m.mean(axis=(0, 2, 3), keepdims=True)
        var = m.var(axis=(0, 2, 3), keepdims=True)
    else:
        mean = _f64(buffers[prefix + "bn.running_mean"])
        var = _f64(buffers[prefix + "bn.running_var"])
    normed = gamma * (m - mean) / np.sqrt(var + cfg.bn_eps) + beta
    _count(counter, 2 * normed.size)
    y1 = xd + normed
    _count(counter, y1.size)
    return oracle_gconv(Tensor.wrap(y1), cfg.gconv, params, prefix + "gconv.", counter)


def oracle_gmcf_block(x: Tensor, cfg: GmcfBlockConfig, params, buffers,
                      mode="eval", counter=None) -> Tensor:
    xd = _f64(x)
    ch = cfg.bottleneck.c
    both = oracle_conv2d(
        Tensor.wrap(xd), params["cv1.w"], params.get("cv1.b"),
        ConvSpec(cfg.c, 2 * ch, 1), counter,
    ).data
    branches = [both[:, :ch].copy(), both[:, ch:].copy()]
    for i in range(cfg.n_bottlenecks):
        nxt = oracle_gmcf_bottleneck(
            Tensor.wrap(branches[-1]), cfg.bottleneck, params, buffers, mode, f"m{i}.", counter
        )
        branches.append(nxt.data)
    cat = np.concatenate(branches, axis=1)
    return oracle_conv2d(
        Tensor.wrap(cat), params["cv2.w"], params.get("cv2.b"),
        ConvSpec((2 + cfg.n_bottlenecks) * ch, cfg.c, 1), counter,
    )


def oracle_block(kind: str, cfg, x: Tensor, params, buffers=None, mode="eval",
                 counter: OpCounter | None = None) -> Tensor:
    """Recompute a whole block from primitive oracle ops; in eval mode the
    gmcf kinds read batch norm's running statistics from ``buffers``."""
    if kind == "mscf":
        return oracle_mscf(x, cfg, params, "", counter)
    if kind == "gconv":
        return oracle_gconv(x, cfg, params, "", counter)
    if kind == "gmcf":
        return oracle_gmcf_bottleneck(x, cfg, params, buffers, mode, "", counter)
    if kind == "gmcf-block":
        return oracle_gmcf_block(x, cfg, params, buffers, mode, counter)
    raise ValueError(f"unknown block kind {kind!r}")
