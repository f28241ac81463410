"""The variable receptive-field blocks.

Three composable pieces, all resolution- and channel-preserving:

* :class:`MscfBlock` - N depthwise dilated branches with increasing
  receptive fields, fused under a learned spatial selection mask, gated
  against the input (one fused op, ``select_scales``), with optional
  channel attention on the result.
* :class:`GConvBlock` - gated feed-forward: pointwise expansion to two
  chunks, a depthwise spatial gate on one chunk (x * sigmoid(1.702x)),
  hadamard against the other, pointwise restore, dropout, residual.
* :class:`GmcfBottleneck` - MSCF -> batch norm -> dropout inside one
  shortcut, then GConv (whose own residual forms the second shortcut).
* :class:`GmcfBlock` - a split/concat wrapper in the C2f style: split a
  pointwise projection into two branches, chain bottlenecks on the
  second, concatenate every intermediate, fuse with a pointwise conv.

Blocks hold their parameters in a flat named dict (see
:mod:`vrfnet.layers`); with ``rng=None`` every learnable starts at zero,
which makes GConv and the GMCF bottleneck exact identities in eval mode.
"""

from __future__ import annotations

import numpy as np

from .attention import ChannelAttention, SpatialAttention
from .config import ConfigError, GconvConfig, GmcfBlockConfig, GmcfConfig, MscfConfig
from .eltwise import add, concat_channels, hadamard, select_scales, slice_channels, sum_all
from .layers import ParamBlock, debug_finite, sub_params
from .ops import ConvSpec, DropoutState, batch_norm, dropout, relu, sigmoid_gate
from .tape import FD_STEP, ProbeReplay, Tape, fd_max_rel_err
from .tensor import Rng, Tensor


def _dropout_stream(dropout_rng: Rng | None, name: str) -> Rng:
    """The dropout rng of the child block or dropout site ``name``.

    It is derived from the block's dropout rng (``Rng(0)`` when none is
    given) and the name, so each site's stream follows from one seed and
    its layer path: sibling sites draw independent masks, and a block
    rebuilt from the same seed draws the same ones.
    """
    return (dropout_rng if dropout_rng is not None else Rng(0)).child(name)


class MscfBlock(ParamBlock):
    """Adaptive receptive-field fusion over depthwise dilated branches."""

    kind = "mscf"

    def __init__(self, cfg: MscfConfig, rng: Rng | None = None, dtype=np.float64):
        super().__init__()
        self.cfg = cfg
        for i, d in enumerate(cfg.dilations):
            spec = ConvSpec(cfg.c, cfg.c, cfg.dw_kernel, dilation=d, groups=cfg.c)
            self._add_conv(f"scale{i}", spec, rng, dtype)
        self._children["sa"] = SpatialAttention(cfg.n_scales, cfg.mask_kernel, rng, dtype)
        if cfg.use_ca:
            self._children["ca"] = ChannelAttention(cfg.c, cfg.ca_ratio, rng, dtype)

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        p = self.resolve(params)
        # the concat's buffer is the (n, S, c, h, w) stack select_scales
        # reads; each branch is copied into it as it is computed
        scales = self.cfg.n_scales
        cat = concat_channels((self._conv(p, f"scale{i}", x) for i in range(scales)),
                              scales * self.cfg.c)
        mask = self._children["sa"].forward(cat, sub_params(params, "sa."))
        y = select_scales(cat, mask, x)
        del cat, mask  # release the concat before channel attention runs
        if self.cfg.use_ca:
            y = hadamard(y, self._children["ca"].forward(y, sub_params(params, "ca.")))
        return y


class GConvBlock(ParamBlock):
    """Gated convolution feed-forward with residual passthrough."""

    kind = "gconv"

    def __init__(self, cfg: GconvConfig, rng: Rng | None = None, dtype=np.float64,
                 dropout_rng: Rng | None = None):
        super().__init__()
        self.cfg = cfg
        self._add_conv("proj", ConvSpec(cfg.c, 2 * cfg.hidden, 1), rng, dtype)
        self._add_conv(
            "dw", ConvSpec(cfg.hidden, cfg.hidden, cfg.dw_kernel, groups=cfg.hidden),
            rng, dtype,
        )
        self._add_conv("restore", ConvSpec(cfg.hidden, cfg.c, 1), rng, dtype)
        self._dropout = DropoutState(cfg.dropout, _dropout_stream(dropout_rng, "drop"))

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        """x + dropout(restore(gate(dw(x')) * v))."""
        p = self.resolve(params)
        h = self.cfg.hidden
        # the gate's input and output are released at their last use, so an
        # eval forward holds at most the expansion and three h-wide arrays
        # (at the gate); a tape keeps every node's value whatever is
        # released here
        both = self._conv(p, "proj", x)
        x_prime = slice_channels(both, 0, h)
        v = slice_channels(both, h, 2 * h)
        del both  # the slices are views of it: its buffer goes with the last one
        g = self._conv(p, "dw", x_prime)
        del x_prime
        gated = sigmoid_gate(g) if self.cfg.activation == "sigmoid_gate" else relu(g)
        del g
        prod = hadamard(gated, v)
        del gated
        restored = self._conv(p, "restore", prod)
        # the expansion goes only now: the restore output is then placed
        # above it, and the add's output, which outlives the forward, takes
        # its place low in the heap. Released before the restore conv, the
        # expansion's place went to the restore output and the add's output
        # landed above it, splitting the free space: in 4-5 of 24 checkout
        # directories glibc then trimmed and refaulted its heap in every
        # step of a gmcf-block at 20x20 (about 740 page faults a step
        # against 10, and 10% slower)
        del v, prod
        return add(x, dropout(restored, self._dropout, mode))


class GmcfBottleneck(ParamBlock):
    """MSCF -> batch norm -> dropout -> GConv under dual shortcuts."""

    kind = "gmcf"

    def __init__(self, cfg: GmcfConfig, rng: Rng | None = None, dtype=np.float64,
                 dropout_rng: Rng | None = None):
        super().__init__()
        self.cfg = cfg
        self._children["mscf"] = MscfBlock(cfg.mscf, rng, dtype)
        # affine init: identity scale when randomly initialized, zero otherwise
        gamma0 = np.ones if rng is not None else np.zeros
        self._params["bn.gamma"] = Tensor.wrap(gamma0((1, cfg.c, 1, 1), dtype=dtype))
        self._params["bn.beta"] = Tensor.wrap(np.zeros((1, cfg.c, 1, 1), dtype=dtype))
        self._buffers["bn.running_mean"] = Tensor.wrap(np.zeros((1, cfg.c, 1, 1), dtype=dtype))
        self._buffers["bn.running_var"] = Tensor.wrap(np.ones((1, cfg.c, 1, 1), dtype=dtype))
        self._children["gconv"] = GConvBlock(cfg.gconv, rng, dtype,
                                             _dropout_stream(dropout_rng, "gconv"))
        self._dropout = DropoutState(cfg.dropout, _dropout_stream(dropout_rng, "drop"))

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        p = self.resolve(params)
        m = self._children["mscf"].forward(x, sub_params(params, "mscf."), mode)
        bufs = self._buffers
        normed, mean, var = batch_norm(
            m, p["bn.gamma"], p["bn.beta"], bufs["bn.running_mean"], bufs["bn.running_var"],
            self.cfg.bn_eps, self.cfg.bn_momentum, mode,
        )
        if mode == "train":  # eval reads the block and never writes it
            bufs["bn.running_mean"], bufs["bn.running_var"] = mean, var
        y1 = add(x, dropout(normed, self._dropout, mode))
        del m, normed  # release MSCF's output and its normed copy before GConv runs
        return self._children["gconv"].forward(y1, sub_params(params, "gconv."), mode)


class GmcfBlock(ParamBlock):
    """Split/concat wrapper chaining GMCF bottlenecks, C2f style."""

    kind = "gmcf-block"

    def __init__(self, cfg: GmcfBlockConfig, rng: Rng | None = None, dtype=np.float64,
                 dropout_rng: Rng | None = None):
        super().__init__()
        self.cfg = cfg
        ch = cfg.bottleneck.c
        self.ch = ch
        self._add_conv("cv1", ConvSpec(cfg.c, 2 * ch, 1), rng, dtype)
        for i in range(cfg.n_bottlenecks):
            self._children[f"m{i}"] = GmcfBottleneck(
                cfg.bottleneck, rng, dtype, _dropout_stream(dropout_rng, f"m{i}")
            )
        self._add_conv("cv2", ConvSpec((2 + cfg.n_bottlenecks) * ch, cfg.c, 1), rng, dtype)

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        p = self.resolve(params)
        both = self._conv(p, "cv1", x)
        branches = [slice_channels(both, 0, self.ch), slice_channels(both, self.ch, 2 * self.ch)]
        del both  # the slices are views of it: its buffer goes with them, before cv2 runs
        for i in range(self.cfg.n_bottlenecks):
            branches.append(
                self._children[f"m{i}"].forward(branches[-1], sub_params(params, f"m{i}."), mode)
            )
        cat = concat_channels(branches, len(branches) * self.ch)
        del branches  # release every branch before cv2 runs
        return self._conv(p, "cv2", cat)


class ConvLayer(ParamBlock):
    """A bare convolution behind the block interface (profiling, tests)."""

    kind = "conv"

    def __init__(self, spec: ConvSpec, rng: Rng | None = None, dtype=np.float64):
        super().__init__()
        self.cfg = spec
        self._add_conv("conv", spec, rng, dtype)

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        return self._conv(self.resolve(params), "conv", x)


_BLOCK_TYPES = {cls.kind: cls for cls in (MscfBlock, GConvBlock, GmcfBottleneck, GmcfBlock)}


def build_block(kind: str, cfg, rng: Rng | None = None, dtype=np.float64) -> ParamBlock:
    """Construct a block by CLI kind name."""
    try:
        cls = _BLOCK_TYPES[kind]
    except KeyError:
        raise ConfigError(f"unknown block kind {kind!r}") from None
    return cls(cfg, rng, dtype)


def has_dropout(block: ParamBlock) -> bool:
    """Whether a dropout site of ``block`` or of a child has p > 0."""
    state = getattr(block, "_dropout", None)
    return (state is not None and state.p > 0) or any(map(has_dropout, block._children.values()))


def block_gradient_errors(block: ParamBlock, x: Tensor, mode: str = "eval") -> "dict[str, float]":
    """Finite-difference check of every parameter and the input.

    The tape gradient of sum(output) is computed once in the input's own
    dtype (float64 required); the central-difference probes are then
    evaluated in extended precision so the comparison is limited by the
    tape's rounding rather than by cancellation between f(t+h) and
    f(t-h), h = ``FD_STEP``. Returns max relative error per name
    ('input' plus each parameter), denominator floored at 1e-8. In train
    mode each forward draws new dropout masks, so a dropout p > 0 raises
    ConfigError before any forward runs, and batch norm normalizes with
    batch statistics: the running statistics its forwards update are put
    back afterwards, so the block is left as it was.

    The parameter probes run under one :class:`~vrfnet.tape.ProbeReplay`:
    an op that does not read the probed parameter returns the result it
    gave the previous probe, the same bits, and is not computed again.
    On an eval GMCF bottleneck at (1, 8, 6, 6) that takes about a fifth
    off a sweep. The input probes run without it: every op reads x, so
    no call could hit.
    """
    if x.dtype != np.float64:
        raise TypeError("gradient checks require float64 blocks and inputs")
    if mode == "train" and has_dropout(block):
        raise ConfigError("train-mode gradient checks need dropout 0 (new masks every probe); "
                          "check in eval mode, where dropout is the identity")
    params = block.params()
    buffers = block.buffers()
    try:
        tape = Tape()
        xn = tape.leaf(x, "input")
        pnodes = {k: tape.leaf(t, k) for k, t in params.items()}
        grads = tape.backward(sum_all(block.forward(xn, pnodes, mode)))
        x_grad = grads[xn.id]
        param_grads = {k: grads[node.id] for k, node in pnodes.items()}
        # backward left no node on the tape, so these are the last
        # references to the tape phase: it is freed here, before the probes
        del tape, xn, pnodes, grads

        fd_x = x.astype(np.longdouble)
        fd_params = {k: t.astype(np.longdouble) for k, t in params.items()}

        errors: dict[str, float] = {}
        errors["input"] = fd_max_rel_err(
            lambda t: block.forward(t, fd_params, mode).data.sum(), fd_x, x_grad, FD_STEP
        )
        replay = ProbeReplay()
        for name in params:
            def loss_at(t, _name=name):
                bound = dict(fd_params)
                bound[_name] = t
                return replay(t, block.forward, fd_x, bound, mode).data.sum()

            errors[name] = fd_max_rel_err(loss_at, fd_params[name], param_grads[name], FD_STEP)
        return errors
    finally:
        block.set_buffers(buffers)
