import ast
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
    ConfigError,
    ConvLayer,
    ConvSpec,
    GConvBlock,
    GconvConfig,
    GmcfBlock,
    GmcfBlockConfig,
    GmcfBottleneck,
    GmcfConfig,
    MscfBlock,
    MscfConfig,
    NonFiniteError,
    Rng,
    ShapeError,
    Tensor,
    block_gradient_errors,
    build_block,
    conv2d,
    oracle_block,
)
from vrfnet import ops
from vrfnet.config import block_config
from vrfnet.layers import ParamBlock, sub_params


def _zero_biases(block):
    """Variant of the block's params with every bias-like tensor zeroed."""
    params = {}
    for name, t in block.params().items():
        if name.endswith(".b") or name.endswith("beta"):
            params[name] = Tensor(np.zeros_like(t.data))
        else:
            params[name] = t
    return params


# ---------------------------------------------------------------- MSCF

def test_mscf_single_scale_identity_kernel_halves_square():
    # N=1, identity depthwise kernel, zero mask weights, no channel attention:
    # F1 = x, mask = sigmoid(0) = 0.5, so the output is 0.5 * x * x
    cfg = MscfConfig(c=3, dilations=(1,), use_ca=False)
    block = MscfBlock(cfg)  # zero init
    params = dict(block.params())
    w = np.zeros((3, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    params["scale0.w"] = Tensor(w)
    x = Rng(1).tensor((1, 3, 5, 5))
    out = block.forward(x, params)
    npt.assert_allclose(out.data, 0.5 * x.data * x.data, rtol=1e-15)


def test_mscf_zero_input_annihilates():
    block = MscfBlock(MscfConfig(c=8), Rng(2))
    x = Tensor(np.zeros((1, 8, 6, 6)))
    out = block.forward(x, _zero_biases(block))
    npt.assert_array_equal(out.data, np.zeros((1, 8, 6, 6)))


def test_mscf_matches_composed_oracle_f32():
    cfg = MscfConfig(c=8)
    block = MscfBlock(cfg, Rng(3), np.float32)
    x = Rng(4).tensor((1, 8, 6, 6), dtype=np.float32)
    fast = block.forward(x)
    ref = oracle_block("mscf", cfg, x, block.params())
    assert np.abs(fast.data.astype(np.float64) - ref.data).max() < 1e-6


def test_mscf_channel_mismatch_rejected():
    block = MscfBlock(MscfConfig(c=8), Rng(5))
    with pytest.raises(Exception, match="channels"):
        block.forward(Rng(6).tensor((1, 4, 6, 6)))


def test_mscf_mask_convexity_bound():
    # the masked sum of scale features is elementwise bounded by sum |F_i|
    from vrfnet.eltwise import concat_channels

    cfg = MscfConfig(c=8)
    block = MscfBlock(cfg, Rng(7))
    x = Rng(8).tensor((1, 8, 6, 6), -2, 2)
    p = block.params()
    feats = [block._conv(p, f"scale{i}", x) for i in range(cfg.n_scales)]
    mask = block._children["sa"].forward(concat_channels(feats, cfg.n_scales * cfg.c),
                                         {k[3:]: v for k, v in p.items() if k.startswith("sa.")})
    fused = sum(mask.data[:, i : i + 1] * feats[i].data for i in range(cfg.n_scales))
    bound = sum(np.abs(f.data) for f in feats)
    assert np.all(np.abs(fused) <= bound + 1e-12)


def test_mscf_eval_forward_holds_its_stack_and_one_branch():
    # the branches are copied into the stack as they are computed; held
    # together with it, they would be twice its size again
    c, h = 128, 40
    block = MscfBlock(MscfConfig(c=c), Rng(70), np.float32)
    x = Rng(71).tensor((1, c, h, h)).astype(np.float32)
    block.forward(x)  # first-call caches are not the forward's memory
    with traced_memory() as mem:
        block.forward(x)
        peak = mem.peak()
    branch = x.data.nbytes
    # slack: a branch conv's tile of row-padded planes and its accumulator
    # at the widest dilation (7: 34 planes of 54 rows 47 wide), and an
    # eighth of a branch
    row = h + 7
    tile = ops._DW_TILE // (h * row)
    slack = 4 * tile * ((h + 14) * row + 14 + h * row) + branch // 8
    bound = block.cfg.n_scales * branch + branch + slack
    assert peak <= bound, f"peak {peak} B against stack, branch and slack {bound} B"


def _eval_peak(block, x) -> int:
    block.forward(x)  # first-call caches are not the forward's memory
    with traced_memory() as mem:
        block.forward(x)
        return mem.peak()


def _gconv_dw_tile(hw: int, itemsize: int) -> int:
    """Bytes of one tile of GConv's row-padded 3x3 depthwise planes."""
    row = hw + 1
    return itemsize * (ops._DW_TILE // (hw * row)) * ((hw + 2) * row + 2)


def test_gconv_eval_forward_peaks_at_its_gate():
    # the gate holds the expansion (x', v), g, the sigmoid and its
    # product: 5 h-wide arrays. Held until the restore conv, g and the
    # gate would add its c-wide output on top
    c, hw = 96, 40
    block = GConvBlock(GconvConfig(c=c), Rng(72), np.float32)
    x = Rng(73).tensor((1, c, hw, hw)).astype(np.float32)
    peak = _eval_peak(block, x)
    plane = x.data.nbytes // c
    bound = 5 * block.cfg.hidden * plane + _gconv_dw_tile(hw, 4)
    assert peak <= bound, f"peak {peak} B against the gate's 5h planes and a tile {bound} B"


def test_gmcf_bottleneck_eval_peak_is_mscfs_and_one_output():
    # GConv's phase holds its input and 5 h-wide arrays, about 4.3c, and
    # MSCF's its stack and a branch, 4c and a tile; with GConv's
    # intermediates held until the restore conv the bottleneck would
    # hold 5.3c (at 160x160 that is 0.25 MiB above this bound)
    c, hw = 32, 160
    cfg = GmcfConfig(c=c)
    x = Rng(75).tensor((1, c, hw, hw)).astype(np.float32)
    peak = _eval_peak(GmcfBottleneck(cfg, Rng(74), np.float32), x)
    mscf = _eval_peak(MscfBlock(cfg.mscf, Rng(74), np.float32), x)
    bound = mscf + x.data.nbytes + _gconv_dw_tile(hw, 4)
    assert peak <= bound, f"peak {peak} B against MSCF's {mscf} B, an output and a tile {bound} B"


# ---------------------------------------------------------------- GConv

def test_gconv_zero_weights_is_bit_exact_identity():
    block = GConvBlock(GconvConfig(c=6))
    x = Rng(9).tensor((2, 6, 5, 5))
    out = block.forward(x, mode="eval")
    assert out.data.tobytes() == x.data.tobytes()


def test_gconv_zero_value_branch_passthrough():
    # projection rows for the V chunk zeroed, restore bias zero:
    # the gate multiplies against V = 0, so only the residual survives
    cfg = GconvConfig(c=6)
    block = GConvBlock(cfg, Rng(10))
    params = dict(block.params())
    h = cfg.hidden
    pw = params["proj.w"].data.copy()
    pb = params["proj.b"].data.copy()
    pw[h:] = 0.0
    pb[:, h:] = 0.0
    params["proj.w"] = Tensor(pw)
    params["proj.b"] = Tensor(pb)
    params["restore.b"] = Tensor(np.zeros((1, 6, 1, 1)))
    x = Rng(11).tensor((1, 6, 4, 4))
    out = block.forward(x, params, mode="eval")
    assert out.data.tobytes() == x.data.tobytes()


def test_gconv_matches_composed_oracle():
    cfg = GconvConfig(c=6)
    block = GConvBlock(cfg, Rng(12), np.float32)
    x = Rng(13).tensor((1, 6, 4, 4), dtype=np.float32)
    fast = block.forward(x)
    ref = oracle_block("gconv", cfg, x, block.params())
    assert np.abs(fast.data.astype(np.float64) - ref.data).max() < 1e-6


def test_gconv_relu_variant():
    cfg = GconvConfig(c=6, activation="relu")
    block = GConvBlock(cfg, Rng(14))
    x = Rng(15).tensor((1, 6, 4, 4))
    ref = oracle_block("gconv", cfg, x, block.params())
    npt.assert_allclose(block.forward(x).data, ref.data, rtol=1e-12)


def test_gconv_default_hidden_width():
    assert GconvConfig(c=256).hidden == 170
    assert GconvConfig(c=6).hidden == 4
    with pytest.raises(ConfigError):
        GconvConfig(c=1)  # floor(2/3) = 0 hidden channels


def test_an_unknown_block_kind_is_rejected_by_the_builder_and_the_oracle():
    cfg = GconvConfig(c=6)
    with pytest.raises(ConfigError, match="unknown block kind 'conv'"):
        build_block("conv", cfg)
    with pytest.raises(ValueError, match="unknown block kind 'conv'"):
        oracle_block("conv", cfg, Rng(1).tensor((1, 6, 2, 2)), {})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_conv_weight_no_array_can_index_is_a_config_error_before_it_is_allocated(dtype):
    # a weight of 2**61 - 16 values: 2**63 - 64 bytes in f32, which an
    # index reaches (so numpy is asked for it, and cannot give it), and
    # twice that in f64, which none does
    spec = ConvSpec(8, 2**58 - 2, 1, bias=False)
    if dtype == np.float32:
        with pytest.raises(MemoryError):
            ConvLayer(spec, None, dtype)
    else:
        with pytest.raises(ConfigError, match=r"ConvLayer\.conv: .* float64 bytes"):
            ConvLayer(spec, None, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_padded_plane_no_array_can_index_is_a_config_error(dtype):
    # dilation 2**29 pads a 1x1 plane to (2**30 + 1)**2 values: more than
    # an index reaches in f64 bytes, not in f32 bytes
    block = ConvLayer(ConvSpec(1, 1, 3, dilation=2**29), None, dtype)
    if dtype == np.float32:
        block.check_fits((1, 1, 1, 1))
    else:
        with pytest.raises(ConfigError, match=r"ConvLayer: conv conv \(3x3, dilation 536870912\)"):
            block.check_fits((1, 1, 1, 1))
    # a gmcf-block's bottleneck convs are reached through its children
    gmcf = build_block("gmcf-block", block_config("gmcf-block", 8, {
        "mscf": {"dilations": [1, 2**20]}}))
    gmcf.check_fits((1, 8, 8, 8))
    with pytest.raises(ConfigError, match=r"conv m0\.mscf\.scale1 "):
        gmcf.check_fits((2**20, 8, 8, 8))


# ---------------------------------------------------------------- GMCF bottleneck

def test_gmcf_zero_weights_is_bit_exact_identity_eval():
    block = GmcfBottleneck(GmcfConfig(c=8))
    x = Rng(16).tensor((1, 8, 6, 6))
    out = block.forward(x, mode="eval")
    assert out.data.tobytes() == x.data.tobytes()


def test_gmcf_zero_input_zero_biases():
    block = GmcfBottleneck(GmcfConfig(c=8), Rng(17))
    x = Tensor(np.zeros((1, 8, 6, 6)))
    out = block.forward(x, _zero_biases(block), mode="eval")
    npt.assert_array_equal(out.data, np.zeros((1, 8, 6, 6)))


def test_gmcf_matches_composed_oracle_eval():
    cfg = GmcfConfig(c=16)
    block = GmcfBottleneck(cfg, Rng(18), np.float32)
    x = Rng(19).tensor((2, 16, 8, 8), dtype=np.float32)
    fast = block.forward(x, mode="eval")
    ref = oracle_block("gmcf", cfg, x, block.params(), block.buffers(), "eval")
    assert np.abs(fast.data.astype(np.float64) - ref.data).max() < 1e-6


def test_gmcf_matches_composed_oracle_train_stats():
    for shape in [(2, 8, 6, 6), (1, 32, 40, 40)]:  # the second, the train benchmark's
        cfg = GmcfConfig(c=shape[1])
        block = GmcfBottleneck(cfg, Rng(20))
        x = Rng(21).tensor(shape)
        fast = block.forward(x, mode="train")
        ref = oracle_block("gmcf", cfg, x, block.params(), block.buffers(), "train")
        npt.assert_allclose(fast.data, ref.data, atol=1e-12, err_msg=str(shape))


def test_gmcf_train_updates_running_stats():
    block = GmcfBottleneck(GmcfConfig(c=4), Rng(22))
    x = Rng(23).tensor((2, 4, 5, 5))
    before = block.buffers()["bn.running_var"].data.copy()
    block.forward(x, mode="train")
    after = block.buffers()["bn.running_var"].data
    assert not np.array_equal(before, after)


def test_train_mode_gradient_check_leaves_running_stats():
    block = GmcfBottleneck(GmcfConfig(c=4), Rng(36))
    before = [t.data.tobytes() for t in block.buffers().values()]
    block_gradient_errors(block, Rng(37).tensor((1, 4, 3, 3)), mode="train")
    assert [t.data.tobytes() for t in block.buffers().values()] == before


@pytest.mark.parametrize("kind,module", [
    ("gconv", {"dropout": 0.5}),
    ("gmcf", {"dropout": 0.5}),  # the bottleneck's own site
    ("gmcf-block", {"gconv": {"dropout": 0.5}}),  # a site two blocks down
])
def test_train_gradient_check_rejects_dropout_and_leaves_the_block_as_it_was(kind, module):
    # each train forward draws new masks, so every probe would see
    # another function; the check refuses before any forward draws
    cfg = block_config(kind, 8, module)
    block, twin = build_block(kind, cfg, Rng(38)), build_block(kind, cfg, Rng(38))
    x = Rng(39).tensor((1, 8, 4, 4))
    with pytest.raises(ValueError, match="dropout"):
        block_gradient_errors(block, x, mode="train")
    # eval-mode dropout is the identity: that check is valid, and draws nothing
    assert max(block_gradient_errors(block, x, mode="eval").values()) < 1e-5
    # the same masks as the untouched twin's, so the dropout rngs did not move
    assert np.array_equal(block.forward(x, mode="train").data, twin.forward(x, mode="train").data)


# ---------------------------------------------------------------- GMCF block (C2f wrapper)

def test_gmcf_block_no_bottlenecks_degenerates_to_two_pointwise():
    cfg = GmcfBlockConfig(c=8, n_bottlenecks=0)
    block = GmcfBlock(cfg)  # zero weights: output is the cv2 bias alone, here zero
    x = Rng(24).tensor((1, 8, 6, 6))
    npt.assert_array_equal(block.forward(x).data, np.zeros((1, 8, 6, 6)))

    rng = Rng(25)
    block = GmcfBlock(cfg, rng)
    p = block.params()
    out = block.forward(x)
    both = conv2d(x, p["cv1.w"], p["cv1.b"], block._specs["cv1"])
    fused = conv2d(both, p["cv2.w"], p["cv2.b"], block._specs["cv2"])
    npt.assert_allclose(out.data, fused.data, rtol=1e-12)


def test_gmcf_block_zero_bottleneck_equals_identity_chain():
    # random split/fuse convs, zeroed bottleneck: the chained branch passes through
    cfg = GmcfBlockConfig(c=8, n_bottlenecks=1)
    block = GmcfBlock(cfg, Rng(26))
    params = dict(block.params())
    for name in params:
        if name.startswith("m0."):
            params[name] = Tensor(np.zeros_like(params[name].data))
    x = Rng(27).tensor((1, 8, 6, 6))
    out = block.forward(x, params, mode="eval")

    both = conv2d(x, params["cv1.w"], params["cv1.b"], block._specs["cv1"])
    a, b = both.data[:, :4], both.data[:, 4:]
    cat = Tensor(np.concatenate([a, b, b], axis=1))  # identity bottleneck repeats b
    expected = conv2d(cat, params["cv2.w"], params["cv2.b"], block._specs["cv2"])
    npt.assert_array_equal(out.data, expected.data)


def test_gmcf_block_matches_composed_oracle():
    cfg = GmcfBlockConfig(c=32, n_bottlenecks=2)
    block = GmcfBlock(cfg, Rng(28), np.float32)
    x = Rng(29).tensor((1, 32, 8, 8), dtype=np.float32)
    fast = block.forward(x, mode="eval")
    ref = oracle_block("gmcf-block", cfg, x, block.params(), block.buffers(), "eval")
    assert np.abs(fast.data.astype(np.float64) - ref.data).max() < 1e-6


def test_gmcf_block_rejects_fractional_hidden_width():
    with pytest.raises(ConfigError, match="integer"):
        GmcfBlock(GmcfBlockConfig(c=8, e=0.3))


def test_gmcf_block_releases_intermediates_at_their_last_use():
    # batch 2, so the cv1 slices are copies rather than views of its output
    block = GmcfBlock(GmcfBlockConfig(c=8), Rng(34))
    bottleneck = block._children["m0"]
    mscf, gconv = bottleneck._children["mscf"], bottleneck._children["gconv"]
    x = Rng(35).tensor((2, 8, 6, 6))
    want = block.forward(x)
    out, alive = {}, {}

    def conv(p, name, xin):
        if name == "cv2":
            alive["cv1 output at cv2"] = out["cv1"]() is not None
        y = ParamBlock._conv(block, p, name, xin)
        out[name] = weakref.ref(y.data)
        return y

    def mscf_forward(xin, params=None, mode="eval"):
        y = type(mscf).forward(mscf, xin, params, mode)
        out["mscf"] = weakref.ref(y.data)
        return y

    def gconv_forward(xin, params=None, mode="eval"):
        alive["mscf output in gconv"] = out["mscf"]() is not None
        return type(gconv).forward(gconv, xin, params, mode)

    block._conv, mscf.forward, gconv.forward = conv, mscf_forward, gconv_forward
    got = block.forward(x)
    assert alive == {"cv1 output at cv2": False, "mscf output in gconv": False}
    npt.assert_array_equal(got.data, want.data)


def test_an_eval_mscf_forward_streams_its_branches_into_the_concat(monkeypatch):
    # outside a probe replay the concat copies each branch in as it
    # arrives: the first branch's output is gone before the third runs
    block = MscfBlock(MscfConfig(c=8), Rng(42))
    x = Rng(43).tensor((1, 8, 6, 6))
    want = block.forward(x)
    outputs, alive = [], []
    depthwise = ops._depthwise

    def spy(xd, wd, bd, spec):
        if len(outputs) == 2:
            alive.append(outputs[0]() is not None)
        out = depthwise(xd, wd, bd, spec)
        outputs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ops, "_depthwise", spy)
    got = block.forward(x)
    assert alive == [False]
    npt.assert_array_equal(got.data, want.data)


# ---------------------------------------------------------------- cross-block invariants

@pytest.mark.parametrize("kind,c", [("mscf", 8), ("gconv", 8), ("gmcf", 8), ("gmcf-block", 8)])
def test_blocks_preserve_shape(kind, c):
    cfg = block_config(kind, c)
    block = build_block(kind, cfg, Rng(30))
    for shape in [(1, c, 7, 7), (2, c, 9, 11)]:
        x = Rng(31).tensor(shape)
        assert block.forward(x, mode="eval").shape == shape


# spatial attention's 7x7 mask conv builds its im2col columns in bands of
# output rows at (., 2, 40, 40): with the band height sized from the whole
# batch, sample 0 of this batch of two was up to 2.4e-7 away from its
# forward alone in f32, the bands' products rounding differently. The
# benchmark's forward shapes follow, whose depthwise tiles hold runs of
# one sample's channels
@pytest.mark.parametrize("kind,shape,dtype", [
    pytest.param(kind, shape, dtype, id=name + dtype.__name__)
    for kind, shape, name in (("gmcf", (2, 32, 40, 40), ""),
                              ("gmcf", (2, 64, 80, 80), "gmcf-2x64x80x80-"),
                              ("gmcf-block", (4, 256, 20, 20), "gmcf-block-4x256x20x20-"))
    for dtype in (np.float32, np.float64)
])
def test_a_samples_eval_output_does_not_depend_on_its_batch(kind, shape, dtype):
    block = build_block(kind, block_config(kind, shape[1]), Rng(34), dtype)
    x = Rng(35).tensor(shape).astype(dtype)
    both = block.forward(x, mode="eval").data
    for i in range(shape[0]):
        alone = block.forward(Tensor(x.data[i : i + 1]), mode="eval").data
        # the bytes, so the signs of zeros count too
        assert both[i : i + 1].tobytes() == alone.tobytes(), i


@pytest.mark.parametrize("kind,module", [("mscf", {}), ("mscf", {"use_ca": False}),
                                         ("gconv", {})], ids=["mscf", "mscf-no-ca", "gconv"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_eval_output_shifts_with_its_input_away_from_the_frame(kind, module, dtype):
    # an input with a zero margin of 12, rolled by (5, 3), stays inside
    # it; the output rolls with it bit for bit, sign bits included, 8
    # pixels in from the frame: past the wrapped rows and columns, near
    # which a conv reads the frame's padding where it read the margin's
    # zeros (and GConv's expansion is its bias there, not zero)
    block = build_block(kind, block_config(kind, 16, module), Rng(44), dtype)
    x = Rng(45).tensor((1, 16, 80, 80), dtype=dtype).data.copy()
    margin = np.ones(x.shape, dtype=bool)
    margin[:, :, 12:-12, 12:-12] = False
    x[margin] = 0
    want = np.roll(block.forward(Tensor(x)).data, (5, 3), axis=(2, 3))[:, :, 8:-8, 8:-8]
    got = block.forward(Tensor(np.roll(x, (5, 3), axis=(2, 3)))).data[:, :, 8:-8, 8:-8]
    assert got.tobytes() == want.tobytes()


def _bottleneck_perms(cfg, prefix, p, ph):
    """Channel permutations of a gmcf bottleneck whose input channels are
    permuted by ``p`` and GConv's hidden channels by ``ph``: the (output,
    input) permutation of each conv and of batch norm, by name, and each
    width's for the other ops (MSCF's stack in blocks of c; a width that
    nothing permutes maps to itself)."""
    c, h, scales = cfg.c, cfg.gconv.hidden, cfg.mscf.n_scales
    ident = np.arange
    convs = {f"{prefix}mscf.scale{i}": (p, p) for i in range(scales)}
    convs.update({
        f"{prefix}mscf.sa.conv": (ident(scales), ident(2)),
        f"{prefix}mscf.ca.reduce": (ident(c // cfg.mscf.ca_ratio), p),
        f"{prefix}mscf.ca.expand": (p, ident(c // cfg.mscf.ca_ratio)),
        f"{prefix}gconv.proj": (np.concatenate([ph, h + ph]), p),
        f"{prefix}gconv.dw": (ph, ph),
        f"{prefix}gconv.restore": (p, ph),
        f"{prefix}bn": (p, p),
    })
    widths = {c: p, h: ph, scales * c: np.concatenate([p + i * c for i in range(scales)]),
              c // cfg.mscf.ca_ratio: ident(c // cfg.mscf.ca_ratio), scales: ident(scales)}
    assert len(widths) == 5, "two of the widths are equal: a width names no one permutation"
    return convs, widths


def _channel_perms(block, rng):
    """The permutation of x's channels and ``_bottleneck_perms``' maps for a
    gmcf bottleneck or a gmcf-block, whose bottlenecks permute their
    ``e*c`` channels alike (the block's own convs are added to the map)."""
    cfg = block.cfg
    p = rng.permutation(cfg.c)
    if block.kind == "gmcf":
        return p, *_bottleneck_perms(cfg, "", p, rng.permutation(cfg.gconv.hidden))
    ch, n, inner = block.ch, cfg.n_bottlenecks, cfg.bottleneck
    q, qh = rng.permutation(ch), rng.permutation(inner.gconv.hidden)
    convs = {"cv1": (np.concatenate([q, ch + q]), p),
             "cv2": (p, np.concatenate([q + i * ch for i in range(2 + n)]))}
    for i in range(n):
        convs.update(_bottleneck_perms(inner, f"m{i}.", q, qh)[0])
    return p, convs, _bottleneck_perms(inner, "", q, qh)[1]


def _permuted(tensors, convs, specs):
    """``tensors`` (params or buffers, by flat name) permuted as ``convs``
    says: a weight by its output and, unless depthwise, input channels;
    a bias or a batch-norm tensor by its channels."""
    out = {}
    for name, t in tensors.items():
        stem, leaf = name.rsplit(".", 1)
        o, i = convs[stem]
        a = t.data[o] if leaf == "w" else t.data[:, o]
        if leaf == "w" and specs[stem].groups == 1:
            a = a[:, i]
        out[name] = Tensor(np.ascontiguousarray(a))
    return out


# the ops a gmcf bottleneck runs, by the module namespace its blocks call
# them through; every one but the conv is per-channel. channel_avg_max,
# the concat and the slices are left to the whole-block relation
_RECORDED_OPS = [(vrfnet.layers, "conv2d"), (vrfnet.blocks, "select_scales"),
                 (vrfnet.blocks, "batch_norm"), (vrfnet.blocks, "dropout"),
                 (vrfnet.blocks, "add"), (vrfnet.blocks, "hadamard"),
                 (vrfnet.blocks, "sigmoid_gate"), (vrfnet.attention, "spatial_mean"),
                 (vrfnet.attention, "relu"), (vrfnet.attention, "sigmoid")]


@pytest.mark.parametrize("kind,shape,dtype", [
    pytest.param(kind, shape, dtype, id=f"{kind}-{dtype.__name__}")
    for kind, shape in (("gmcf", (1, 64, 80, 80)), ("gmcf-block", (4, 256, 20, 20)))
    for dtype in (np.float32, np.float64)
])
def test_permuting_channels_and_weights_permutes_the_output(kind, shape, dtype, monkeypatch):
    # x's channels permuted, and every weight (GConv's hidden channels by
    # a permutation of their own) to match. Every op of the forward, given
    # its recorded arguments permuted, gives its recorded output permuted:
    # bit for bit for a depthwise conv and a per-channel op, and within
    # twice the rounding bound of a dot product, 2*gamma_n*sum|w||x|, for
    # a conv that sums over channels in a new order. The whole output
    # permutes within 64 eps of its largest value: it read 1.0 eps (gmcf)
    # and 6.5-9.5 eps (gmcf-block), after the reordered sums of the
    # pointwise convs and channel_avg_max's mean
    block = build_block(kind, block_config(kind, shape[1]), Rng(46), dtype)
    p, convs, widths = _channel_perms(block, np.random.default_rng(47))
    specs = block.conv_specs()
    params = _permuted(block.params(), convs, specs)
    permuted = build_block(kind, block.cfg, None, dtype)
    permuted.set_params(params)
    permuted.set_buffers(_permuted(block.buffers(), convs, specs))
    x = Rng(48).tensor(shape).astype(dtype)

    calls = []
    for module, name in _RECORDED_OPS:
        def recorded(*args, _op=getattr(module, name)):
            out = _op(*args)
            calls.append((_op, args, out))
            return out

        monkeypatch.setattr(module, name, recorded)
    want = block.forward(x).data[:, p]
    monkeypatch.undo()
    got = permuted.forward(Tensor(x.data[:, p])).data
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 64 * np.finfo(dtype).eps * scale

    assert {op.__name__ for op, _, _ in calls} == {name for _, name in _RECORDED_OPS}
    by_weight = {id(t): name[:-2] for name, t in block.params().items()}
    u = np.finfo(dtype).eps / 2

    def perm(a):
        return Tensor(a.data[:, widths[a.shape[1]]]) if isinstance(a, Tensor) else a

    for op, args, out in calls:
        if op is conv2d:
            tx, w, _, spec = args
            name = by_weight[id(w)]
            o, i = convs[name]
            pw, pb = params[name + ".w"], params.get(name + ".b")
            got = conv2d(Tensor(tx.data[:, i]), pw, pb, spec).data
            if spec.groups > 1:
                assert got.tobytes() == out.data[:, o].tobytes(), name
                continue
            # sum|w||x| per output, with each sample's largest |x| for |x|
            # (every conv has a bias)
            n = spec.fan_in + 1
            terms = (np.abs(pw.data).sum(axis=(1, 2, 3)).reshape(1, -1, 1, 1)
                     * np.abs(tx.data).max(axis=(1, 2, 3), keepdims=True) + np.abs(pb.data))
            bound = 2 * n * u / (1 - n * u) * terms
            assert (np.abs(got - out.data[:, o]) <= bound).all(), name
            continue
        got = op(*map(perm, args))
        for g, o in zip(*((got, out) if isinstance(out, tuple) else ((got,), (out,)))):
            assert g.data.tobytes() == o.data[:, widths[o.shape[1]]].tobytes(), op.__name__


@pytest.mark.parametrize("kind", ["mscf", "gconv", "gmcf", "gmcf-block"])
def test_a_samples_longdouble_probe_output_does_not_depend_on_its_batch(kind):
    # the gradient check's 576 input probes of a (1, 8, 6, 6) input, as one
    # eval forward at batch 576 with the parameters cast to longdouble as
    # block_gradient_errors casts them. The batch runs its depthwise convs
    # on row-padded tiles of whole samples (105 of them a tile at d = 7,
    # 195 at d = 1), a sample alone on the compact window layout: the
    # samples checked are the first and last, and either side of a tile's
    # end at d = 7 and at d = 1
    block = build_block(kind, block_config(kind, 8), Rng(36))
    params = {k: t.astype(np.longdouble) for k, t in block.params().items()}
    x = Rng(37).tensor((576, 8, 6, 6)).astype(np.longdouble)
    both = block.forward(x, params, mode="eval").data
    for i in (0, 104, 105, 194, 195, 575):
        alone = block.forward(Tensor.wrap(x.data[i : i + 1]), params, mode="eval").data
        # values and sign bits: the bytes would include longdouble's
        # padding, which is not data
        got = both[i : i + 1]
        assert np.array_equal(got, alone) and np.array_equal(np.signbit(got), np.signbit(alone)), i


def test_blocks_deterministic_construction_and_forward():
    for kind in ("mscf", "gconv", "gmcf", "gmcf-block"):
        cfg = block_config(kind, 8)
        x = Rng(33).tensor((1, 8, 6, 6))
        a = build_block(kind, cfg, Rng(32)).forward(x, mode="eval")
        b = build_block(kind, cfg, Rng(32)).forward(x, mode="eval")
        assert a.data.tobytes() == b.data.tobytes(), kind


def test_set_params_validates_names_and_shapes():
    block = GConvBlock(GconvConfig(c=6), Rng(34))
    good = block.params()
    with pytest.raises(KeyError):
        block.set_params({k: v for k, v in list(good.items())[:-1]})
    for wrong in (Rng(35).tensor((1, 1, 1, 1)), good["proj.w"].astype(np.float32)):
        bad = dict(good)
        bad["proj.w"] = wrong
        with pytest.raises(Exception, match="shape"):
            block.set_params(bad)
    block.set_params(good)


def test_set_buffers_validates_names_shapes_and_dtypes():
    block = GmcfBlock(GmcfBlockConfig(c=8, n_bottlenecks=2), Rng(38))
    good = block.buffers()
    missing = dict(list(good.items())[:-1])
    extra = {**good, "m0.bn.running_vax": good["m0.bn.running_var"]}
    for bad in (missing, extra):
        with pytest.raises(KeyError):
            block.set_buffers(bad)
    for name, wrong in (("m1.bn.running_mean", Tensor(np.zeros((1, 5, 1, 1)))),
                        ("m1.bn.running_var", good["m1.bn.running_var"].astype(np.float32))):
        with pytest.raises(ShapeError):
            block.set_buffers({**good, name: wrong})
    assert block.buffers() == good  # a rejected call changes nothing
    moved = {k: Tensor(t.data + 1.0) for k, t in good.items()}
    block.set_buffers(moved)
    assert block.buffers() == moved


def _dropout_masks(block, sites, shape=(1, 4, 6, 6)):
    """One train-mode mask per dropout site, keyed by the site's layer path."""
    from vrfnet import DropoutState, dropout

    masks = {}
    for path in sites:
        owner = block
        for part in path.split(".")[:-1]:
            owner = owner._children[part]
        state = owner._dropout
        assert isinstance(state, DropoutState)
        masks[path] = dropout(Tensor(np.ones(shape)), state, "train").data
    return masks


_GMCF_SITES = ("drop", "gconv.drop")
_BLOCK_SITES = ("m0.drop", "m0.gconv.drop", "m1.drop", "m1.gconv.drop")


def _dropout_cfg(c):
    return GmcfConfig(c=c, dropout=0.5, gconv=GconvConfig(c=c, dropout=0.5))


# a gmcf-block at c = 8 whose two bottlenecks are _dropout_cfg(4)
_DROPOUT_BLOCK = GmcfBlockConfig(c=8, bottleneck=_dropout_cfg(4), n_bottlenecks=2)


def test_sibling_dropout_sites_draw_independent_masks():
    # every site used to get its own Rng(0), so equal shapes drew equal masks
    for kind, cfg, sites in (("gmcf", _dropout_cfg(4), _GMCF_SITES),
                             ("gmcf-block", _DROPOUT_BLOCK, _BLOCK_SITES)):
        masks = list(_dropout_masks(build_block(kind, cfg, Rng(1)), sites).values())
        for i in range(len(masks)):
            for j in range(i):
                assert not np.array_equal(masks[i], masks[j]), (kind, sites[i], sites[j])


def test_dropout_masks_follow_the_seed_and_layer_path():
    cfg = _DROPOUT_BLOCK
    a = _dropout_masks(GmcfBlock(cfg, Rng(1), dropout_rng=Rng(5)), _BLOCK_SITES)
    b = _dropout_masks(GmcfBlock(cfg, Rng(2), dropout_rng=Rng(5)), _BLOCK_SITES)
    c = _dropout_masks(GmcfBlock(cfg, Rng(1), dropout_rng=Rng(6)), _BLOCK_SITES)
    for path in _BLOCK_SITES:
        npt.assert_array_equal(a[path], b[path])  # the parameter rng plays no part
        assert not np.array_equal(a[path], c[path])
    # a bottleneck draws what the same bottleneck draws inside a gmcf-block
    inner = GmcfBottleneck(cfg.bottleneck, None, dropout_rng=Rng(5).child("m1"))
    m1 = _dropout_masks(inner, _GMCF_SITES)
    npt.assert_array_equal(m1["drop"], a["m1.drop"])
    npt.assert_array_equal(m1["gconv.drop"], a["m1.gconv.drop"])


def test_param_views_read_the_flat_dict_without_copies():
    block = GmcfBlock(GmcfBlockConfig(c=8, n_bottlenecks=2), Rng(39))
    flat = block.params()
    sa = sub_params(sub_params(sub_params(flat, "m1."), "mscf."), "sa.")
    assert sa["conv.w"] is flat["m1.mscf.sa.conv.w"]
    assert sa.get("conv.b") is flat["m1.mscf.sa.conv.b"]
    with pytest.raises(KeyError):
        sa["conv.x"]
    assert sub_params(None, "m1.") is None  # a child then reads its own registry

    # a bias-free conv's view has no bias, and its forward runs on the view
    layer = ConvLayer(ConvSpec(2, 3, 1, bias=False), Rng(40))
    outer = {"layer." + k: t for k, t in layer.params().items()}
    view = sub_params(outer, "layer.")
    assert view.get("conv.b") is None
    x = Rng(41).tensor((1, 2, 4, 4))
    assert np.array_equal(layer.forward(x, view).data, layer.forward(x).data)


def test_forward_with_one_overridden_parameter_uses_it():
    # block_gradient_errors probes this way: one entry of the flat dict replaced
    block = build_block("gmcf-block", block_config("gmcf-block", 8), Rng(42))
    x = Rng(43).tensor((1, 8, 6, 6))
    base = block.forward(x).data
    for name in ("m0.mscf.sa.conv.w", "m0.gconv.dw.b", "m0.bn.gamma", "cv2.w"):
        params = dict(block.params())
        params[name] = Tensor(params[name].data * 0.5)
        probed = block.forward(x, params).data
        assert not np.array_equal(probed, base), name
        twin = build_block("gmcf-block", block_config("gmcf-block", 8), Rng(42))
        twin.set_params(params)
        assert np.array_equal(twin.forward(x).data, probed), name
    assert np.array_equal(block.forward(x, block.params()).data, base)


@pytest.mark.parametrize("registry,name,value,blamed", [
    ("params", "mscf.scale0.w", np.nan, "MscfBlock"),  # not SpatialAttention, which reads it
    ("buffers", "bn.running_var", -1.0, "GmcfBottleneck"),  # not GConvBlock
])
def test_debug_finite_names_the_block_that_produced_the_non_finite_value(
        registry, name, value, blamed):
    block = GmcfBottleneck(GmcfConfig(c=8), Rng(40))
    tensors = getattr(block, registry)()
    bad = tensors[name].data.copy()
    bad.flat[0] = value
    getattr(block, f"set_{registry}")({**tensors, name: Tensor(bad)})
    x = Rng(41).tensor((1, 8, 6, 6))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
        block.forward(x)
    assert str(info.value) == f"{blamed} produced non-finite values"


_OVERFLOW = textwrap.dedent("""
    import numpy as np
    from vrfnet import ConvLayer, ConvSpec, NonFiniteError, Tensor

    # max * 2 + max * -2 is inf - inf: finite operands, a NaN output
    layer = ConvLayer(ConvSpec(2, 1, 1, bias=False))
    layer.set_params({"conv.w": Tensor(np.full((1, 2, 1, 1), np.finfo(np.float64).max))})
    x = Tensor(np.array([2.0, -2.0]).reshape(1, 2, 1, 1))
    try:
        with np.errstate(all="ignore"):
            layer.forward(x)
    except NonFiniteError as exc:
        print(f"NonFiniteError: {exc}")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_debug_finite_raises_with_asserts_compiled_out(flags):
    src = str(Path(vrfnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", _OVERFLOW], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NonFiniteError: ConvLayer produced non-finite values\n"


def _is_assert(node, module: str) -> bool:
    # python -O compiles asserts out: a check written as one would make
    # the optimized interpreter run another program
    return isinstance(node, ast.Assert)


def _is_op_plumbing_outside_tape(node, module: str) -> bool:
    # every op returns through tape.emit, so only tape.py records a node
    # or reaches the op counter
    if module == "tape.py":
        return False
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "record"
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return getattr(node, names.get(type(node), "_"), None) in ("tally", "_COUNTER")


def _is_op_outside_the_entry_hook(node, module: str) -> bool:
    # every op that returns through tape.emit enters through tape.op_entry,
    # and only tape.py reaches the probe replay's state; blocks.py alone
    # opens a replay, in block_gradient_errors
    if module in ("ops.py", "eltwise.py") and isinstance(node, ast.FunctionDef):
        emits = any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "emit" for sub in ast.walk(node))
        hooked = any(isinstance(d, ast.Name) and d.id == "op_entry" for d in node.decorator_list)
        return emits and not hooked
    if module == "tape.py":
        return False
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    name = getattr(node, names.get(type(node), "_"), None)
    return (name in ("_REPLAY", "_call", "_records", "_at", "_probe")
            or name == "ProbeReplay" and module != "blocks.py")


def _is_node_value_write_outside_tape(node, module: str) -> bool:
    # a node's value may be pointed only at an equal array, which
    # tape.share_value checks: no other module assigns a node's .tensor
    if module == "tape.py":
        return False
    targets = {ast.Assign: "targets", ast.AugAssign: "target", ast.AnnAssign: "target"}
    found = getattr(node, targets.get(type(node), "_"), [])
    for target in found if isinstance(found, list) else [found]:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and sub.attr == "tensor":
                return True
    return False


def _is_import_inside_function(node, module: str) -> bool:
    # a deferred import cannot run before numpy loads: the package's
    # __init__ imports numpy first, so imports sit at module level
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        isinstance(sub, (ast.Import, ast.ImportFrom)) for sub in ast.walk(node))


_FAST_PATH_MODULES = ("ops", "eltwise", "layers", "blocks", "attention")


def _is_fast_path_arithmetic_in_the_oracle(node, module: str) -> bool:
    # the oracle checks both conv lowerings, so it shares none of their
    # arithmetic: no product routine, and nothing of the fast path's
    # modules but ConvSpec, the descriptor both sides read
    if module != "oracle.py":
        return False
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Import):
        return any(a.name.rpartition(".")[2] in _FAST_PATH_MODULES for a in node.names)
    if isinstance(node, ast.ImportFrom):
        source = (node.module or "").rpartition(".")[2]
        imported = [a.name for a in node.names]
        if source == "ops":
            return imported != ["ConvSpec"]
        return source in _FAST_PATH_MODULES or any(n in _FAST_PATH_MODULES for n in imported)
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return getattr(node, names.get(type(node), "_"), None) in (
        "einsum", "matmul", "dot", "tensordot")


_CATCH_ALLS = ("Exception", "BaseException", "ValueError", "TypeError")


def _is_catch_all_in_the_cli(node, module: str) -> bool:
    # NonFiniteError, ShapeError and FormatError are ValueErrors: a broad
    # except in the CLI would give them, or a bug, exit 2 and hide the
    # traceback that shows where a check is missing
    if module != "cli.py" or not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(getattr(t, "id", getattr(t, "attr", None)) in _CATCH_ALLS for t in caught)


@pytest.mark.parametrize("banned", [_is_assert, _is_op_plumbing_outside_tape,
                                    _is_op_outside_the_entry_hook,
                                    _is_node_value_write_outside_tape,
                                    _is_import_inside_function,
                                    _is_fast_path_arithmetic_in_the_oracle,
                                    _is_catch_all_in_the_cli],
                         ids=["assert", "op-plumbing-outside-tape", "op-outside-the-entry-hook",
                              "node-value-write-outside-tape", "import-inside-function",
                              "fast-path-arithmetic-in-the-oracle", "catch-all-in-the-cli"])
def test_the_library_source_has_no(banned):
    found = []
    for path in sorted(Path(vrfnet.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if banned(node, path.name)]
    assert not found, found
