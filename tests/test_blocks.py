import numpy as np
import numpy.testing as npt
import pytest

from vrfnet import (
    ConfigError,
    GConvBlock,
    GconvConfig,
    GmcfBlock,
    GmcfBottleneck,
    GmcfConfig,
    MscfBlock,
    MscfConfig,
    Rng,
    Tensor,
    block_gradient_errors,
    build_block,
    conv2d,
    oracle_block,
)
from vrfnet.config import block_config


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
    cfg = MscfConfig(c=3, n_scales=1, dilations=(1,), use_ca=False)
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
    mask = block._children["sa"].forward(concat_channels(feats),
                                         {k[3:]: v for k, v in p.items() if k.startswith("sa.")})
    fused = sum(mask.data[:, i : i + 1] * feats[i].data for i in range(cfg.n_scales))
    bound = sum(np.abs(f.data) for f in feats)
    assert np.all(np.abs(fused) <= bound + 1e-12)


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
    cfg = GmcfConfig(c=8)
    block = GmcfBottleneck(cfg, Rng(20))
    x = Rng(21).tensor((2, 8, 6, 6))
    fast = block.forward(x, mode="train")
    ref = oracle_block("gmcf", cfg, x, block.params(), block.buffers(), "train")
    npt.assert_allclose(fast.data, ref.data, atol=1e-12)


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


# ---------------------------------------------------------------- GMCF block (C2f wrapper)

def test_gmcf_block_no_bottlenecks_degenerates_to_two_pointwise():
    cfg = GmcfConfig(c=8, n_bottlenecks=0)
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
    cfg = GmcfConfig(c=8, n_bottlenecks=1)
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
    cfg = GmcfConfig(c=32, n_bottlenecks=2)
    block = GmcfBlock(cfg, Rng(28), np.float32)
    x = Rng(29).tensor((1, 32, 8, 8), dtype=np.float32)
    fast = block.forward(x, mode="eval")
    ref = oracle_block("gmcf-block", cfg, x, block.params(), block.buffers(), "eval")
    assert np.abs(fast.data.astype(np.float64) - ref.data).max() < 1e-6


def test_gmcf_block_rejects_fractional_hidden_width():
    with pytest.raises(ConfigError, match="integer"):
        GmcfBlock(GmcfConfig(c=8, e=0.3))


# ---------------------------------------------------------------- cross-block invariants

@pytest.mark.parametrize("kind,c", [("mscf", 8), ("gconv", 8), ("gmcf", 8), ("gmcf-block", 8)])
def test_blocks_preserve_shape(kind, c):
    cfg = block_config(kind, c)
    block = build_block(kind, cfg, Rng(30))
    for shape in [(1, c, 7, 7), (2, c, 9, 11)]:
        x = Rng(31).tensor(shape)
        assert block.forward(x, mode="eval").shape == shape


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
    bad = dict(good)
    bad["proj.w"] = Rng(35).tensor((1, 1, 1, 1))
    with pytest.raises(Exception, match="shape"):
        block.set_params(bad)
    block.set_params(good)
