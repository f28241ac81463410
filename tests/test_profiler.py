import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vrfnet import (
    ConvLayer,
    ConvSpec,
    GConvBlock,
    GconvConfig,
    GmcfBottleneck,
    GmcfConfig,
    OpCounter,
    Rng,
    Tensor,
    bench,
    build_block,
    cost_report,
    count_macs,
    count_params,
    ffn_cost,
    oracle_block,
    write_manifest,
)
from vrfnet.config import block_config
from vrfnet.profiler import CONVENTION, conv_macs, count_costs, format_table
from vrfnet.vrft import manifest_element_count


def test_count_params_depthwise_and_standard():
    dw = ConvLayer(ConvSpec(64, 64, 3, groups=64), Rng(1))
    std = ConvLayer(ConvSpec(64, 64, 3), Rng(2))
    assert count_params(dw) == 64 * 9 + 64 == 640
    assert count_params(std) == 64 * 64 * 9 + 64 == 36928


@pytest.mark.parametrize("c", [8, 16, 64, 256])
def test_weight_count_ratio_is_inverse_channels(c):
    dw = ConvLayer(ConvSpec(c, c, 3, groups=c, bias=False))
    std = ConvLayer(ConvSpec(c, c, 3, bias=False))
    assert count_params(std) == count_params(dw) * c


def test_count_params_matches_manifest_bytes(tmp_path):
    for kind in ("mscf", "gconv", "gmcf", "gmcf-block"):
        block = build_block(kind, block_config(kind, 8), Rng(3))
        manifest = write_manifest(tmp_path / kind, "params.manifest", block.params())
        assert manifest_element_count(manifest) == count_params(block), kind


def test_pointwise_mac_formula():
    spec = ConvSpec(64, 128, 1, bias=False)
    assert conv_macs(spec, 1, 32, 32) == 64 * 128 * 32 * 32 == 8388608


def test_residual_add_convention():
    # a parameter-free residual add contributes 1 op/element and no MACs;
    # visible as the difference between a gated-conv block's cost and the
    # same accounting with the final shortcut removed
    shape = (1, 64, 32, 32)
    cfg = GconvConfig(c=64)
    block = GConvBlock(cfg, Rng(4))
    with_residual = count_costs(block, shape)
    parts_macs = sum(
        conv_macs(spec, 1, 32, 32) for spec in block.conv_specs().values()
    )
    assert with_residual.macs == parts_macs  # the add contributes 0 MACs
    hid = 1 * cfg.hidden * 32 * 32
    # decomposition: proj bias + dw bias + restore bias + gate(3) + hadamard + residual
    expected_eltwise = (
        1 * (2 * cfg.hidden) * 32 * 32  # proj bias
        + hid                           # dw bias
        + 1 * 64 * 32 * 32              # restore bias
        + 3 * hid                       # sigmoid gate
        + hid                           # gate * value
        + 65536                         # residual add on (1,64,32,32)
    )
    assert with_residual.eltwise == expected_eltwise
    assert 1 * 64 * 32 * 32 == 65536


@pytest.mark.parametrize(
    "kind,c,shape",
    [
        ("mscf", 8, (1, 8, 6, 6)),
        ("gconv", 6, (2, 6, 5, 5)),
        ("gmcf", 8, (1, 8, 6, 6)),
        ("gmcf-block", 8, (1, 8, 6, 6)),
    ],
)
def test_count_macs_matches_instrumented_oracle(kind, c, shape):
    cfg = block_config(kind, c)
    block = build_block(kind, cfg, Rng(5))
    x = Rng(6).tensor(shape)
    counter = OpCounter()
    oracle_block(kind, cfg, x, block.params(), block.buffers(), "eval", counter)
    counts = count_costs(block, shape)
    assert counts.macs == counter.macs
    assert counts.eltwise == counter.eltwise


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_count_costs_matches_instrumented_oracle_on_random_configs(data):
    kind = data.draw(st.sampled_from(["mscf", "gconv", "gmcf", "gmcf-block"]))
    c = data.draw(st.sampled_from([4, 6, 8]) if kind == "gmcf-block" else st.integers(2, 8))
    width = c // 2 if kind == "gmcf-block" else c  # where channel attention runs
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    # tied: the input's channels repeat, and MSCF's branches share one
    # dilation and scale 0's taps, so the channel max of the spatial
    # attention compares equal features
    tied = data.draw(st.booleans())
    n_scales = data.draw(st.integers(1, 4))
    mscf = {
        "dilations": data.draw(st.lists(st.integers(1, 4), min_size=n_scales,
                                        max_size=n_scales)),
        "use_ca": data.draw(st.booleans()),
        "ca_ratio": data.draw(st.sampled_from([r for r in range(1, width + 1) if width % r == 0])),
    }
    gconv = {"activation": data.draw(st.sampled_from(["relu", "sigmoid_gate"]))}
    if kind == "mscf":
        module = mscf
    elif kind == "gconv":
        module = gconv
    else:
        module = {"mscf": mscf, "gconv": gconv}
        if kind == "gmcf-block":
            module["n_bottlenecks"] = data.draw(st.integers(0, 3))
    shape = (data.draw(st.integers(1, 2)), c, data.draw(st.integers(1, 6)),
             data.draw(st.integers(1, 6)))
    if tied:
        mscf["dilations"] = mscf["dilations"][:1] * n_scales
    cfg = block_config(kind, c, module)
    block = build_block(kind, cfg, Rng(data.draw(st.integers(0, 2**16))), dtype)
    x = Rng(1).tensor(shape, dtype=dtype)
    if tied:
        x = Tensor.wrap(x.data[:, [0] * c])
        params = block.params()
        block.set_params({k: params[re.sub(r"scale\d+", "scale0", k)] for k in params})
    counter = OpCounter()
    ref = oracle_block(kind, cfg, x, block.params(), block.buffers(), "eval", counter)
    counts = count_costs(block, shape)
    assert (counts.macs, counts.eltwise) == (counter.macs, counter.eltwise)
    diff = np.abs(block.forward(x, mode="eval").data - ref.data).max()
    assert diff <= (1e-6 if dtype is np.float32 else 1e-12), diff


def test_count_costs_leaves_block_untouched():
    cfg = GmcfConfig(c=8, dropout=0.5, gconv=GconvConfig(c=8, dropout=0.5))
    block = GmcfBottleneck(cfg, Rng(14), dropout_rng=Rng(15))
    block.forward(Rng(16).tensor((2, 8, 6, 6)), mode="train")  # moves the running stats

    def state():
        return (
            [t.data.tobytes() for t in block.params().values()],
            [t.data.tobytes() for t in block.buffers().values()],
            block._dropout.rng._gen.bit_generator.state,
            block._children["gconv"]._dropout.rng._gen.bit_generator.state,
        )

    before = state()
    count_costs(block, (2, 8, 6, 6))
    assert state() == before


def test_gconv_256_macs_match_instrumented_oracle():
    # the full-size check: ~53M taps through the per-tap oracle
    cfg = GconvConfig(c=256)
    block = build_block("gconv", cfg, Rng(7))
    shape = (1, 256, 20, 20)
    x = Rng(8).tensor(shape)
    counter = OpCounter()
    oracle_block("gconv", cfg, x, block.params(), None, "eval", counter)
    assert count_macs(block, shape) == counter.macs
    # closed form: proj (256 -> 340) + depthwise 3x3 (170) + restore (170 -> 256)
    expected = 400 * (340 * 256 + 170 * 9 + 256 * 170)
    assert counter.macs == expected


def test_gconv_beats_pointwise_ffn_params():
    gconv = GConvBlock(GconvConfig(c=256), Rng(9))
    ffn = ffn_cost(256, (1, 256, 20, 20))
    assert count_params(gconv) == 132856
    assert ffn.params == 4 * 256 * 256 + 3 * 256 == 262912
    assert count_params(gconv) < ffn.params


def test_bench_contract(monkeypatch):
    monkeypatch.delenv("VRF_THREADS", raising=False)
    block = GConvBlock(GconvConfig(c=8), Rng(10))
    with pytest.raises(ValueError):
        bench(block, (1, 8, 6, 6), reps=2)
    stats = bench(block, (1, 8, 6, 6), reps=5)
    assert len(stats["samples_ns"]) == 5
    assert stats["median_ns"] > 0
    assert stats["threads"] == "default"


def test_bench_identical_runs_identical_outputs():
    block = GConvBlock(GconvConfig(c=8), Rng(11))
    x = Rng(12).tensor((1, 8, 6, 6))
    a = block.forward(x)
    b = block.forward(x)
    assert a.data.tobytes() == b.data.tobytes()


def test_cost_report_table_and_convention():
    block = GConvBlock(GconvConfig(c=8), Rng(13))
    report = cost_report(block, (1, 8, 6, 6))
    assert report.flops == 2 * report.macs
    assert report.convention == CONVENTION
    table = format_table([report, ffn_cost(8, (1, 8, 6, 6))])
    assert "gconv" in table and "ffn-2c" in table and "FLOPs = 2*MACs" in table
