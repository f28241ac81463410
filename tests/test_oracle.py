import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from vrfnet import (
    ConvSpec,
    GConvBlock,
    GconvConfig,
    MscfBlock,
    MscfConfig,
    OpCounter,
    Rng,
    Tensor,
    block_config,
    build_block,
    compare,
    conv2d,
    oracle_block,
    oracle_conv2d,
)


def test_oracle_identity_depthwise():
    x = Rng(1).tensor((1, 3, 5, 5))
    w = np.zeros((3, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    out = oracle_conv2d(x, Tensor(w), None, ConvSpec(3, 3, 3, groups=3, bias=False))
    npt.assert_array_equal(out.data, x.data)


def test_oracle_pointwise_hand_case():
    x = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    w = Tensor(np.array([3.0, 4.0]).reshape(1, 2, 1, 1))
    b = Tensor(np.zeros((1, 1, 1, 1)))
    assert oracle_conv2d(x, w, b, ConvSpec(2, 1, 1)).item() == 11.0


def test_oracle_agrees_with_fast_conv_on_random_specs():
    # small slice of the acceptance grid; the full 200-spec sweep runs there
    rng = Rng(2)
    for _ in range(40):
        k = rng.choice((1, 3, 7))
        d = rng.choice((1, 3, 5, 7))
        c = rng.choice((2, 3, 4, 6))
        groups = rng.choice((1, c))
        c_out = c if groups == c else rng.choice((1, 2, 4))
        spec = ConvSpec(c, c_out, k, dilation=d, groups=groups, bias=rng.choice((True, False)))
        fan_in = (c // groups) * k * k
        x = rng.tensor((1, c, rng.integers(5, 9), rng.integers(5, 9)), dtype=np.float32)
        w = rng.tensor(spec.weight_shape, -1.0 / fan_in, 1.0 / fan_in, np.float32)
        b = rng.tensor((1, c_out, 1, 1), -0.1, 0.1, np.float32) if spec.bias else None
        fast = conv2d(x, w, b, spec)
        ref = oracle_conv2d(x, w, b, spec)
        assert np.abs(fast.data.astype(np.float64) - ref.data).max() < 1e-6


def test_oracle_accumulates_in_f64_for_f32_inputs():
    x = Rng(3).tensor((1, 2, 4, 4), dtype=np.float32)
    w = Rng(4).tensor((2, 2, 3, 3), dtype=np.float32)
    b = Rng(5).tensor((1, 2, 1, 1), dtype=np.float32)
    out = oracle_conv2d(x, w, b, ConvSpec(2, 2, 3))
    assert out.dtype == np.float64


def test_oracle_zero_weight_gconv_is_identity():
    cfg = GconvConfig(c=6)
    block = GConvBlock(cfg)
    x = Rng(6).tensor((1, 6, 4, 4))
    out = oracle_block("gconv", cfg, x, block.params())
    npt.assert_array_equal(out.data, x.data)


def test_oracle_zero_input_mscf_is_zero():
    cfg = MscfConfig(c=8)
    block = MscfBlock(cfg)
    x = Tensor(np.zeros((1, 8, 6, 6)))
    out = oracle_block("mscf", cfg, x, block.params())
    npt.assert_array_equal(out.data, np.zeros((1, 8, 6, 6)))


def test_oracle_mscf_differential():
    cfg = MscfConfig(c=8)
    block = MscfBlock(cfg, Rng(7), np.float32)
    x = Rng(8).tensor((1, 8, 6, 6), dtype=np.float32)
    fast = block.forward(x)
    ref = oracle_block("mscf", cfg, x, block.params())
    report = compare("mscf", fast, ref, seed=7)
    assert report.max_abs_diff < 1e-6


@pytest.mark.parametrize("kind, shape", [("gmcf", (1, 64, 80, 80)),
                                         ("gmcf-block", (4, 256, 20, 20))],
                         ids=["gmcf-1x64x80x80", "gmcf-block-4x256x20x20"])
def test_f64_eval_forward_matches_the_oracle_at_the_benchmarks_full_shape(kind, shape):
    # the eval forwards the benchmark times, at its configs and shapes but
    # in f64: the two differ in summation order alone, by about 1e-15
    cfg = block_config(kind, shape[1])
    block = build_block(kind, cfg, Rng(44), np.float64)
    x = Rng(45).tensor(shape, -1.0, 1.0, np.float64)
    fast = block.forward(x, mode="eval")
    ref = oracle_block(kind, cfg, x, block.params(), block.buffers(), "eval")
    assert np.abs(fast.data - ref.data).max() < 1e-12


def test_oracle_report_json_line():
    report = compare("op", Rng(9).tensor((1, 1, 2, 2)), Rng(9).tensor((1, 1, 2, 2)), seed=3)
    # the line oracle-diff prints: the report's fields, shapes as lists
    payload = json.loads(json.dumps(asdict(report), sort_keys=True))
    assert payload["op"] == "op"
    assert payload["max_abs_diff"] == 0.0
    assert payload["shapes"] == [[1, 1, 2, 2]]
    assert payload["seed"] == 3


def test_mac_counter_counts_every_tap():
    # padded taps are multiplied and counted: count = out_elems * (c_in/g) * k^2
    counter = OpCounter()
    spec = ConvSpec(3, 4, 3, dilation=2)
    x = Rng(10).tensor((2, 3, 6, 6))
    w = Rng(11).tensor(spec.weight_shape)
    b = Rng(12).tensor((1, 4, 1, 1))
    oracle_conv2d(x, w, b, spec, counter)
    assert counter.macs == 2 * 4 * 6 * 6 * 3 * 9
    assert counter.eltwise == 2 * 4 * 6 * 6  # bias adds


def loop_conv2d(x: np.ndarray, w: np.ndarray, b, spec: ConvSpec) -> np.ndarray:
    """The scalar six-loop convolution: every kernel tap one float64
    multiply-add, in (channel, row, column) order, after the bias."""
    n, cin, h, width = x.shape
    k, d, p = spec.k, spec.dilation, spec.padding
    cg, cog = cin // spec.groups, spec.c_out // spec.groups
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    wd = w.astype(np.float64)
    out = np.zeros((n, spec.c_out, h, width))
    for ni in range(n):
        for o in range(spec.c_out):
            base_c = (o // cog) * cg
            for i in range(h):
                for j in range(width):
                    acc = float(b.reshape(-1)[o]) if b is not None else 0.0
                    for c in range(cg):
                        for u in range(k):
                            for v in range(k):
                                acc += wd[o, c, u, v] * xp[ni, base_c + c, i + u * d, j + v * d]
                    out[ni, o, i, j] = acc
    return out


@st.composite
def tiny_conv_cases(draw):
    """A small random conv spec (any dilation and groups, k 1 or 3) with
    f32 or f64 inputs, weights and bias drawn from one seed."""
    groups = draw(st.integers(1, 3))
    k, dilation = draw(st.sampled_from([1, 3])), draw(st.integers(1, 3))
    spec = ConvSpec(
        c_in=groups * draw(st.integers(1, 3)),
        c_out=groups * draw(st.integers(1, 2)),
        k=k,
        dilation=dilation,
        groups=groups,
        bias=draw(st.booleans()),
    )
    # planes from one pixel to a few wider than the dilated kernel
    largest = dilation * (k - 1) + 6
    h, w = draw(st.integers(1, largest)), draw(st.integers(1, largest))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = Rng(draw(st.integers(0, 2**16)))
    x = rng.tensor((draw(st.integers(1, 2)), spec.c_in, h, w), dtype=dtype)
    wt = rng.tensor(spec.weight_shape, dtype=dtype)
    b = rng.tensor((1, spec.c_out, 1, 1), dtype=dtype) if spec.bias else None
    return spec, x, wt, b


@settings(max_examples=150, deadline=None)
@given(case=tiny_conv_cases())
def test_oracle_conv_matches_six_loop_reference(case):
    # only the summation order differs, so the two agree to a few ulp of
    # the sum of the absolute values of the terms
    spec, x, w, b = case
    counter = OpCounter()
    got = oracle_conv2d(x, w, b, spec, counter).data
    want = loop_conv2d(x.data, w.data, None if b is None else b.data, spec)
    terms = loop_conv2d(np.abs(x.data), np.abs(w.data),
                        None if b is None else np.abs(b.data), spec)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 4 * np.finfo(np.float64).eps * terms)
    assert counter.macs == got.size * (spec.c_in // spec.groups) * spec.k ** 2
