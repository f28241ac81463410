"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not configurable."""

import time

import numpy as np

from vrfnet import (
    ConvLayer,
    ConvSpec,
    GConvBlock,
    GconvConfig,
    Rng,
    SpatialAttention,
    Tensor,
    block_gradient_errors,
    build_block,
    conv2d,
    count_params,
    ffn_cost,
    oracle_block,
    oracle_conv2d,
    sigmoid_gate,
    write_manifest,
)
from vrfnet.cli import main
from vrfnet.config import block_config
from vrfnet.vrft import manifest_element_count

GRAD_TOL = 1e-5
ORACLE_TOL = 1e-6
GATE_AT_ONE = 0.845795


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_gradient_suite():
    # fixed seeds keep every finite-difference comparison far from its
    # noise floor; the checked gradients themselves are seed-independent
    seeds = {"mscf": 1, "gconv": 4, "gmcf": 1, "gmcf-block": 2}
    t0 = time.perf_counter()
    worst_overall = 0.0
    for kind in ("mscf", "gconv", "gmcf", "gmcf-block"):
        for c in (8, 16):
            cfg = block_config(kind, c)
            block = build_block(kind, cfg, Rng(seeds[kind]), np.float64)
            x = Rng(seeds[kind] + 50).tensor((1, c, 6, 6), -2.0, 2.0, np.float64)
            errors = block_gradient_errors(block, x, mode="eval", h=1e-6)
            worst = max(errors.values())
            worst_name = max(errors, key=errors.get)
            assert worst < GRAD_TOL, f"{kind} c={c}: {worst_name} err {worst:.3e}"
            worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _report("criterion 1 (gradient suite)",
            f"8 configs, worst rel err {worst_overall:.2e} < {GRAD_TOL}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = Rng(2024)
    worst_conv = 0.0
    n_specs = 200
    for _ in range(n_specs):
        k = rng.choice((1, 3, 7))
        d = rng.choice((1, 3, 5, 7))
        c = rng.choice((2, 3, 4, 6))
        groups = rng.choice((1, c))
        c_out = c * rng.choice((1, 2)) if groups == c else rng.choice((1, 2, 3, 4, 6, 8))
        spec = ConvSpec.same(c, c_out, k, dilation=d, groups=groups,
                             bias=rng.choice((True, False)))
        fan_in = (c // groups) * k * k
        x = rng.tensor((rng.choice((1, 2)), c, rng.integers(5, 11), rng.integers(5, 11)),
                       -1.0, 1.0, np.float32)
        w = rng.tensor(spec.weight_shape, -1.0 / fan_in, 1.0 / fan_in, np.float32)
        b = rng.tensor((1, c_out, 1, 1), -0.1, 0.1, np.float32) if spec.bias else None
        diff = np.abs(
            conv2d(x, w, b, spec).data.astype(np.float64)
            - oracle_conv2d(x, w, b, spec).data
        ).max()
        worst_conv = max(worst_conv, diff)
    assert worst_conv < ORACLE_TOL, f"conv grid max abs diff {worst_conv:.3e}"

    worst_block = 0.0
    for kind, c, shape in [("mscf", 8, (1, 8, 6, 6)), ("gconv", 6, (1, 6, 4, 4)),
                           ("gmcf", 16, (2, 16, 8, 8)), ("gmcf-block", 8, (1, 8, 8, 8))]:
        cfg = block_config(kind, c)
        block = build_block(kind, cfg, Rng(11), np.float32)
        x = Rng(12).tensor(shape, -1.0, 1.0, np.float32)
        fast = block.forward(x, mode="eval")
        ref = oracle_block(kind, cfg, x, block.params(), block.buffers(), "eval")
        diff = np.abs(fast.data.astype(np.float64) - ref.data).max()
        assert diff < ORACLE_TOL, f"{kind}: {diff:.3e}"
        worst_block = max(worst_block, diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"oracle suite took {elapsed:.1f}s"
    _report("criterion 2 (oracle equivalence)",
            f"{n_specs} conv specs max {worst_conv:.2e}, blocks max {worst_block:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_3_complexity_claim(tmp_path):
    k = 3
    for c in (8, 16, 64, 256):
        dw_spec = ConvSpec.same(c, c, k, groups=c, bias=False)
        std_spec = ConvSpec.same(c, c, k, bias=False)
        dw, std = ConvLayer(dw_spec, Rng(1)), ConvLayer(std_spec, Rng(2))
        assert count_params(dw) == c * k * k
        assert count_params(std) == c * c * k * k
        assert count_params(std) == count_params(dw) * c  # ratio exactly 1/C'
        for name, layer in (("dw", dw), ("std", std)):
            manifest = write_manifest(tmp_path / f"{name}{c}", "params.manifest",
                                      layer.params())
            assert manifest_element_count(manifest) == count_params(layer)
    _report("criterion 3 (complexity claim)",
            "weight counts C'k^2 vs C'^2k^2 exact for C' in {8,16,64,256}, "
            "formula == manifest bytes")


def test_criterion_4_shape_and_identity_invariants():
    dilations = (3, 5, 7)
    for kind in ("mscf", "gconv", "gmcf", "gmcf-block"):
        cfg = block_config(kind, 8, {"mscf": {"dilations": list(dilations)}}
                           if kind in ("gmcf", "gmcf-block") else
                           ({"dilations": list(dilations)} if kind == "mscf" else {}))
        block = build_block(kind, cfg, Rng(3))
        for shape in [(1, 8, 6, 6), (2, 8, 9, 7)]:
            x = Rng(4).tensor(shape)
            assert block.forward(x, mode="eval").shape == shape, kind

    x = Rng(5).tensor((2, 8, 6, 6))
    gconv_zero = build_block("gconv", block_config("gconv", 8), None)
    gmcf_zero = build_block("gmcf", block_config("gmcf", 8), None)
    assert gconv_zero.forward(x, mode="eval").data.tobytes() == x.data.tobytes()
    assert gmcf_zero.forward(x, mode="eval").data.tobytes() == x.data.tobytes()
    _report("criterion 4 (shape/identity)",
            "all blocks preserve (n,c,h,w) at dilations (3,5,7); "
            "zero-weight gconv/gmcf are bit-exact identities")


def test_criterion_5_gate_semantics_and_mask_range():
    zero = Tensor(np.zeros((1, 1, 1, 1)))
    one = Tensor(np.ones((1, 1, 1, 1)))
    assert sigmoid_gate(zero).item() == 0.0
    assert abs(sigmoid_gate(one).item() - GATE_AT_ONE) < 1e-6

    sa = SpatialAttention(mask_channels=3, rng=Rng(6))
    rng = Rng(7)
    for _ in range(1000):
        x = rng.tensor((1, 6, 5, 5), -2.0, 2.0)
        mask = sa.forward(x).data
        assert np.all(mask > 0.0) and np.all(mask < 1.0)
    _report("criterion 5 (gate semantics)",
            f"gate(0)=0, |gate(1)-{GATE_AT_ONE}| < 1e-6, 1000 masks strictly in (0,1)")


def test_criterion_6_golden_round_trip(tmp_path, capsys):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--seed", "21"]) == 0
    assert main(["golden", "verify", "--out", str(out)]) == 0

    target = out / "mscf" / "output.vrft"
    raw = bytearray(target.read_bytes())
    raw[23 + 8 * 3] ^= 0x40  # corrupt element 3 of the f64 payload
    target.write_bytes(bytes(raw))
    rc = main(["golden", "verify", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and "element 3" in err
    _report("criterion 6 (golden round trip)",
            "generate+verify bit-exact; payload corruption located by element index")


def test_criterion_7_efficiency_direction():
    gconv = GConvBlock(GconvConfig(c=256), Rng(8))
    assert gconv.cfg.hidden == 170
    gconv_params = count_params(gconv)
    ffn_params = ffn_cost(256, (1, 256, 20, 20)).params
    assert gconv_params < ffn_params
    _report("criterion 7 (efficiency direction)",
            f"gconv c=256 params {gconv_params} < pointwise FFN (hidden 2c) {ffn_params}")
