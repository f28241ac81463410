import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import traced_memory

from vrfnet import (
    ConvSpec,
    DropoutState,
    Rng,
    Tape,
    Tensor,
    batch_norm,
    conv2d,
    dropout,
    finite_diff_check,
    hadamard,
    oracle_conv2d,
    relu,
    sigmoid,
    sigmoid_gate,
    sum_all,
)
from vrfnet import ops
from vrfnet.config import GmcfConfig
from vrfnet.oracle import _sig

SIGMOID_1702 = 0.8457957659328212  # 1 / (1 + exp(-1.702)), float64
BN_EPS, BN_MOMENTUM = GmcfConfig.bn_eps, GmcfConfig.bn_momentum


def _initial_stats(c):
    """Batch-norm running stats as a block starts them: mean 0, variance 1."""
    return Tensor(np.zeros((1, c, 1, 1))), Tensor(np.ones((1, c, 1, 1)))


def test_convspec_validation():
    with pytest.raises(ValueError):
        ConvSpec(c_in=3, c_out=4, k=3, groups=2)  # 3 % 2 != 0
    with pytest.raises(ValueError):
        ConvSpec(4, 4, k=2)  # even kernel cannot preserve shape
    spec = ConvSpec(4, 4, 3, dilation=5, groups=4)
    assert spec.padding == 5
    assert spec.depthwise
    assert spec.weight_shape == (4, 1, 3, 3)


def test_convspec_is_stride_1_same_padded_with_keyword_fields():
    # every conv is "same": its padding, d(k-1)/2, is derived, never set
    with pytest.raises(TypeError):
        ConvSpec(2, 2, 3, stride=2)
    with pytest.raises(TypeError):
        ConvSpec(2, 2, 3, 2)  # a positional dilation
    with pytest.raises(TypeError):
        ConvSpec(2, 2, 3, padding=1)
    with pytest.raises(ValueError, match="odd"):
        ConvSpec(2, 2, 2)
    for k, d in ((1, 1), (1, 4), (3, 2), (5, 3), (7, 1)):
        spec = ConvSpec(2, 2, k, dilation=d)
        assert spec.padding == d * (k - 1) // 2
        assert spec.out_hw(5, 6) == (5, 6)
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        spec.padding = 0


def test_pointwise_hand_dot_product():
    x = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    w = Tensor(np.array([3.0, 4.0]).reshape(1, 2, 1, 1))
    b = Tensor(np.zeros((1, 1, 1, 1)))
    out = conv2d(x, w, b, ConvSpec(2, 1, 1))
    assert out.item() == 11.0


def test_depthwise_identity_kernel():
    x = Rng(1).tensor((2, 3, 5, 5))
    w = np.zeros((3, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0  # center tap only
    spec = ConvSpec(3, 3, 3, groups=3, bias=False)
    out = conv2d(x, Tensor(w), None, spec)
    npt.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_dilated_conv_matches_loop_oracle(dtype, tol):
    rng = Rng(2)
    spec = ConvSpec(4, 4, 3, dilation=3)
    x = rng.tensor((1, 4, 9, 9), dtype=dtype)
    w = rng.tensor(spec.weight_shape, -0.25, 0.25, dtype=dtype)
    b = rng.tensor((1, 4, 1, 1), -0.25, 0.25, dtype=dtype)
    fast = conv2d(x, w, b, spec)
    ref = oracle_conv2d(x, w, b, spec)
    assert np.abs(fast.data - ref.data.astype(dtype)).max() < tol


@pytest.mark.parametrize("dilation", [1, 3, 5, 7])
def test_same_padding_preserves_spatial_size(dilation):
    spec = ConvSpec(2, 2, 3, dilation=dilation, groups=2)
    x = Rng(4).tensor((1, 2, 10, 13))
    w = Rng(5).tensor(spec.weight_shape)
    b = Rng(6).tensor((1, 2, 1, 1))
    assert conv2d(x, w, b, spec).shape == (1, 2, 10, 13)


def test_grouped_conv_single_code_path():
    # groups=1 goes through the same grouped implementation
    rng = Rng(7)
    spec = ConvSpec(4, 6, 3, groups=1)
    x = rng.tensor((1, 4, 6, 6))
    w = rng.tensor(spec.weight_shape, -0.2, 0.2)
    b = rng.tensor((1, 6, 1, 1))
    npt.assert_allclose(conv2d(x, w, b, spec).data, oracle_conv2d(x, w, b, spec).data,
                        atol=1e-12)


def test_conv_shape_errors():
    spec = ConvSpec(4, 4, 3)
    x = Rng(8).tensor((1, 3, 5, 5))  # wrong channel count
    w = Rng(9).tensor(spec.weight_shape)
    b = Rng(10).tensor((1, 4, 1, 1))
    with pytest.raises(Exception, match="channels"):
        conv2d(x, w, b, spec)


def test_conv_gradients():
    rng = Rng(11)
    spec = ConvSpec(3, 4, 3, dilation=2)
    x = rng.tensor((1, 3, 5, 5), -2, 2)
    w = rng.tensor(spec.weight_shape, -0.4, 0.4)
    b = rng.tensor((1, 4, 1, 1), -0.4, 0.4)
    assert finite_diff_check(lambda t: sum_all(conv2d(t, w, b, spec)), x) < 1e-5
    assert finite_diff_check(lambda t: sum_all(conv2d(x, t, b, spec)), w) < 1e-5
    assert finite_diff_check(lambda t: sum_all(conv2d(x, w, t, spec)), b) < 1e-5


@st.composite
def conv_cases(draw):
    """A random ConvSpec with a valid input shape (h != w)."""
    c_in = draw(st.integers(1, 4))
    if draw(st.booleans()):
        g = c_out = c_in  # depthwise
    else:
        g = draw(st.sampled_from([q for q in range(1, c_in + 1) if c_in % q == 0]))
        c_out = g * draw(st.integers(1, 2))
    k, d = draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 4))
    spec = ConvSpec(c_in, c_out, k, dilation=d, groups=g, bias=draw(st.booleans()))
    # planes from one pixel to a few wider than the dilated kernel
    span = d * (k - 1)
    h, w = draw(st.integers(1, span + 3)), draw(st.integers(1, span + 3))
    if h == w:
        w += 1
    return spec, (draw(st.integers(1, 2)), c_in, h, w), draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(case=conv_cases())
def test_conv2d_matches_oracle_and_finite_differences_on_random_specs(case):
    spec, shape, seed = case
    rng = Rng(seed)
    bound = 1.0 / np.sqrt(spec.weight_shape[1] * spec.k * spec.k)
    x = rng.tensor(shape)
    w = rng.tensor(spec.weight_shape, -bound, bound)
    b = rng.tensor((1, spec.c_out, 1, 1), -bound, bound) if spec.bias else None
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-13)):
        xd, wd = x.astype(dtype), w.astype(dtype)
        bd = b.astype(dtype) if b is not None else None
        fast = conv2d(xd, wd, bd, spec)
        ref = oracle_conv2d(xd, wd, bd, spec)
        assert fast.shape == ref.shape and fast.dtype == dtype
        assert np.abs(fast.data - ref.data).max() < tol, (spec, dtype)
    # a random probe weights each output: under a plain sum the output
    # gradient is all ones, which a misplaced crop of dx would not change
    probe = rng.tensor(ref.shape)
    q = lambda y: sum_all(hadamard(y, probe))
    # q is linear in x and w and affine in b, so central differences are
    # exact at any step. A unit step keeps their rounding error near
    # eps*|q|; the default 1e-6 step's eps*|q|/1e-6 exceeds 1e-5 relative
    # on entries whose true gradient is a product of two small draws.
    assert finite_diff_check(lambda t: q(conv2d(t, w, b, spec)), x, h=1.0) < 1e-5
    assert finite_diff_check(lambda t: q(conv2d(x, t, b, spec)), w, h=1.0) < 1e-5
    if b is not None:
        assert finite_diff_check(lambda t: q(conv2d(x, w, t, spec)), b, h=1.0) < 1e-5


def loop_im2col(xd, wd, bd, spec, grad):
    """``ops._im2col``'s reference: columns from k*k slice assignments and
    every product as one 4-D matmul over (sample, group) blocks. Returns
    the output, dx and dw for the output gradient ``grad``."""
    n, cin, h, width = xd.shape
    k, d, p, g = spec.k, spec.dilation, spec.padding, spec.groups
    cog, m, l = spec.c_out // g, (cin // g) * k * k, h * width
    xp = np.zeros((n, cin, h + 2 * p, width + 2 * p), dtype=xd.dtype)
    xp[:, :, p : p + h, p : p + width] = xd
    cols6 = np.empty((n, cin, k, k, h, width), dtype=xd.dtype)
    for u in range(k):
        for v in range(k):
            cols6[:, :, u, v] = xp[:, :, u * d : u * d + h, v * d : v * d + width]
    cols = cols6.reshape(n, g, m, l)
    wm = wd.reshape(g, cog, m)
    out = np.matmul(wm, cols).reshape(n, spec.c_out, h, width)
    if bd is not None:
        np.add(out, bd, out=out)
    go = grad.reshape(n, g, cog, l)
    dcols = np.matmul(wm.transpose(0, 2, 1), go).reshape(n, cin, k, k, h, width)
    dxp = np.zeros_like(xp)
    for u in range(k):
        for v in range(k):
            dxp[:, :, u * d : u * d + h, v * d : v * d + width] += dcols[:, :, u, v]
    dx = dxp[:, :, p : p + h, p : p + width]
    dw = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0).reshape(spec.weight_shape)
    return out, dx, dw


@settings(max_examples=60, deadline=None)
@given(case=conv_cases())
# the spatial-attention mask conv, a dilated conv and a pointwise conv,
# each of one group, so batch 1 runs the single-block product
@example(case=(ConvSpec(2, 3, 7), (1, 2, 6, 5), 0))
@example(case=(ConvSpec(3, 4, 3, dilation=2), (1, 3, 9, 8), 1))
@example(case=(ConvSpec(3, 5, 1), (1, 3, 4, 5), 2))
def test_im2col_matches_loop_columns_and_4d_matmul_bit_for_bit(case):
    # the strided-copy columns hold the same values, and a single block's
    # 2-D dot sums the same products in the same order as the 4-D matmul;
    # the input gradient sums in another order (see the test below)
    spec, (_, c, h, w), seed = case
    rng = Rng(seed)
    for n in (1, 2):  # batch 1 of one group is a single block; batch 2 never is
        x, wt = rng.uniform((n, c, h, w)), rng.uniform(spec.weight_shape)
        b = rng.uniform(spec.bias_shape) if spec.bias else None
        grad = rng.uniform((n, spec.c_out, h, w))
        for dtype in (np.float32, np.float64, np.longdouble):
            xd, wd, gd = x.astype(dtype), wt.astype(dtype), grad.astype(dtype)
            bd = None if b is None else b.astype(dtype)
            out = ops._im2col(xd, wd, bd, spec)
            dw = ops._im2col_vjp(gd, xd, wd, spec)[1]
            ref_out, _, ref_dw = loop_im2col(xd, wd, bd, spec, gd)
            for got, want in ((out, ref_out), (dw, ref_dw)):
                # array_equal, not tobytes(): longdouble carries padding bytes
                assert got.dtype == dtype and np.array_equal(got, want), (spec, n, dtype)


@settings(max_examples=80, deadline=None)
@given(case=conv_cases())
@example(case=(ConvSpec(2, 3, 7), (1, 2, 6, 5), 0))  # the spatial-attention mask conv
@example(case=(ConvSpec(3, 4, 3, dilation=2), (1, 3, 9, 8), 1))  # dilated
def test_im2col_input_gradient_matches_the_loop_scatter_to_a_dot_product_bound(case):
    # The input gradient is a conv of the output gradient, summed by
    # kernel rows; the loop scatters the columns' gradient tap by tap.
    # Each sums the m = c_out/g * k * k products g * w that reach an
    # input element (fewer at the edges), so each is
    # within gamma_m * S of the exact sum, S = sum |g| |w| over those
    # products and gamma_m = m u / (1 - m u) with u = eps / 2 (Higham,
    # Accuracy and Stability of Numerical Algorithms, sec. 3.1). Their
    # difference is then at most 2 gamma_m S <= (m + 1) eps S; S is the
    # loop's input gradient of |g| and |w|, exact to a few ulp.
    spec, (_, c, h, w), seed = case
    rng = Rng(seed)
    m = spec.c_out // spec.groups * spec.k * spec.k
    for n in (1, 2):
        x, wt = rng.uniform((n, c, h, w)), rng.uniform(spec.weight_shape)
        grad = rng.uniform((n, spec.c_out, h, w))
        for dtype in (np.float32, np.float64, np.longdouble):
            xd, wd, gd = x.astype(dtype), wt.astype(dtype), grad.astype(dtype)
            dx = ops._im2col_vjp(gd, xd, wd, spec)[0]
            ref_dx = loop_im2col(xd, wd, None, spec, gd)[1]
            size = loop_im2col(xd, np.abs(wd), None, spec, np.abs(gd))[1]
            bound = (m + 1) * np.finfo(dtype).eps * size
            assert dx.dtype == dtype and dx.shape == ref_dx.shape, (spec, n, dtype)
            assert (np.abs(dx - ref_dx) <= bound).all(), (spec, n, dtype)


@settings(max_examples=80, deadline=None)
@given(case=conv_cases(), tile=st.sampled_from([0, 40, 400]))
# the spatial-attention mask conv at 6x5, one and two rows a band
@example(case=(ConvSpec(2, 3, 7), (1, 2, 6, 5), 0), tile=0)
@example(case=(ConvSpec(2, 3, 7), (1, 2, 6, 5), 0), tile=100)
def test_banded_im2col_columns_give_the_products_of_all_columns(case, tile):
    # a band's product takes the same dot product for each output as the
    # product of all columns. In longdouble numpy sums them in the same
    # order; in f32 and f64 BLAS may pick another kernel for a band's
    # size, which sums in another order, within a dot product's rounding
    # bound (m + 1) eps S, S = sum |w| |x| over the m products. The
    # gradients take all columns either way: the same bits.
    spec, (_, c, h, w), seed = case
    rng = Rng(seed)
    for n in (1, 2):
        x, wt = rng.uniform((n, c, h, w)), rng.uniform(spec.weight_shape)
        b = rng.uniform(spec.bias_shape) if spec.bias else None
        grad = rng.uniform((n, spec.c_out, h, w))
        for dtype in (np.float32, np.float64, np.longdouble):
            xd, wd, gd = x.astype(dtype), wt.astype(dtype), grad.astype(dtype)
            bd = None if b is None else b.astype(dtype)
            results = []
            with pytest.MonkeyPatch.context() as mp:
                for budget in (1 << 40, tile):
                    mp.setattr(ops, "_DW_TILE", budget)
                    out = ops._im2col(xd, wd, bd, spec)
                    results.append((out,) + ops._im2col_vjp(gd, xd, wd, spec))
                    size = ops._im2col(np.abs(xd), np.abs(wd), None, spec)
            (out, dx, dw), (out_b, dx_b, dw_b) = results
            assert out_b.dtype == dtype and out_b.shape == out.shape
            if dtype is np.longdouble:
                assert np.array_equal(out_b, out), (spec, n)
            else:
                bound = (spec.fan_in + 1) * np.finfo(dtype).eps * size
                if bd is not None:  # the bias is added after the product: one more rounding
                    bound = bound + np.finfo(dtype).eps * np.abs(out)
                assert (np.abs(out_b - out) <= bound).all(), (spec, n, dtype)
            assert np.array_equal(dx_b, dx) and np.array_equal(dw_b, dw), (spec, n, dtype)


@pytest.mark.parametrize("shape,bands", [
    # the spatial-attention mask convs of the benchmark's workloads: only
    # the 80x80 one's columns (2.5 MB in f32) exceed four tiles, and its
    # bands are 33, 33 and 14 rows
    ((1, 2, 80, 80), 3), ((1, 2, 40, 40), 1), ((4, 2, 20, 20), 1), ((1, 2, 6, 6), 1),
    # the bands are sized per sample: a batch splits its rows as one sample does
    ((2, 2, 40, 40), 1), ((3, 2, 80, 80), 3),
])
def test_im2col_bands_follow_the_size_of_the_columns(shape, bands, monkeypatch):
    calls = []
    windows = ops._windows
    monkeypatch.setattr(ops, "_windows", lambda *a: calls.append(a[3]) or windows(*a))
    spec = ConvSpec(2, 3, 7)
    w, b = ops.init_conv_params(spec, Rng(1), np.float32)
    conv2d(Tensor(np.zeros(shape, dtype=np.float32)), w, b, spec)
    assert len(calls) == bands and sum(calls) == shape[2]


def test_banded_mask_conv_holds_one_band_of_columns():
    spec = ConvSpec(2, 3, 7)
    x = Rng(70).tensor((1, 2, 80, 80)).astype(np.float32)
    w, b = ops.init_conv_params(spec, Rng(71), np.float32)
    conv2d(x, w, b, spec)  # first-call caches are not the forward's memory
    with traced_memory() as mem:
        y = conv2d(x, w, b, spec)
        peak = mem.peak()
    rows = 4 * ops._DW_TILE // (2 * 49 * 80)
    band = 4 * 2 * 49 * rows * 80
    padded = 4 * 2 * 86 * 86
    # the output, the padded input, one band of columns and its product,
    # and 64 KB for numpy's iteration buffers
    bound = y.data.nbytes + padded + band + 4 * 3 * rows * 80 + 64 * 1024
    assert peak <= bound < 4 * 2 * 49 * 80 * 80, f"peak {peak} B, bound {bound} B"


def _dw_tiles(spec, shape):
    """The number of tiles the depthwise kernel splits ``shape``'s planes
    into, and the planes in a partial last tile (0 if it is full), by
    ``_dw_conv``'s layout: h rows of w + p elements a plane, and a tile
    of whole samples where one sample's planes fit, else of a run of one
    sample's channels."""
    n, c, h, w = shape
    fit = max(1, ops._DW_TILE // (h * (w + spec.padding)))
    if c > fit:
        return n * -(-c // fit), c % fit
    ms = min(n, fit // c)
    return -(-n // ms), n % ms * c


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("bias", [True, False])
def test_depthwise_tiles_match_oracle_and_finite_differences(d, bias, monkeypatch):
    # conv_cases draws too few planes to leave the kernel's first tile;
    # here the planes span several tiles, of two whole samples each, and
    # the last one is partial
    rng = Rng(30 + d)
    c = 33
    spec = ConvSpec(c, c, 3, dilation=d, groups=c, bias=bias)
    shape = (3, c, 28, 32)
    count, last = _dw_tiles(spec, shape)
    assert count >= 2 and last
    # values drawn in f32 are exact in every dtype, so one f64 oracle
    # serves all three
    x = rng.tensor(shape).astype(np.float32)
    w = rng.tensor(spec.weight_shape, -1 / 3, 1 / 3).astype(np.float32)
    b = rng.tensor((1, c, 1, 1), -1 / 3, 1 / 3).astype(np.float32) if bias else None
    ref = oracle_conv2d(x, w, b, spec).data
    for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-13), (np.longdouble, 1e-13)):
        cast = lambda t: None if t is None else Tensor.wrap(t.data.astype(dtype))
        fast = conv2d(cast(x), cast(w), cast(b), spec)
        assert fast.dtype == dtype
        assert np.abs(fast.data - ref).max() < tol, dtype

    # probing every input element is affordable only at a few hundred
    # elements, so the tape's dx and dw are checked with a smaller tile:
    # the forward, and the dx (the same kernel run on the output
    # gradient), then loop over six tiles: each sample's channels in one
    # run of two and one of one
    monkeypatch.setattr(ops, "_DW_TILE", 100)
    spec = ConvSpec(3, 3, 3, dilation=d, groups=3, bias=bias)
    shape = (3, 3, 6, 5)
    assert _dw_tiles(spec, shape) == (6, 1)
    x = rng.tensor(shape)
    w = rng.tensor(spec.weight_shape, -1 / 3, 1 / 3)
    b = rng.tensor((1, 3, 1, 1), -1 / 3, 1 / 3) if bias else None
    probe = rng.tensor(shape)
    q = lambda y: sum_all(hadamard(y, probe))
    npt.assert_allclose(conv2d(x, w, b, spec).data, oracle_conv2d(x, w, b, spec).data,
                        rtol=0, atol=1e-13)
    # q is linear in x and w, so central differences are exact at any step
    assert finite_diff_check(lambda t: q(conv2d(t, w, b, spec)), x, h=1.0) < 1e-5
    assert finite_diff_check(lambda t: q(conv2d(x, t, b, spec)), w, h=1.0) < 1e-5


@st.composite
def dw_layout_cases(draw):
    """A depthwise conv of more than one output a plane (h != w), with
    zeros of both signs among its inputs, taps and bias; p is its
    padding, d(k-1)/2."""
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 8))
    k, d = draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 7))
    span = d * (k - 1)
    p = span // 2
    # planes from one pixel to several wider than the dilated kernel
    h, w = draw(st.integers(1, span + 8)), draw(st.integers(1, span + 8))
    if h == w:
        w += 1
    dtype = draw(st.sampled_from([np.float32, np.float64, np.longdouble]))
    return (n, c, h, w), k, d, p, draw(st.booleans()), dtype, draw(st.integers(0, 2**16))


def _with_signed_zeros(rng, a):
    z = rng.random(a.shape)
    a[z < 0.2] = 0.0
    a[z > 0.8] = -0.0
    return a


@settings(max_examples=150, deadline=None)
@given(case=dw_layout_cases())
# the first and last rows of taps of this 3x3 kernel read padding only
@example(case=((1, 3, 2, 5), 3, 3, 3, True, np.longdouble, 0))
def test_depthwise_window_and_row_padded_layouts_give_the_same_bits(case):
    # the probe-sized convs run the window layout, so conv2d's random-spec
    # test no longer reaches the row-padded one on its small cases; here
    # both run on the same cases
    (n, c, h, w), k, d, p, bias, dtype, seed = case
    rng = Rng(seed)
    x = _with_signed_zeros(rng, rng.uniform((n, c, h, w), -2.0, 2.0)).astype(dtype)
    taps = _with_signed_zeros(rng, rng.uniform((c, k, k), -1.0, 1.0)).astype(dtype)
    b = _with_signed_zeros(rng, rng.uniform((1, c, 1, 1), -1.0, 1.0)) if bias else None
    b = None if b is None else b.astype(dtype)
    out_w, weight_grad_w = ops._dw_window(x, taps, d, p, b)
    out_p, weight_grad_p = ops._dw_conv(x, taps, d, p, b)
    assert out_w.dtype == dtype and out_w.shape == (n, c, h, w)
    assert np.array_equal(out_w, out_p) and np.array_equal(np.signbit(out_w), np.signbit(out_p))

    # the weight gradients are dot products over h*w and over h rows of
    # the padded width: in longdouble the same sequential sums, in f32 and
    # f64 BLAS dots that may group the products differently, which moves
    # each by less than a dot product's rounding bound
    g = rng.uniform((n, c, h, w), -1.0, 1.0).astype(dtype)
    dw_w, dw_p = weight_grad_w(g), weight_grad_p(g)
    if dtype is np.longdouble:
        assert np.array_equal(dw_w, dw_p)
    else:
        terms = n * h * w
        bound = 2 * terms * np.finfo(dtype).eps * np.abs(g).sum(axis=(0, 2, 3)) * np.abs(x).max()
        assert (np.abs(dw_w - dw_p) <= bound[:, None, None]).all()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_depthwise_layouts_agree_on_a_non_finite_tap_that_reads_only_padding(bad):
    # at dilation 7 on 6x6 planes only the centre tap reaches the input;
    # the corner tap reads padding only, and 0 * inf is NaN in both layouts
    rng = Rng(5)
    for dtype in (np.float32, np.float64, np.longdouble):
        x = rng.uniform((1, 2, 6, 6), -1.0, 1.0).astype(dtype)
        taps = rng.uniform((2, 3, 3), -1.0, 1.0).astype(dtype)
        taps[0, 0, 0] = bad
        out_w = ops._dw_window(x, taps, 7, 7, None)[0]
        out_p = ops._dw_conv(x, taps, 7, 7, None)[0]
        assert np.isnan(out_w[0, 0]).all() and np.isfinite(out_w[0, 1]).all()
        assert np.array_equal(out_w, out_p, equal_nan=True)


def test_taped_row_padded_depthwise_conv_holds_no_padded_copy_of_its_input():
    # the row-padded planes of (1, 8, 40, 40) at d=7 are 1.6x the input;
    # the adjoint keeps the input and the taps, which the tape holds anyway
    c = 8
    spec = ConvSpec(c, c, 3, dilation=7, groups=c)
    x = Rng(40).tensor((1, c, 40, 40))
    w, b = ops.init_conv_params(spec, Rng(41), np.float64)
    assert c * spec.k**2 * 40 * 40 > ops._DW_TILE // 8  # the row-padded layout
    tape = Tape()
    leaves = [tape.leaf(t) for t in (x, w, b)]
    conv2d(*leaves, spec)  # first-call caches are not the record's memory
    with traced_memory() as mem:
        y = conv2d(*leaves, spec)
        held = mem.held() - y.tensor.data.nbytes
    assert held < x.data.nbytes, f"the record holds {held} B beyond its output"


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
@pytest.mark.parametrize("k,d", [(3, 1), (3, 3)], ids=["d1-same", "d3-same"])
def test_row_padded_depthwise_results_do_not_depend_on_the_tile(k, d, dtype, monkeypatch):
    # tiles of (samples x channels) of the 3 samples of 3 planes: one
    # plane; runs of 2 channels, each sample's last run partial; one
    # sample; 2 samples, the last tile partial; and one tile of every
    # plane. The three budgets between the first and last end inside a plane
    x, wt, g, spec = _depthwise_case(Rng(60 + k + d), (3, 3, 9, 11), k, d, dtype)
    b = _with_signed_zeros(Rng(61), Rng(61).uniform((1, 3, 1, 1), -1.0, 1.0)).astype(dtype)
    taps, p = wt.reshape(3, k, k), spec.padding
    plane = 9 * (11 + p)  # the outputs a plane of the forward computes: h rows of w + p
    results = []
    for budget in (plane, 2 * plane + plane // 2, 4 * plane + plane // 2,
                   6 * plane + plane // 2, 9 * plane):
        monkeypatch.setattr(ops, "_DW_TILE", budget)
        out, weight_grad = ops._dw_conv(x, taps, d, p, b)
        y = ops._depthwise(x, wt, b, spec)
        results.append((out, weight_grad(g), y) + ops._depthwise_vjp(g, x, wt, spec))
    for got in results[:-1]:
        for a, want in zip(got, results[-1], strict=True):
            assert a.dtype == dtype
            assert np.array_equal(a, want) and np.array_equal(np.signbit(a), np.signbit(want))


def test_row_padded_depthwise_forward_holds_one_tile_of_planes():
    # 64 planes of 40x40 at d=7 make two tiles, the last one partial;
    # the whole row-padded layout would be 1.6x the input
    c, h, d = 64, 40, 7
    spec = ConvSpec(c, c, 3, dilation=d, groups=c)
    x = Rng(62).tensor((1, c, h, h)).astype(np.float32)
    w, b = ops.init_conv_params(spec, Rng(63), np.float32)
    row, size = h + spec.padding, (h + 2 * spec.padding) * (h + spec.padding) + 2 * d
    tile = ops._DW_TILE // (h * row)
    assert 1 < c / tile < 2
    conv2d(x, w, b, spec)  # first-call caches are not the forward's memory
    with traced_memory() as mem:
        y = conv2d(x, w, b, spec)
        peak = mem.peak()
    # the slack covers numpy's iteration buffers (about 34 KB here)
    bound = y.data.nbytes + 4 * tile * (size + h * row) + 48 * 1024
    assert peak <= bound, f"peak {peak} B against its output, one tile and accumulator {bound} B"


def _depthwise_case(rng, shape, k, d, dtype):
    """Input, weights, output gradient and ConvSpec of a bias-free
    depthwise conv, with zeros of both signs in all three."""
    c = shape[1]
    spec = ConvSpec(c, c, k, dilation=d, groups=c, bias=False)
    x, wt, g = (_with_signed_zeros(rng, rng.uniform(s, -2.0, 2.0)).astype(dtype)
                for s in (shape, spec.weight_shape, shape))
    return x, wt, g, spec


@settings(max_examples=150, deadline=None)
@given(case=dw_layout_cases(), window=st.booleans())
def test_depthwise_weight_gradient_from_the_input_gradient_pass_matches_the_forward_layout(
        case, window):
    # the vjp takes the weight gradient from the input-gradient pass over
    # the output gradient; the forward kernel's weight_grad takes it from
    # the forward's own layout of the input. Both pair the same values
    # in the same order, so longdouble gives the same bits; f32 and f64
    # BLAS dots over shifted ranges stay within a dot product's bound.
    (n, c, h, w), k, d, p, _, dtype, seed = case
    rng = Rng(seed)
    x, wt, g, spec = _depthwise_case(rng, (n, c, h, w), k, d, dtype)
    taps = wt.reshape(c, k, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_DW_TILE", 1 << 40 if window else 0)
        kernel = ops._dw_window if window else ops._dw_conv
        want = kernel(x, taps, d, p, None)[1](g)
        got = ops._depthwise_vjp(g, x, wt, spec)[1].reshape(c, k, k)
    assert got.dtype == dtype
    if dtype is np.longdouble:
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    else:
        terms = n * h * w
        bound = 2 * terms * np.finfo(dtype).eps * np.abs(g).sum(axis=(0, 2, 3)) * np.abs(x).max()
        assert (np.abs(got - want) <= bound[:, None, None]).all()


@pytest.mark.parametrize("shape,window", [
    # the benchmark's forward and train convs: MSCF's branches and GConv's gate
    ((1, 64, 80, 80), False), ((1, 42, 80, 80), False),
    ((4, 128, 20, 20), False), ((4, 85, 20, 20), False),
    ((1, 32, 40, 40), False), ((1, 21, 40, 40), False),
    # the gradient probes' (gmcf at 8 channels, 6x6): 0.04 and 0.025 of a tile
    ((1, 8, 6, 6), True), ((1, 5, 6, 6), True),
    # one output a plane, whose taps einsum would sum as a dot product
    ((2, 8, 1, 1), False),
    # either side of the boundary, an eighth of a tile: 0.11 and 0.14 of one
    ((1, 8, 10, 10), True), ((1, 16, 8, 8), False),
])
def test_depthwise_layout_follows_conv_size(shape, window, monkeypatch):
    calls = set()
    for name in ("_dw_window", "_dw_conv"):
        def spy(*args, _name=name, _kernel=getattr(ops, name)):
            calls.add(_name)
            return _kernel(*args)
        monkeypatch.setattr(ops, name, spy)
    c = shape[1]
    x = Tensor(np.zeros(shape, dtype=np.float32))
    for d in (1, 3, 5, 7):
        spec = ConvSpec(c, c, 3, dilation=d, groups=c)
        w, b = ops.init_conv_params(spec, Rng(d), np.float32)
        tape = Tape()
        leaves = [tape.leaf(t) for t in (x, w, b)]
        tape.backward(sum_all(conv2d(*leaves, spec)))  # the input gradient is a conv too
    assert calls == {"_dw_window" if window else "_dw_conv"}


def test_activation_values():
    zero = Tensor(np.zeros((1, 1, 1, 1)))
    one = Tensor(np.ones((1, 1, 1, 1)))
    assert sigmoid(zero).item() == 0.5
    assert sigmoid_gate(zero).item() == 0.0
    assert sigmoid_gate(one).item() == pytest.approx(SIGMOID_1702, abs=1e-12)
    assert relu(Tensor(np.full((1, 1, 1, 1), -3.0))).item() == 0.0
    assert relu(Tensor(np.full((1, 1, 1, 1), 3.0))).item() == 3.0


def test_sigmoid_saturation_is_stable():
    x = Tensor(np.array([-800.0, 800.0, 0.0, -30.0]).reshape(1, 1, 2, 2))
    s = sigmoid(x).data.reshape(-1)
    assert s[0] == 0.0 and s[1] == 1.0 and np.isfinite(s).all()


SIGMOID_DTYPES = (np.float32, np.float64, np.longdouble)


def _no_warnings(f, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(Tensor.wrap(x)).data


@st.composite
def sigmoid_inputs(draw):
    """A dtype and a (1, 1, 1, m) array of finite values reaching past
    twice the dtype's exp overflow point, on both sides."""
    dtype = draw(st.sampled_from(SIGMOID_DTYPES))
    top = 2 * float(np.log(np.finfo(dtype).max))
    xs = draw(st.lists(st.floats(-top, top), min_size=1, max_size=32))
    return np.array(xs, dtype=dtype).reshape(1, 1, 1, -1)


@settings(max_examples=300, deadline=None)
@given(x=sigmoid_inputs())
def test_sigmoid_and_gate_match_oracle_to_4_eps(x):
    fi = np.finfo(x.dtype)
    for f, s in ((sigmoid, 1.0), (sigmoid_gate, 1.702)):
        got = _no_warnings(f, x)
        assert got.dtype == x.dtype
        # the reference exponentiates the argument the op rounds, s*x in
        # x's dtype, in extended precision
        with np.errstate(over="ignore"):
            sig = _sig((x * x.dtype.type(s)).astype(np.longdouble))
        ref = sig if f is sigmoid else x * sig
        err = np.abs(got - ref)
        # a sigmoid or a result below the smallest normal number has only
        # absolute accuracy (exp overflowing to inf rounds the sigmoid to
        # 0), which the gate scales by |x|
        normal = (sig >= fi.tiny) & (np.abs(ref) >= fi.tiny)
        assert np.all(err[normal] <= 4 * fi.eps * np.abs(ref[normal])), f.__name__
        scale = 1.0 if f is sigmoid else np.maximum(np.abs(x[~normal]), 1.0)
        assert np.all(err[~normal] <= fi.tiny * scale), f.__name__


@pytest.mark.parametrize("dtype", SIGMOID_DTYPES)
def test_sigmoid_and_gate_limits_are_exact(dtype):
    top = 2 * float(np.log(np.finfo(dtype).max))
    big = np.finfo(dtype).max
    # exp(800) overflows f32 and f64 but not longdouble, where
    # sigmoid(-800) is a normal number
    points = [0.0, top, -top, big, -big, np.inf, -np.inf]
    points += [800.0, -800.0] if dtype != np.longdouble else []
    x = np.array(points + [np.nan], dtype=dtype).reshape(1, 1, 1, -1)
    sig = _no_warnings(sigmoid, x).reshape(-1)
    gate = _no_warnings(sigmoid_gate, x).reshape(-1)
    want = np.array([0.5] + [1.0, 0.0] * (len(points) // 2))
    npt.assert_array_equal(sig[:-1], want)
    # the gate is x where the sigmoid is 1 and 0 where it is 0 (or x is 0)
    npt.assert_array_equal(gate[:-1], np.where(want == 1.0, x.reshape(-1)[:-1], 0.0))
    assert np.isnan(sig[-1]) and np.isnan(gate[-1])
    if dtype == np.longdouble:
        return  # the tape hands out gradients in the public dtypes only
    # derivatives at the same limits
    at = np.array([0.0, top, -top, big, -big, np.inf, -np.inf], dtype=dtype).reshape(1, 1, 1, -1)
    for f, want_grad in ((sigmoid, [0.25, 0, 0, 0, 0, 0, 0]),
                         (sigmoid_gate, [0.5, 1, 0, 1, 0, 1, 0])):
        tape = Tape()
        leaf = tape.leaf(Tensor.wrap(at))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = tape.backward(sum_all(f(leaf)))[leaf.id].data.reshape(-1)
        npt.assert_array_equal(grad, want_grad, err_msg=f.__name__)


def test_activation_gradients_f64():
    x = Rng(12).tensor((1, 2, 4, 4), -2, 2)
    for f in (relu, sigmoid, sigmoid_gate):
        # random inputs avoid relu's kink at exactly 0
        err = finite_diff_check(lambda t, f=f: sum_all(f(t)), x)
        assert err < 1e-5, f.__name__


def test_batch_norm_train_normalizes():
    # values with std ~10 keep the eps contribution below the tolerance
    gamma = Tensor(np.ones((1, 3, 1, 1)))
    beta = Tensor(np.zeros((1, 3, 1, 1)))
    x = Rng(13).tensor((4, 3, 5, 5), -17.0, 17.0)
    y = batch_norm(x, gamma, beta, *_initial_stats(3), BN_EPS, BN_MOMENTUM, "train")[0].data
    npt.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    npt.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_batch_norm_eval_identity_stats():
    mean, var = _initial_stats(3)  # running mean 0, var 1
    gamma = Tensor(np.ones((1, 3, 1, 1)))
    beta = Tensor(np.zeros((1, 3, 1, 1)))
    x = Rng(14).tensor((2, 3, 4, 4))
    y, new_mean, new_var = batch_norm(x, gamma, beta, mean, var, BN_EPS, BN_MOMENTUM, "eval")
    npt.assert_allclose(y.data, x.data, atol=1e-5)  # only the eps in 1/sqrt(1+eps)
    assert new_mean is mean and new_var is var  # eval leaves the running stats as given


def test_batch_norm_matches_loop_oracle():
    rng = Rng(15)
    gamma = rng.tensor((1, 3, 1, 1), 0.5, 1.5)
    beta = rng.tensor((1, 3, 1, 1), -0.5, 0.5)
    x = rng.tensor((4, 3, 5, 5), -2, 2)
    y, _, running_var = batch_norm(x, gamma, beta, *_initial_stats(3), BN_EPS, BN_MOMENTUM,
                                   "train")
    y = y.data
    for c in range(3):
        vals = x.data[:, c]
        mu = vals.mean()
        var = vals.var()
        expected = gamma.data[0, c, 0, 0] * (vals - mu) / np.sqrt(var + BN_EPS) \
            + beta.data[0, c, 0, 0]
        npt.assert_allclose(y[:, c], expected, rtol=1e-12)
    # running stats moved toward the batch statistics (unbiased variance)
    m = 4 * 5 * 5
    npt.assert_allclose(
        running_var.data.reshape(-1),
        0.9 * 1.0 + 0.1 * x.data.var(axis=(0, 2, 3)) * m / (m - 1),
        rtol=1e-12,
    )


def _batch_norm_train_formula(x, gamma, beta, rm, rv, g):
    """Train-mode batch norm by np.mean and np.var, and its adjoint for
    the output gradient g with g * xhat formed twice: output, running
    stats, and the x, gamma and beta gradients."""
    axes = (0, 2, 3)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=axes, keepdims=True, dtype=x.dtype)
    var = x.var(axis=axes, keepdims=True, dtype=x.dtype)
    new_rm = (1 - BN_MOMENTUM) * rm + BN_MOMENTUM * mean.astype(rm.dtype)
    new_rv = (1 - BN_MOMENTUM) * rv + BN_MOMENTUM * (var.astype(rv.dtype) * m / (m - 1))
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(BN_EPS))
    xhat = (x - mean) * inv_std
    dx = gamma * inv_std * (g - g.mean(axis=axes, keepdims=True)
                            - xhat * (g * xhat).mean(axis=axes, keepdims=True))
    return (gamma * xhat + beta, new_rm, new_rv, dx, (g * xhat).sum(axis=axes, keepdims=True),
            g.sum(axis=axes, keepdims=True))


@st.composite
def batch_norm_cases(draw):
    n, h, w = draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if n * h * w < 2:
        w = 2
    shape = (n, draw(st.integers(1, 3)), h, w)
    return shape, draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(case=batch_norm_cases())
@example(case=((1, 2, 1, 2), np.float32, 0))  # n*h*w = 2
@example(case=((2, 3, 1, 1), np.float64, 1))
def test_batch_norm_train_keeps_the_bits_of_np_var_and_two_products(case):
    shape, dtype, seed = case
    rng = Rng(seed)
    stat = (1, shape[1], 1, 1)
    x = _with_signed_zeros(rng, rng.uniform(shape, -3, 3)).astype(dtype)
    x[:, 0] = x[0, 0, 0, 0]  # one channel of equal values, some signed zeros
    gamma = _with_signed_zeros(rng, rng.uniform(stat, -2, 2)).astype(dtype)
    beta = _with_signed_zeros(rng, rng.uniform(stat)).astype(dtype)
    rm, rv = rng.uniform(stat).astype(dtype), rng.uniform(stat, 0.5, 2).astype(dtype)
    g = _with_signed_zeros(rng, rng.uniform(shape)).astype(dtype)
    tape = Tape()
    xn, gn, bn = (tape.leaf(Tensor.wrap(a.copy())) for a in (x, gamma, beta))
    y, new_rm, new_rv = batch_norm(xn, gn, bn, Tensor.wrap(rm.copy()), Tensor.wrap(rv.copy()),
                                   BN_EPS, BN_MOMENTUM, "train")
    # the product's adjoint is 1 * g, which has g's bits
    grads = tape.backward(sum_all(hadamard(y, Tensor.wrap(g.copy()))))
    got = (y.tensor.data, new_rm.data, new_rv.data, grads[xn.id].data, grads[gn.id].data,
           grads[bn.id].data)
    want = _batch_norm_train_formula(x, gamma, beta, rm, rv, g)
    for name, a, b in zip(("y", "running mean", "running var", "dx", "dgamma", "dbeta"),
                          got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, shape, dtype)


def test_batch_norm_train_rejects_single_element_stats():
    gamma = Tensor(np.ones((1, 2, 1, 1)))
    beta = Tensor(np.zeros((1, 2, 1, 1)))
    x = Rng(16).tensor((1, 2, 1, 1))
    with pytest.raises(ValueError, match="variance"):
        batch_norm(x, gamma, beta, *_initial_stats(2), BN_EPS, BN_MOMENTUM, "train")


def test_batch_norm_gradients_probe_loss():
    # a probe-weighted loss keeps gradients O(1); a plain sum is nearly
    # invariant to the input under train-mode normalization
    rng = Rng(17)
    gamma = rng.tensor((1, 4, 1, 1), 0.5, 1.5)
    beta = rng.tensor((1, 4, 1, 1), -0.5, 0.5)
    x = rng.tensor((2, 4, 5, 5), -2, 2)
    probe = rng.tensor((2, 4, 5, 5))
    # running stats away from (0, 1), so eval's 1/sqrt(var + eps) is not ~1
    stats = (rng.tensor((1, 4, 1, 1), -0.5, 0.5), rng.tensor((1, 4, 1, 1), 0.5, 2.0))
    for mode in ("train", "eval"):
        q = lambda y: sum_all(hadamard(y, probe))
        bn = lambda x, gamma, beta: batch_norm(x, gamma, beta, *stats, BN_EPS, BN_MOMENTUM,
                                               mode)[0]
        assert finite_diff_check(lambda t: q(bn(t, gamma, beta)), x) < 1e-5
        assert finite_diff_check(lambda t: q(bn(x, t, beta)), gamma) < 1e-5
        assert finite_diff_check(lambda t: q(bn(x, gamma, t)), beta) < 1e-5


def test_dropout_eval_and_p0_are_bit_exact():
    x = Rng(18).tensor((2, 3, 4, 4))
    assert dropout(x, DropoutState(0.5, Rng(0)), "eval") is x
    assert dropout(x, DropoutState(0.0, Rng(0)), "train") is x


def test_dropout_train_preserves_mean():
    state = DropoutState(0.5, Rng(19))
    x = Tensor(np.ones((1, 1, 1000, 1000)))
    y = dropout(x, state, "train").data
    assert abs(y.mean() - 1.0) < 0.01  # inverted scaling keeps the expectation
    kept = y != 0.0
    npt.assert_allclose(y[kept], 2.0)  # survivors scaled by 1/(1-p)


def test_dropout_rejects_p_out_of_range():
    with pytest.raises(ValueError):
        DropoutState(1.0, Rng(0))
    with pytest.raises(ValueError):
        DropoutState(-0.1, Rng(0))


def test_dropout_gradient():
    state = DropoutState(0.3, Rng(20))
    x = Rng(21).tensor((1, 2, 4, 4), -2, 2)
    # freeze one mask by reseeding inside f: the check needs determinism
    def f(t):
        state.rng = Rng(42)
        return sum_all(dropout(t, state, "train"))

    assert finite_diff_check(f, x) < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_saves_a_byte_mask_with_the_bits_of_a_float_mask(dtype):
    rng, p = Rng(22), 0.3
    shape = (1, 4, 64, 64)
    x = _with_signed_zeros(rng, rng.uniform(shape, -2.0, 2.0)).astype(dtype)
    probe = _with_signed_zeros(rng, rng.uniform(shape, -2.0, 2.0)).astype(dtype)
    tape = Tape()
    leaf = tape.leaf(Tensor.wrap(x))
    with traced_memory() as mem:
        y = dropout(leaf, DropoutState(p, Rng(23)), "train")
        held = mem.held() - y.tensor.data.nbytes
    assert held < x.size + 4096, f"the record holds {held} B for {x.size} elements"
    grad = tape.backward(sum_all(hadamard(y, Tensor.wrap(probe))))[leaf.id].data
    # the float mask of the parent, drawn from the same stream
    keep = (Rng(23).random(shape) >= p).astype(dtype)
    inv = dtype(1.0 / (1.0 - p))
    for got, want in ((y.tensor.data, x * keep * inv), (grad, probe * keep * inv)):
        assert got.dtype == dtype
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

