import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from vrfnet import (
    BatchNormState,
    ConvSpec,
    DropoutState,
    Rng,
    Tensor,
    activation,
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
from vrfnet.oracle import _sig

SIGMOID_1702 = 0.8457957659328212  # 1 / (1 + exp(-1.702)), float64


def test_convspec_validation():
    with pytest.raises(ValueError):
        ConvSpec(c_in=3, c_out=4, k=3, groups=2)  # 3 % 2 != 0
    with pytest.raises(ValueError):
        ConvSpec.same(4, 4, k=2)  # even kernel cannot preserve shape
    spec = ConvSpec.same(4, 4, 3, dilation=5, groups=4)
    assert spec.padding == 5
    assert spec.depthwise
    assert spec.weight_shape == (4, 1, 3, 3)


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
    spec = ConvSpec.same(3, 3, 3, groups=3, bias=False)
    out = conv2d(x, Tensor(w), None, spec)
    npt.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_dilated_conv_matches_loop_oracle(dtype, tol):
    rng = Rng(2)
    spec = ConvSpec.same(4, 4, 3, dilation=3)
    x = rng.tensor((1, 4, 9, 9), dtype=dtype)
    w = rng.tensor(spec.weight_shape, -0.25, 0.25, dtype=dtype)
    b = rng.tensor((1, 4, 1, 1), -0.25, 0.25, dtype=dtype)
    fast = conv2d(x, w, b, spec)
    ref = oracle_conv2d(x, w, b, spec)
    assert np.abs(fast.data - ref.data.astype(dtype)).max() < tol


def test_strided_and_unpadded_conv_matches_oracle():
    rng = Rng(3)
    spec = ConvSpec(c_in=3, c_out=5, k=3, stride=2, padding=0)
    x = rng.tensor((2, 3, 9, 11))
    w = rng.tensor(spec.weight_shape, -0.3, 0.3)
    b = rng.tensor((1, 5, 1, 1))
    out = conv2d(x, w, b, spec)
    assert out.shape == (2, 5, 4, 5)  # floor((9-3)/2)+1, floor((11-3)/2)+1
    npt.assert_allclose(out.data, oracle_conv2d(x, w, b, spec).data, atol=1e-12)


@pytest.mark.parametrize("dilation", [1, 3, 5, 7])
def test_same_padding_preserves_spatial_size(dilation):
    spec = ConvSpec.same(2, 2, 3, dilation=dilation, groups=2)
    x = Rng(4).tensor((1, 2, 10, 13))
    w = Rng(5).tensor(spec.weight_shape)
    b = Rng(6).tensor((1, 2, 1, 1))
    assert conv2d(x, w, b, spec).shape == (1, 2, 10, 13)


def test_grouped_conv_single_code_path():
    # groups=1 goes through the same grouped implementation
    rng = Rng(7)
    spec = ConvSpec(4, 6, 3, padding=1, groups=1)
    x = rng.tensor((1, 4, 6, 6))
    w = rng.tensor(spec.weight_shape, -0.2, 0.2)
    b = rng.tensor((1, 6, 1, 1))
    npt.assert_allclose(conv2d(x, w, b, spec).data, oracle_conv2d(x, w, b, spec).data,
                        atol=1e-12)


def test_conv_shape_errors():
    spec = ConvSpec(4, 4, 3, padding=1)
    x = Rng(8).tensor((1, 3, 5, 5))  # wrong channel count
    w = Rng(9).tensor(spec.weight_shape)
    b = Rng(10).tensor((1, 4, 1, 1))
    with pytest.raises(Exception, match="channels"):
        conv2d(x, w, b, spec)


def test_conv_gradients():
    rng = Rng(11)
    spec = ConvSpec.same(3, 4, 3, dilation=2)
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
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    span = d * (k - 1)
    # "over" pads past d(k-1), where the input gradient of a stride-1
    # depthwise conv is taken at padding 0 and cropped
    pad = draw(st.sampled_from(["zero", "same", "over"]))
    p = {"zero": 0, "same": span // 2, "over": span + draw(st.integers(1, 2))}[pad]
    spec = ConvSpec(c_in, c_out, k, draw(st.sampled_from([1, 2])), d, g, p, draw(st.booleans()))
    lo = max(1, span + 1 - 2 * p)
    h, w = lo + draw(st.integers(0, 2)), lo + draw(st.integers(0, 2))
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


def _dw_tiles(spec, shape):
    """The number of tiles the depthwise kernel splits ``shape``'s planes
    into, and the planes in a partial last tile (0 if it is full), by
    ``_dw_conv``'s layout: ho rows of max(w + p, wo) elements a plane."""
    n, c, h, w = shape
    ho, wo = spec.out_hw(h, w)
    tile = max(1, ops._DW_TILE // (ho * max(w + spec.padding, wo)))
    return -(-n * c // tile), (n * c) % tile


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("bias", [True, False])
def test_depthwise_tiles_match_oracle_and_finite_differences(d, bias, monkeypatch):
    # conv_cases draws too few planes to leave the kernel's first tile;
    # here the planes span several tiles and the last one is partial
    rng = Rng(30 + d)
    c = 33
    spec = ConvSpec.same(c, c, 3, dilation=d, groups=c, bias=bias)
    shape = (2, c, 30, 33)
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
    # gradient), then loop over five tiles of two planes and one of one
    monkeypatch.setattr(ops, "_DW_TILE", 100)
    spec = ConvSpec.same(3, 3, 3, dilation=d, groups=3, bias=bias)
    shape = (3, 3, 6, 5)
    assert _dw_tiles(spec, shape) == (5, 1)
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


def test_activation_values():
    zero = Tensor(np.zeros((1, 1, 1, 1)))
    one = Tensor(np.ones((1, 1, 1, 1)))
    assert sigmoid(zero).item() == 0.5
    assert sigmoid_gate(zero).item() == 0.0
    assert sigmoid_gate(one).item() == pytest.approx(SIGMOID_1702, abs=1e-12)
    assert relu(Tensor(np.full((1, 1, 1, 1), -3.0))).item() == 0.0
    assert relu(Tensor(np.full((1, 1, 1, 1), 3.0))).item() == 3.0
    with pytest.raises(ValueError):
        activation("tanh", zero)


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
    points = [0.0, top, -top, big, -big] + ([800.0, -800.0] if dtype != np.longdouble else [])
    x = np.array(points + [np.nan], dtype=dtype).reshape(1, 1, 1, -1)
    sig = _no_warnings(sigmoid, x).reshape(-1)
    gate = _no_warnings(sigmoid_gate, x).reshape(-1)
    want = np.array([0.5] + [1.0, 0.0] * (len(points) // 2))
    npt.assert_array_equal(sig[:-1], want)
    npt.assert_array_equal(gate[:-1], x.reshape(-1)[:-1] * want)
    assert np.isnan(sig[-1]) and np.isnan(gate[-1])


def test_activation_gradients_f64():
    x = Rng(12).tensor((1, 2, 4, 4), -2, 2)
    for kind in ("relu", "sigmoid", "sigmoid_gate"):
        # random inputs avoid relu's kink at exactly 0
        err = finite_diff_check(lambda t, k=kind: sum_all(activation(k, t)), x)
        assert err < 1e-5, kind


def test_batch_norm_train_normalizes():
    # values with std ~10 keep the eps contribution below the tolerance
    state = BatchNormState(3)
    gamma = Tensor(np.ones((1, 3, 1, 1)))
    beta = Tensor(np.zeros((1, 3, 1, 1)))
    x = Rng(13).tensor((4, 3, 5, 5), -17.0, 17.0)
    y = batch_norm(x, gamma, beta, state, "train").data
    npt.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    npt.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_batch_norm_eval_identity_stats():
    state = BatchNormState(3)  # running mean 0, var 1
    gamma = Tensor(np.ones((1, 3, 1, 1)))
    beta = Tensor(np.zeros((1, 3, 1, 1)))
    x = Rng(14).tensor((2, 3, 4, 4))
    y = batch_norm(x, gamma, beta, state, "eval").data
    npt.assert_allclose(y, x.data, atol=1e-5)  # only the eps in 1/sqrt(1+eps)


def test_batch_norm_matches_loop_oracle():
    state = BatchNormState(3)
    rng = Rng(15)
    gamma = rng.tensor((1, 3, 1, 1), 0.5, 1.5)
    beta = rng.tensor((1, 3, 1, 1), -0.5, 0.5)
    x = rng.tensor((4, 3, 5, 5), -2, 2)
    y = batch_norm(x, gamma, beta, state, "train").data
    for c in range(3):
        vals = x.data[:, c]
        mu = vals.mean()
        var = vals.var()
        expected = gamma.data[0, c, 0, 0] * (vals - mu) / np.sqrt(var + state.eps) \
            + beta.data[0, c, 0, 0]
        npt.assert_allclose(y[:, c], expected, rtol=1e-12)
    # running stats moved toward the batch statistics (unbiased variance)
    m = 4 * 5 * 5
    npt.assert_allclose(
        state.running_var.reshape(-1),
        0.9 * 1.0 + 0.1 * x.data.var(axis=(0, 2, 3)) * m / (m - 1),
        rtol=1e-12,
    )


def test_batch_norm_train_rejects_single_element_stats():
    state = BatchNormState(2)
    gamma = Tensor(np.ones((1, 2, 1, 1)))
    beta = Tensor(np.zeros((1, 2, 1, 1)))
    x = Rng(16).tensor((1, 2, 1, 1))
    with pytest.raises(ValueError, match="variance"):
        batch_norm(x, gamma, beta, state, "train")


def test_batch_norm_gradients_probe_loss():
    # a probe-weighted loss keeps gradients O(1); a plain sum is nearly
    # invariant to the input under train-mode normalization
    state = BatchNormState(4)
    rng = Rng(17)
    gamma = rng.tensor((1, 4, 1, 1), 0.5, 1.5)
    beta = rng.tensor((1, 4, 1, 1), -0.5, 0.5)
    x = rng.tensor((2, 4, 5, 5), -2, 2)
    probe = rng.tensor((2, 4, 5, 5))
    for mode in ("train", "eval"):
        q = lambda y: sum_all(hadamard(y, probe))
        assert finite_diff_check(lambda t: q(batch_norm(t, gamma, beta, state, mode)), x) < 1e-5
        assert finite_diff_check(lambda t: q(batch_norm(x, t, beta, state, mode)), gamma) < 1e-5
        assert finite_diff_check(lambda t: q(batch_norm(x, gamma, t, state, mode)), beta) < 1e-5


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


def test_depthwise_vs_standard_weight_count_ratio():
    c = 64
    dw = ConvSpec.same(c, c, 3, groups=c, bias=True)
    std = ConvSpec.same(c, c, 3, bias=True)
    assert dw.param_count == c * 9 + c == 640
    assert std.param_count == c * c * 9 + c == 36928
    dw_w = ConvSpec.same(c, c, 3, groups=c, bias=False).param_count
    std_w = ConvSpec.same(c, c, 3, bias=False).param_count
    assert dw_w * c == std_w  # exactly 1/C' ratio
