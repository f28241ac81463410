import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from vrfnet import (
    Rng,
    ShapeError,
    Tape,
    Tensor,
    add,
    channel_avg_max,
    concat_channels,
    hadamard,
    select_scales,
    slice_channels,
    spatial_mean,
    sum_all,
    zeros_like,
)


def test_tensor_validates_rank_and_dims():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((1, 0, 2, 2)))
    with pytest.raises(TypeError):
        Tensor(np.zeros((1, 1, 1, 1), dtype=np.int32))


def test_tensor_is_immutable():
    t = Tensor(np.ones((1, 2, 3, 3)))
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 5.0


def test_tensor_constructor_copies():
    arr = np.ones((1, 1, 2, 2))
    t = Tensor(arr)
    arr[0, 0, 0, 0] = 7.0
    assert t.data[0, 0, 0, 0] == 1.0


def test_hadamard_basic():
    a = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
    b = Tensor(np.array([3.0, 4.0]).reshape(1, 2, 1, 1))
    npt.assert_array_equal(hadamard(a, b).data.reshape(-1), [3.0, 8.0])


def test_add_zero_identity_bit_exact():
    x = Rng(1).tensor((2, 3, 4, 4))
    out = add(x, zeros_like(x))
    assert out.data.tobytes() == x.data.tobytes()


def test_hadamard_matches_scalar_loop_oracle():
    a = Rng(2).tensor((2, 3, 4, 4))
    b = Rng(3).tensor((2, 3, 4, 4))
    out = hadamard(a, b)
    expected = np.empty_like(a.data)
    for n in range(2):
        for c in range(3):
            for i in range(4):
                for j in range(4):
                    expected[n, c, i, j] = a.data[n, c, i, j] * b.data[n, c, i, j]
    npt.assert_array_equal(out.data, expected)


def test_add_and_hadamard_match_numpy():
    a = Rng(4).tensor((1, 2, 2, 2))
    b = Rng(5).tensor((1, 2, 2, 2))
    npt.assert_array_equal(add(a, b).data, a.data + b.data)
    npt.assert_array_equal(hadamard(a, b).data, a.data * b.data)


def test_slice_channels_views_contiguous_slices():
    one = Rng(8).tensor((1, 6, 3, 3))
    two = Rng(9).tensor((2, 6, 3, 3))
    a, b = slice_channels(one, 2, 5), slice_channels(two, 2, 5)
    npt.assert_array_equal(a.data, one.data[:, 2:5])
    npt.assert_array_equal(b.data, two.data[:, 2:5])
    # a view, no copy, at every batch size
    assert np.shares_memory(a.data, one.data) and np.shares_memory(b.data, two.data)
    assert a.data.flags.c_contiguous  # batch 1: the view is C-contiguous
    assert all(sample.flags.c_contiguous for sample in b.data)  # batch 2: each sample is
    assert not a.data.flags.writeable and not b.data.flags.writeable


def test_concat_and_slice_reject_parts_that_do_not_fit():
    a = Rng(8).tensor((1, 2, 3, 3))
    with pytest.raises(TypeError, match="concat dtype mismatch"):
        concat_channels([a, Rng(9).tensor((1, 2, 3, 3), dtype=np.float32)], 4)
    with pytest.raises(ShapeError, match=r"matching \(n,h,w\)"):
        concat_channels([a, Rng(9).tensor((1, 2, 3, 2))], 4)
    with pytest.raises(ShapeError, match="wider than the 3 channels given"):
        concat_channels([a, a], 3)
    with pytest.raises(ShapeError, match="are 4 channels wide, not 5"):
        concat_channels([a, a], 5)
    for start, stop in ((0, 0), (-1, 1), (1, 3)):
        with pytest.raises(ShapeError, match=rf"slice \[{start}:{stop}\] out of range"):
            slice_channels(a, start, stop)


def test_shape_mismatch_error_names_both_shapes():
    a = Rng(6).tensor((1, 2, 4, 4))
    b = Rng(7).tensor((1, 3, 4, 4))
    with pytest.raises(ShapeError, match=r"1, 3, 4, 4.*1, 2, 4, 4"):
        hadamard(a, b)


def test_dtype_mismatch_rejected():
    a = Rng(8).tensor((1, 2, 2, 2), dtype=np.float32)
    b = Rng(9).tensor((1, 2, 2, 2), dtype=np.float64)
    with pytest.raises(TypeError):
        add(a, b)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 2), c=st.integers(1, 4), h=st.integers(1, 5), w=st.integers(1, 5),
    bn=st.booleans(), bc=st.booleans(), bh=st.booleans(), bw=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_broadcast_hadamard_equals_explicit_tiling(n, c, h, w, bn, bc, bh, bw, seed):
    rng = Rng(seed)
    a = rng.tensor((n, c, h, w))
    bshape = (1 if bn else n, 1 if bc else c, 1 if bh else h, 1 if bw else w)
    b = rng.tensor(bshape)
    tiled = Tensor(np.broadcast_to(b.data, a.shape).copy())
    npt.assert_array_equal(hadamard(a, b).data, hadamard(a, tiled).data)


def test_reduce_channel_constant():
    x = Tensor(np.full((1, 3, 2, 2), 5.0))
    npt.assert_array_equal(channel_avg_max(x).data, np.full((1, 2, 2, 2), 5.0))


def test_reduce_channel_single_pixel():
    x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
    npt.assert_array_equal(channel_avg_max(x).data.reshape(-1), [2.0, 3.0])


def test_reduce_channel_matches_per_pixel_loop_oracle():
    x = Rng(10).tensor((2, 8, 5, 5))
    pooled = channel_avg_max(x)
    for n in range(2):
        for i in range(5):
            for j in range(5):
                col = x.data[n, :, i, j]
                assert pooled.data[n, 0, i, j] == pytest.approx(col.mean(), abs=1e-15)
                assert pooled.data[n, 1, i, j] == col.max()
    assert pooled.shape == (2, 2, 5, 5)


def test_channel_max_gradient_goes_to_first_maximal_channel():
    # channels 1 and 3 tie for the max at every pixel
    x = np.array([0.0, 2.0, -1.0, 2.0]).reshape(1, 4, 1, 1) * np.ones((1, 4, 2, 3))
    tape = Tape()
    leaf = tape.leaf(Tensor(x))
    probe = Tensor(np.array([3.0, 5.0]).reshape(1, 2, 1, 1) * np.ones((1, 2, 2, 3)))
    grad = tape.backward(sum_all(hadamard(channel_avg_max(leaf), probe)))[leaf.id].data
    npt.assert_array_equal(grad[0, :, 0, 0], [0.75, 5.75, 0.75, 0.75])
    npt.assert_array_equal(grad, np.broadcast_to(grad[:, :, :1, :1], grad.shape))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 9),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    dtype=st.sampled_from([np.float32, np.float64, np.longdouble]),
    ties=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_channel_max_adjoint_keeps_the_bits_of_put_along_axis(n, c, h, w, dtype, ties, seed):
    # the adjoint writes the max's share by flat index; the formula it
    # replaced put it along the channel axis at the forward's argmax
    rng = Rng(seed)
    x = rng.uniform((n, c, h, w), -2.0, 2.0)
    if ties:
        x = np.floor(2.0 * x) / 2.0  # equal values across channels: ties for the max
    x = x.astype(dtype)
    g = rng.uniform((n, 2, h, w), -2.0, 2.0).astype(dtype)
    tape = Tape()
    leaf = tape.leaf(Tensor.wrap(x))
    got = tape.backward(sum_all(hadamard(channel_avg_max(leaf), Tensor.wrap(g))))[leaf.id].data
    want = np.empty_like(x)
    g_mean = g[:, 0:1] / c
    want[...] = g_mean
    np.put_along_axis(want, x.argmax(axis=1)[:, None], g_mean + g[:, 1:2], axis=1)
    assert _same_bits(got, want)


def _composed_mscf_epilogue(cat, mask, x):
    """Pooling and scale selection as the separate ops MSCF ran before
    they were fused: avg and max as two reductions and a concat, then a
    hadamard per branch, their running sum, and the gate."""
    pooled = concat_channels([
        Tensor.wrap(cat.data.mean(axis=1, keepdims=True, dtype=cat.dtype)),
        Tensor.wrap(cat.data.max(axis=1, keepdims=True)),
    ], 2)
    c = x.shape[1]
    fused = None
    for i in range(mask.shape[1]):
        term = hadamard(slice_channels(cat, i * c, (i + 1) * c), slice_channels(mask, i, i + 1))
        fused = term if fused is None else add(fused, term)
    return pooled, hadamard(fused, x)


def _same_bits(a, b):
    # values and signs of zeros: the bits of every finite value, and
    # unlike tobytes() blind to the padding bytes of longdouble
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=200, deadline=None)
@given(
    scales=st.integers(1, 4),
    n=st.integers(1, 2),
    c=st.integers(1, 8),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    dtype=st.sampled_from([np.float32, np.float64, np.longdouble]),
    ties=st.booleans(),
    seed=st.integers(0, 2**16),
)
# one value per sample (c = h = w = 1), where einsum would sum as a dot product
@example(scales=4, n=2, c=1, h=1, w=1, dtype=np.float32, ties=True, seed=2)
@example(scales=3, n=1, c=1, h=1, w=1, dtype=np.float64, ties=False, seed=5)
def test_fused_pooling_and_selection_are_bit_identical_to_composition(
        scales, n, c, h, w, dtype, ties, seed):
    rng = Rng(seed)
    cat = rng.uniform((n, scales * c, h, w), -2.0, 2.0)
    if ties:
        # a grid of halves: equal values across channels, and so ties for
        # the max (floor never yields a negative zero from a nonzero value)
        cat = np.floor(2.0 * cat) / 2.0
    cat = Tensor.wrap(cat.astype(dtype))
    mask = Tensor.wrap(rng.uniform((n, scales, h, w), 0.0, 1.0).astype(dtype))
    x = Tensor.wrap(rng.uniform((n, c, h, w), -2.0, 2.0).astype(dtype))
    pooled, y = _composed_mscf_epilogue(cat, mask, x)
    assert _same_bits(channel_avg_max(cat).data, pooled.data)
    assert _same_bits(select_scales(cat, mask, x).data, y.data)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 40),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    dtype=st.sampled_from([np.float32, np.float64, np.longdouble]),
    ties=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_means_are_bit_identical_to_np_mean(n, c, h, w, dtype, ties, seed):
    # both ops divide numpy's sum by the count themselves, as np.mean does
    x = Rng(seed).uniform((n, c, h, w), -2.0, 2.0)
    if ties:
        x = np.floor(2.0 * x) / 2.0  # equal values across channels and pixels
    x = x.astype(dtype)
    assert _same_bits(channel_avg_max(Tensor.wrap(x)).data[:, :1],
                      np.mean(x, axis=1, keepdims=True, dtype=dtype))
    assert _same_bits(spatial_mean(Tensor.wrap(x)).data,
                      x.mean(axis=(2, 3), keepdims=True, dtype=dtype))


def test_select_scales_rejects_mismatched_inputs():
    cat = Rng(1).tensor((1, 6, 3, 3))
    with pytest.raises(ShapeError):
        select_scales(cat, Rng(2).tensor((1, 4, 3, 3)), Rng(3).tensor((1, 2, 3, 3)))
    with pytest.raises(ShapeError):
        select_scales(cat, Rng(2).tensor((1, 3, 3, 3)), Rng(3).tensor((1, 2, 3, 2)))
    with pytest.raises(TypeError):
        select_scales(cat, Rng(2).tensor((1, 3, 3, 3), dtype=np.float32), Rng(3).tensor((1, 2, 3, 3)))


def test_rng_determinism_bit_identical():
    a = Rng(1234).uniform((3, 4), -1, 1)
    b = Rng(1234).uniform((3, 4), -1, 1)
    assert a.tobytes() == b.tobytes()
    assert Rng(1).uniform((4,)).tobytes() != Rng(2).uniform((4,)).tobytes()
