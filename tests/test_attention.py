import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from vrfnet import (
    ChannelAttention,
    ConfigError,
    Rng,
    SpatialAttention,
    Tensor,
    finite_diff_check,
    sum_all,
)


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_spatial_attention_zero_weights_gives_half():
    sa = SpatialAttention(mask_channels=3)  # zero init
    x = Rng(1).tensor((1, 24, 8, 8))
    mask = sa.forward(x)
    npt.assert_array_equal(mask.data, np.full((1, 3, 8, 8), 0.5))


def test_spatial_attention_constant_input_is_spatially_constant():
    from vrfnet.eltwise import reduce_channel

    sa = SpatialAttention(mask_channels=2, rng=Rng(2))
    x = Tensor(np.full((1, 6, 13, 13), 3.25))
    npt.assert_array_equal(reduce_channel("avg", x).data, np.full((1, 1, 13, 13), 3.25))
    npt.assert_array_equal(reduce_channel("max", x).data, np.full((1, 1, 13, 13), 3.25))
    mask = sa.forward(x).data
    # interior pixels (7x7 kernel, pad 3) share one receptive field
    interior = mask[:, :, 3:10, 3:10]
    npt.assert_array_equal(interior, np.broadcast_to(interior[:, :, :1, :1], interior.shape))


def test_spatial_attention_matches_composed_oracle():
    sa = SpatialAttention(mask_channels=3, rng=Rng(3))
    x = Rng(4).tensor((1, 24, 8, 8))
    mask = sa.forward(x).data

    from vrfnet.oracle import oracle_conv2d

    avg = x.data.mean(axis=1, keepdims=True)
    mx = x.data.max(axis=1, keepdims=True)
    pooled = Tensor(np.concatenate([avg, mx], axis=1))
    p = sa.params()
    logits = oracle_conv2d(pooled, p["conv.w"], p["conv.b"], sa.conv_specs()["conv"])
    npt.assert_allclose(mask, _sig(logits.data), rtol=1e-12)


def test_spatial_attention_channel_permutation_equivariance():
    from vrfnet.eltwise import reduce_channel

    sa = SpatialAttention(mask_channels=3, rng=Rng(5))
    x = Rng(6).tensor((1, 12, 6, 6))
    perm = Rng(7)._gen.permutation(12)
    xp = Tensor(x.data[:, perm])
    # max is exactly order-independent; avg only up to summation order
    npt.assert_array_equal(reduce_channel("max", x).data, reduce_channel("max", xp).data)
    npt.assert_allclose(sa.forward(x).data, sa.forward(xp).data,
                        rtol=1e-14, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), c=st.sampled_from([4, 8, 12]))
def test_mask_and_weights_strictly_inside_unit_interval(seed, c):
    rng = Rng(seed)
    sa = SpatialAttention(mask_channels=3, rng=rng)
    ca = ChannelAttention(c, ratio=4, rng=rng)
    x = rng.tensor((1, c, 6, 6), -2, 2)
    mask = sa.forward(x).data
    weights = ca.forward(x).data
    assert np.all(mask > 0) and np.all(mask < 1)
    assert np.all(weights > 0) and np.all(weights < 1)


def test_channel_attention_zero_weights_gives_half():
    ca = ChannelAttention(16, ratio=4)
    x = Rng(8).tensor((2, 16, 4, 4))
    npt.assert_array_equal(ca.forward(x).data, np.full((2, 16, 1, 1), 0.5))


def test_channel_attention_zero_input_sees_bias_path():
    ca = ChannelAttention(8, ratio=4, rng=Rng(9))
    x = Tensor(np.zeros((1, 8, 5, 5)))
    p = ca.params()
    hidden = np.maximum(p["reduce.b"].data.reshape(-1), 0.0)
    logits = (p["expand.w"].data.reshape(8, 2) @ hidden) + p["expand.b"].data.reshape(-1)
    npt.assert_allclose(ca.forward(x).data.reshape(-1), _sig(logits), rtol=1e-12)


def test_channel_attention_matches_loop_oracle():
    ca = ChannelAttention(16, ratio=4, rng=Rng(10))
    x = Rng(11).tensor((2, 16, 4, 4))
    weights = ca.forward(x).data
    p = ca.params()
    rw = p["reduce.w"].data.reshape(4, 16)
    rb = p["reduce.b"].data.reshape(4)
    ew = p["expand.w"].data.reshape(16, 4)
    eb = p["expand.b"].data.reshape(16)
    for n in range(2):
        gap = x.data[n].mean(axis=(1, 2))
        hidden = np.maximum(rw @ gap + rb, 0.0)
        logits = ew @ hidden + eb
        npt.assert_allclose(weights[n].reshape(-1), _sig(logits), rtol=1e-12)


def test_channel_attention_requires_divisible_ratio():
    with pytest.raises(ConfigError):
        ChannelAttention(6, ratio=4)


def test_attention_gradients():
    rng = Rng(12)
    sa = SpatialAttention(mask_channels=2, rng=rng)
    ca = ChannelAttention(8, ratio=4, rng=rng)
    x = rng.tensor((1, 8, 5, 5), -2, 2)
    assert finite_diff_check(lambda t: sum_all(sa.forward(t)), x) < 1e-5
    assert finite_diff_check(lambda t: sum_all(ca.forward(t)), x) < 1e-5
