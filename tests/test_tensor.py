import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from vrfnet import Rng, ShapeError, Tensor, add, hadamard, reduce_channel, zeros_like


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
    npt.assert_array_equal(reduce_channel("avg", x).data, np.full((1, 1, 2, 2), 5.0))
    npt.assert_array_equal(reduce_channel("max", x).data, np.full((1, 1, 2, 2), 5.0))


def test_reduce_channel_single_pixel():
    x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
    assert reduce_channel("avg", x).item() == 2.0
    assert reduce_channel("max", x).item() == 3.0


def test_reduce_channel_matches_per_pixel_loop_oracle():
    x = Rng(10).tensor((2, 8, 5, 5))
    avg = reduce_channel("avg", x)
    mx = reduce_channel("max", x)
    for n in range(2):
        for i in range(5):
            for j in range(5):
                col = x.data[n, :, i, j]
                assert avg.data[n, 0, i, j] == pytest.approx(col.mean(), abs=1e-15)
                assert mx.data[n, 0, i, j] == col.max()
    assert avg.shape == (2, 1, 5, 5)


def test_rng_determinism_bit_identical():
    a = Rng(1234).uniform((3, 4), -1, 1)
    b = Rng(1234).uniform((3, 4), -1, 1)
    assert a.tobytes() == b.tobytes()
    assert Rng(1).uniform((4,)).tobytes() != Rng(2).uniform((4,)).tobytes()
