"""Dense rank-4 tensors in (batch, channel, height, width) layout.

Everything in this library moves through :class:`Tensor`: a frozen
float32/float64 array of rank 4 whose samples are each one C-contiguous
block, so a channel slice is a view at any batch size. Lower-rank data (biases,
per-channel scales) is stored with unit dims, e.g. a bias vector for
``c`` output channels lives in shape ``(1, c, 1, 1)`` so it broadcasts
along batch and spatial axes.
"""

from __future__ import annotations

import numpy as np

_ALLOWED = frozenset((np.dtype(np.float32), np.dtype(np.float64)))
# extended precision is an internal evaluation dtype (finite-difference
# probes); it never appears in public constructors or serialized files
_INTERNAL = _ALLOWED | {np.dtype(np.longdouble)}


class ShapeError(ValueError):
    """A tensor shape violates an operation's contract."""


class NonFiniteError(ValueError):
    """A block turned finite inputs into NaN or Inf outputs."""


class Tensor:
    """Immutable dense rank-4 array, row-major (n, c, h, w).

    Each sample ``data[i]`` is one C-contiguous block, and no two samples
    overlap: the strides are C order's within a sample, and the batch
    stride is at least a sample's size. So a channel range of a tensor
    (``slice_channels``) is a view of it. The constructor copies its
    input into C order; internal code that owns a fresh array uses
    :meth:`Tensor.wrap` to avoid the copy. The underlying buffer is
    marked read-only either way.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, order="C")
        self.data = _checked(arr, _ALLOWED)

    @classmethod
    def wrap(cls, arr: np.ndarray) -> "Tensor":
        """Adopt ``arr`` without copying if its samples are each one
        C-contiguous block (see :class:`Tensor`); any other layout (a
        spatial crop, a transpose, overlapping samples) is copied into C
        order. Caller must not keep a writable ref."""
        if not (arr.flags.c_contiguous or _samples_contiguous(arr)):
            arr = np.ascontiguousarray(arr)
        t = object.__new__(cls)
        t.data = _checked(arr, _INTERNAL)
        return t

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def astype(self, dtype) -> "Tensor":
        return Tensor.wrap(self.data.astype(dtype))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _samples_contiguous(arr: np.ndarray) -> bool:
    """Whether ``arr`` is rank 4 with C order's strides within a sample
    and a batch stride of at least one sample."""
    if arr.ndim != 4:
        return False
    _, c, h, w = arr.shape
    e = arr.itemsize
    return arr.strides[1:] == (h * w * e, w * e, e) and arr.strides[0] >= c * h * w * e


def _checked(arr: np.ndarray, allowed=_ALLOWED) -> np.ndarray:
    if arr.dtype not in allowed:
        raise TypeError(f"tensor dtype must be float32 or float64, got {arr.dtype}")
    if arr.ndim != 4:
        raise ShapeError(f"tensors are rank-4 (n, c, h, w), got shape {arr.shape}")
    if not arr.size:  # a rank-4 array is empty iff one of its dims is 0
        raise ShapeError(f"all dims must be >= 1, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def zeros(shape, dtype=np.float64) -> Tensor:
    return Tensor.wrap(np.zeros(shape, dtype=dtype))


def full(shape, value, dtype=np.float64) -> Tensor:
    return Tensor.wrap(np.full(shape, value, dtype=dtype))


def zeros_like(t: Tensor) -> Tensor:
    return Tensor.wrap(np.zeros_like(t.data))


class Rng:
    """Deterministic random stream: PCG64 keyed by a 64-bit seed.

    The same seed yields a bit-identical stream on every platform
    (PCG64 is integer-based; float conversion is exact and fixed by
    numpy's Generator).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, shape, low=-1.0, high=1.0, dtype=np.float64) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(dtype)

    def random(self, shape) -> np.ndarray:
        """Uniform [0, 1) in float64 (used for dropout masks)."""
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def child(self, name: str) -> "Rng":
        """An independent stream keyed by this rng's seed and ``name``.

        It depends on the seed alone, not on what was drawn, so the same
        seed and name always give the same stream.
        """
        seq = np.random.SeedSequence(self.seed, spawn_key=tuple(name.encode()))
        return Rng(int(seq.generate_state(1, np.uint64)[0]))

    def choice(self, seq):
        return seq[self.integers(0, len(seq))]

    def tensor(self, shape, low=-1.0, high=1.0, dtype=np.float64) -> Tensor:
        return Tensor.wrap(self.uniform(shape, low, high, dtype))
