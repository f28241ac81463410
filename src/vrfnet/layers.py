"""Parameter bookkeeping shared by the attention and fusion blocks.

A block registers three kinds of named entries: learnable parameters,
non-learnable buffers (batch-norm running statistics) and conv specs.
One walk over the block tree serves all three as flat, ordered,
child-prefixed maps (``params()``, ``buffers()``, ``conv_specs()``), and
one checked setter replaces parameters or buffers: names, shapes and
dtypes must match. Registered tensors are immutable, so the maps share
them rather than copy them. ``forward(x, params=None, mode="eval")``
reads parameters from the given flat dict, which lets gradient checks
re-run the same forward with selected parameters bound to tape nodes or
replaced by probes. A block hands each child a :class:`ParamView` of
that dict: an O(1) view whose ``view[name]`` is ``params[prefix + name]``,
so nothing is copied per forward. With ``params=None`` every block,
children included, reads its own registry.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict

import numpy as np

from .config import ConfigError, fits_index
from .ops import ConvSpec, conv2d, init_conv_params
from .tape import value_of
from .tensor import NonFiniteError, Rng, ShapeError, Tensor


def debug_finite(forward):
    """Raise :class:`NonFiniteError` where a forward turns finite inputs
    into NaN/Inf outputs, in every interpreter mode. A block fails it only
    when its input was finite, so a non-finite value is reported by the
    innermost block that produced it, not by every block downstream. The
    input is scanned only once the output check has failed."""

    @functools.wraps(forward)
    def wrapper(self, x, params=None, mode="eval"):
        out = forward(self, x, params, mode)
        if not np.isfinite(value_of(out).data).all() and np.isfinite(value_of(x).data).all():
            raise NonFiniteError(f"{type(self).__name__} produced non-finite values")
        return out

    return wrapper


class ParamBlock:
    """Base: registries of parameters, buffers and conv specs, child blocks,
    conv helpers."""

    def __init__(self):
        self._params: "OrderedDict[str, Tensor]" = OrderedDict()
        self._buffers: "OrderedDict[str, Tensor]" = OrderedDict()
        self._specs: dict[str, ConvSpec] = {}
        self._children: "OrderedDict[str, ParamBlock]" = OrderedDict()

    # -- registry ---------------------------------------------------------

    def _add_conv(self, name: str, spec: ConvSpec, rng: Rng | None, dtype) -> None:
        """Register conv ``name``; ConfigError, before anything is
        allocated, if its weight holds more bytes than one array can index."""
        if not fits_index(math.prod(spec.weight_shape), dtype):
            raise ConfigError(f"{type(self).__name__}.{name}: a {spec.weight_shape} weight "
                              f"holds more {np.dtype(dtype)} bytes than one array can index")
        w, b = init_conv_params(spec, rng, dtype)
        self._specs[name] = spec
        self._params[name + ".w"] = w
        if b is not None:
            self._params[name + ".b"] = b

    def _walk(self, registry: str, prefix: str = ""):
        """(flat name, owning dict, key) for every entry of ``registry``:
        this block's own entries first, then each child's, prefixed."""
        own = getattr(self, registry)
        for key in own:
            yield prefix + key, own, key
        for cname, child in self._children.items():
            yield from child._walk(registry, f"{prefix}{cname}.")

    def _flat(self, registry: str) -> OrderedDict:
        return OrderedDict((name, own[key]) for name, own, key in self._walk(registry))

    def _replace(self, registry: str, new: "dict[str, Tensor]") -> None:
        """Assign every entry of ``registry`` by flat name; the names, shapes
        and dtypes must match the current entries exactly."""
        current = self._flat(registry)
        if set(new) != set(current):
            missing = sorted(set(current) - set(new))
            extra = sorted(set(new) - set(current))
            raise KeyError(f"{registry[1:-1]} name mismatch: missing={missing} extra={extra}")
        for name, t in new.items():
            want = current[name]
            if t.shape != want.shape or t.dtype != want.dtype:
                raise ShapeError(f"{name}: shape and dtype {t.shape} {t.dtype} != expected "
                                 f"{want.shape} {want.dtype}")
        for name, own, key in self._walk(registry):
            own[key] = new[name]

    # -- parameter access ---------------------------------------------------

    def conv_specs(self) -> dict[str, ConvSpec]:
        """Flat name -> ConvSpec map, children prefixed."""
        return self._flat("_specs")

    def params(self) -> "OrderedDict[str, Tensor]":
        """Flat ordered name -> tensor map (children prefixed)."""
        return self._flat("_params")

    def buffers(self) -> "OrderedDict[str, Tensor]":
        """Flat ordered name -> tensor map of the non-learnable state
        (batch-norm running statistics)."""
        return self._flat("_buffers")

    def set_params(self, new: "dict[str, Tensor]") -> None:
        """Replace every parameter by flat name (see ``_replace``)."""
        self._replace("_params", new)

    def set_buffers(self, new: "dict[str, Tensor]") -> None:
        """Replace every buffer by flat name (see ``_replace``)."""
        self._replace("_buffers", new)

    def check_fits(self, shape) -> None:
        """ConfigError unless each conv, run on an input of ``shape``
        (n, c, h, w) to this block, pads its input to and writes planes
        that one array can index in its weight's dtype, as the input itself
        must. Every conv keeps n, h and w; sizes that fit but cannot be
        allocated are left to MemoryError."""
        n, _, h, w = shape
        params = self.params()
        for name, spec in self.conv_specs().items():
            reach = 2 * spec.padding
            dtype = params[name + ".w"].dtype
            planes = (n * spec.c_in * (h + reach) * (w + reach), n * spec.c_out * h * w)
            if not fits_index(max(planes), dtype):
                raise ConfigError(
                    f"{type(self).__name__}: conv {name} ({spec.k}x{spec.k}, dilation "
                    f"{spec.dilation}) on input {tuple(shape)} holds more {dtype} bytes "
                    "than one array can index")

    # -- forward helpers ----------------------------------------------------

    def resolve(self, params):
        """The parameters a forward reads: ``params``, or this block's own
        registry when it is None."""
        return self._params if params is None else params

    def _conv(self, p, name: str, x):
        spec = self._specs[name]
        return conv2d(x, p[name + ".w"], p.get(name + ".b"), spec)

    def forward(self, x, params=None, mode: str = "eval"):
        raise NotImplementedError


class ParamView:
    """The ``prefix.*`` entries of a flat parameter dict, by their names
    after the prefix: ``view[name]`` is ``flat[prefix + name]``, the same
    tensor object, and ``view.get(name)`` is None for an absent entry."""

    __slots__ = ("_flat", "_prefix")

    def __init__(self, flat, prefix: str):
        self._flat = flat
        self._prefix = prefix

    def __getitem__(self, name: str):
        return self._flat[self._prefix + name]

    def get(self, name: str, default=None):
        return self._flat.get(self._prefix + name, default)


def sub_params(params, prefix: str):
    """The parameters of the child under ``prefix`` (e.g. ``"mscf."``):
    a view of ``params``, or None when ``params`` is None, so the child
    reads its own registry."""
    if params is None:
        return None
    if isinstance(params, ParamView):
        return ParamView(params._flat, params._prefix + prefix)
    return ParamView(params, prefix)

