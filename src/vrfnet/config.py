"""Block hyperparameter configs and strict JSON run configs.

Unknown keys are rejected everywhere so a typo in a config file fails
loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def fits_index(count: int, dtype) -> bool:
    """Whether ``count`` values of ``dtype`` hold no more bytes than one
    array can index (numpy's intp)."""
    return count <= np.iinfo(np.intp).max // np.dtype(dtype).itemsize


def _finite(x) -> bool:
    """Whether the number ``x`` is finite; an int too large for a float is
    not (``math.isfinite`` raises on it)."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class MscfConfig:
    """Multi-scale context fusion block hyperparameters."""

    c: int
    dilations: tuple = (3, 5, 7)
    dw_kernel: int = 3
    mask_kernel: int = 7
    ca_ratio: int = 4
    use_ca: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dilations", tuple(self.dilations))
        if min(self.c, self.dw_kernel, self.mask_kernel, self.ca_ratio) < 1:
            raise ConfigError("mscf: channels, kernels and ca_ratio must be >= 1")
        if not self.dilations:
            raise ConfigError("mscf: dilations must name at least one scale")
        if any(d < 1 for d in self.dilations):
            raise ConfigError("mscf: dilations must be >= 1")
        if self.dw_kernel % 2 == 0 or self.mask_kernel % 2 == 0:
            raise ConfigError("mscf: kernels must be odd (same padding)")
        if self.use_ca and self.c % self.ca_ratio:
            raise ConfigError(f"mscf: channels {self.c} not divisible by ca_ratio {self.ca_ratio}")

    @property
    def n_scales(self) -> int:
        """One scale per dilation."""
        return len(self.dilations)


@dataclass(frozen=True)
class GconvConfig:
    """Gated convolution block hyperparameters; ``hidden`` defaults to floor(2c/3)."""

    c: int
    hidden: int | None = None
    dw_kernel: int = 3
    dropout: float = 0.0
    activation: str = "sigmoid_gate"

    def __post_init__(self):
        if self.c < 1 or self.dw_kernel < 1:
            raise ConfigError("gconv: channels and dw_kernel must be >= 1")
        if self.hidden is None:
            object.__setattr__(self, "hidden", (2 * self.c) // 3)
        if self.hidden < 1:
            raise ConfigError(f"gconv: hidden width {self.hidden} must be >= 1")
        if self.dw_kernel % 2 == 0:
            raise ConfigError("gconv: dw_kernel must be odd (same padding)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("gconv: dropout must be in [0, 1)")
        if self.activation not in ("sigmoid_gate", "relu"):
            raise ConfigError(f"gconv: unknown activation {self.activation!r}")


@dataclass(frozen=True)
class GmcfConfig:
    """Gated multi-scale fusion bottleneck hyperparameters."""

    c: int
    mscf: MscfConfig = None
    gconv: GconvConfig = None
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    dropout: float = 0.0

    def __post_init__(self):
        if self.c < 1:
            raise ConfigError("gmcf: channels must be >= 1")
        if self.mscf is None:
            object.__setattr__(self, "mscf", MscfConfig(c=self.c))
        if self.gconv is None:
            object.__setattr__(self, "gconv", GconvConfig(c=self.c))
        if self.mscf.c != self.c or self.gconv.c != self.c:
            raise ConfigError("gmcf: sub-config channel widths must equal c")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("gmcf: dropout must be in [0, 1)")
        # written so that NaN, which compares false both ways, fails them
        if not (_finite(self.bn_eps) and self.bn_eps > 0):
            raise ConfigError(f"gmcf: bn_eps must be a finite number > 0, got {self.bn_eps!r}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError(f"gmcf: bn_momentum must be in [0, 1], got {self.bn_momentum!r}")


def _branch_width(c: int, e: float) -> int:
    """A gmcf-block's branch width e*c, for e a finite number > 0; an integer >= 1."""
    if not (_finite(e) and e > 0):
        raise ConfigError(f"gmcf-block: e must be a finite number > 0, got {e!r}")
    ch = e * c
    if not _finite(ch) or ch != int(ch) or int(ch) < 1:
        raise ConfigError(f"gmcf-block: branch width e*c = {ch} is not a positive integer")
    return int(ch)


@dataclass(frozen=True)
class GmcfBlockConfig:
    """Split/concat wrapper chaining ``n_bottlenecks`` GMCF bottlenecks at the
    branch width e*c, which ``bottleneck`` (default ``GmcfConfig(c=e*c)``) has."""

    c: int
    bottleneck: GmcfConfig = None
    n_bottlenecks: int = 1
    e: float = 0.5

    def __post_init__(self):
        width = _branch_width(self.c, self.e)
        if self.n_bottlenecks < 0:
            raise ConfigError("gmcf-block: n_bottlenecks must be >= 0")
        if self.bottleneck is None:
            object.__setattr__(self, "bottleneck", GmcfConfig(c=width))
        if self.bottleneck.c != width:
            raise ConfigError(f"gmcf-block: bottleneck width {self.bottleneck.c} != e*c = {width}")


# the block config class of each block kind
_KIND_CONFIGS = {"mscf": MscfConfig, "gconv": GconvConfig, "gmcf": GmcfConfig,
                 "gmcf-block": GmcfBlockConfig}
BLOCK_KINDS = tuple(_KIND_CONFIGS)

# JSON value types accepted for each field annotation
_JSON_TYPES = {
    "int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict,
    "Path": str, "MscfConfig": dict, "GconvConfig": dict,
}


def _json_type_ok(value, kind: str) -> bool:
    """Whether a JSON value fits a field of JSON type ``kind``. Bools never
    pass as numbers; a tuple is a sequence of integers."""
    if kind == "tuple":
        return isinstance(value, (list, tuple)) and all(_json_type_ok(v, "int") for v in value)
    return isinstance(value, _JSON_TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))


def _json_fields(cls) -> dict:
    """The JSON keys of config ``cls``, its fields but ``c``, by type less None."""
    return {f.name: f.type.removesuffix(" | None") for f in fields(cls) if f.name != "c"}


def _take(d, where: str, types: dict) -> dict:
    """Check a strict JSON object against ``types`` (see :func:`_json_fields`): no
    unknown keys, every value of its key's type. A null sets nothing, as an omitted key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {d!r}")
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(types)}")
    vals = {name: value for name, value in d.items() if value is not None}
    for name, value in vals.items():
        if not _json_type_ok(value, types[name]):
            raise ConfigError(f"{where}: {name} must be {types[name]}, got {value!r}")
    return vals


def _from_dict(cls, c: int, d, where: str):
    """Config ``cls`` at width ``c`` from a strict JSON object; a key whose
    field is itself a config is built the same way from its sub-object."""
    vals = _take(d, where, _json_fields(cls))
    hints = get_type_hints(cls)
    for name, value in vals.items():
        if is_dataclass(hints[name]):
            vals[name] = _from_dict(hints[name], c, value, f"{where}.{name}")
    return cls(c=c, **vals)


def block_config(kind: str, c: int, module: dict | None = None):
    if kind not in _KIND_CONFIGS:
        raise ConfigError(f"unknown block kind {kind!r}; expected one of {BLOCK_KINDS}")
    cls, where = _KIND_CONFIGS[kind], f"module({kind})"
    module = {} if module is None else module
    if cls is not GmcfBlockConfig:
        return _from_dict(cls, c, module, where)
    # a gmcf-block's module is flat: n_bottlenecks and e size the wrapper;
    # every other key configures its bottlenecks, once, at the width e*c
    sizes = {k: t for k, t in _json_fields(cls).items() if k != "bottleneck"}
    vals = _take(module, where, {**_json_fields(GmcfConfig), **sizes})
    own = {k: vals.pop(k) for k in sizes if k in vals}
    width = _branch_width(c, own.get("e", cls.e))
    try:
        bottleneck = _from_dict(GmcfConfig, width, vals, "bottleneck")
    except ConfigError as exc:
        raise ConfigError(f"{where}: bottlenecks at e*c = {width} channels: {exc}") from None
    return cls(c, bottleneck, **own)


@dataclass
class RunConfig:
    """One CLI invocation, fully resolved (paths absolute, keys checked)."""

    block: str | None = None
    channels: int = 8
    seed: int = 0
    dtype: str = "f64"
    input_shape: tuple | None = None
    tolerance: float | None = None
    out_dir: Path | None = None
    module: dict = field(default_factory=dict)

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def build_block_config(self):
        if self.block is None:
            raise ConfigError("no block selected (use --block or the config file)")
        return block_config(self.block, self.channels, self.module)


def parse_input_shape(text: str) -> tuple:
    """An ``n,c,h,w`` (or ``NxCxHxW``) flag value as a tuple of ints."""
    try:
        return tuple(int(d) for d in text.replace("x", ",").split(","))
    except ValueError:  # a dim that is not an int, or past Python's digit limit
        raise ConfigError(f"cannot parse input shape {text!r}") from None


def load_run_config(path, overrides: dict | None = None, **defaults) -> RunConfig:
    """The run config in JSON file ``path`` (see :func:`run_config`)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an int past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return run_config(raw, str(path), overrides, **defaults)


def run_config(raw, where: str, overrides: dict | None = None, **defaults) -> RunConfig:
    """The one path from a JSON object to a checked RunConfig: strict keys
    and types, then ``overrides`` (typed values, such as the CLI's flags)
    on top, tuple and path conversions, and validate_run_config once, on
    the result. ``defaults`` stand in for keys that neither sets; a default
    input shape may leave its channel dim (None) to the run's channels."""
    vals = {**defaults, **_take(raw, where, _json_fields(RunConfig)), **(overrides or {})}
    if vals.get("input_shape") is not None:
        channels = vals.get("channels", RunConfig.channels)
        vals["input_shape"] = tuple(channels if d is None else d for d in vals["input_shape"])
    if vals.get("out_dir") is not None:
        try:
            vals["out_dir"] = Path(vals["out_dir"]).resolve()
        except (OSError, ValueError) as exc:  # a NUL byte, a loop of links
            raise ConfigError(f"{where}: out_dir {vals['out_dir']!r}: {exc}") from None
    cfg = RunConfig(**vals)
    validate_run_config(cfg)
    return cfg


def validate_run_config(cfg: RunConfig) -> None:
    """Cross-field checks; with a block set, its block config is built too."""
    if cfg.dtype not in DTYPES:
        raise ConfigError(f"dtype must be one of {sorted(DTYPES)}, got {cfg.dtype!r}")
    if cfg.channels < 1:
        raise ConfigError("channels must be >= 1")
    if cfg.input_shape is not None:
        if len(cfg.input_shape) != 4 or any(int(d) < 1 for d in cfg.input_shape):
            raise ConfigError(f"input_shape must be 4 positive dims, got {cfg.input_shape}")
        if not fits_index(math.prod(int(d) for d in cfg.input_shape), DTYPES[cfg.dtype]):
            raise ConfigError(f"input_shape {cfg.input_shape} holds more {cfg.dtype} bytes "
                              "than one array can index")
        if cfg.input_shape[1] != cfg.channels:
            raise ConfigError(
                f"input_shape channel dim {cfg.input_shape[1]} != channels {cfg.channels}"
            )
    # NaN compares false both ways: every check against it would fail,
    # yet no comparison of it with 0 rejects it
    if cfg.tolerance is not None and not (_finite(cfg.tolerance) and cfg.tolerance >= 0):
        raise ConfigError(f"tolerance must be a finite number >= 0, got {cfg.tolerance!r}")
    if cfg.block is not None:
        cfg.build_block_config()
