"""Block hyperparameter configs and strict JSON run configs.

Unknown keys are rejected everywhere so a typo in a config file fails
loudly instead of silently running with defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def default_hidden(c: int) -> int:
    """Gated-conv hidden width: floor(2c/3)."""
    return (2 * c) // 3


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
    """Gated convolution block hyperparameters."""

    c: int
    hidden: int | None = None
    dw_kernel: int = 3
    dropout: float = 0.0
    activation: str = "sigmoid_gate"

    def __post_init__(self):
        if self.c < 1 or self.dw_kernel < 1:
            raise ConfigError("gconv: channels and dw_kernel must be >= 1")
        if self.hidden is None:
            object.__setattr__(self, "hidden", default_hidden(self.c))
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
    """Gated multi-scale fusion bottleneck (and its split/concat wrapper)."""

    c: int
    mscf: MscfConfig = None
    gconv: GconvConfig = None
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    dropout: float = 0.0
    n_bottlenecks: int = 1
    e: float = 0.5

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
        if not (math.isfinite(self.bn_eps) and self.bn_eps > 0):
            raise ConfigError(f"gmcf: bn_eps must be a finite number > 0, got {self.bn_eps!r}")
        if not (math.isfinite(self.e) and self.e > 0):
            raise ConfigError(f"gmcf: e must be a finite number > 0, got {self.e!r}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError(f"gmcf: bn_momentum must be in [0, 1], got {self.bn_momentum!r}")
        if self.n_bottlenecks < 0:
            raise ConfigError("gmcf: n_bottlenecks must be >= 0")

    @property
    def hidden_width(self) -> int:
        """Wrapper branch width e*c; must be integral."""
        ch = self.e * self.c
        if ch != int(ch) or int(ch) < 1:
            raise ConfigError(f"gmcf: hidden width e*c = {ch} is not a positive integer")
        return int(ch)

    def at_width(self, width: int) -> "GmcfConfig":
        """Same hyperparameters re-targeted at a different channel width
        (used for the bottlenecks inside the wrapper); GConv's hidden
        width is derived again for the new width."""
        return replace(self, c=width, mscf=replace(self.mscf, c=width),
                       gconv=replace(self.gconv, c=width, hidden=None))


# the block config class of each block kind
_KIND_CONFIGS = {"mscf": MscfConfig, "gconv": GconvConfig, "gmcf": GmcfConfig,
                 "gmcf-block": GmcfConfig}
BLOCK_KINDS = tuple(_KIND_CONFIGS)

# JSON value types accepted for each field annotation
_JSON_TYPES = {
    "int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict,
    "Path": str, "MscfConfig": dict, "GconvConfig": dict,
}


def _json_type_ok(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotated ``annotation``. Bools
    never pass as numbers; a tuple is a sequence of integers."""
    for kind in annotation.split(" | "):
        if kind == "None":
            ok = value is None
        elif kind == "tuple":
            ok = isinstance(value, (list, tuple)) and all(_json_type_ok(v, "int") for v in value)
        else:
            ok = isinstance(value, _JSON_TYPES[kind]) and (
                kind == "bool" or not isinstance(value, bool))
        if ok:
            return True
    return False


def _take(cls, d, where: str) -> dict:
    """Check a strict JSON object against the fields of dataclass ``cls``
    (except ``c``): no unknown keys, every value of its field's type.
    Omitted keys keep the dataclass defaults."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {d!r}")
    types = {f.name: f.type for f in fields(cls) if f.name != "c"}
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(types)}")
    for name, value in d.items():
        if not _json_type_ok(value, types[name]):
            raise ConfigError(f"{where}: {name} must be {types[name]}, got {value!r}")
    return dict(d)


def _from_dict(cls, c: int, d, where: str):
    """Config ``cls`` at width ``c`` from a strict JSON object; a key whose
    field is itself a config is built the same way from its sub-object."""
    vals = _take(cls, d, where)
    hints = get_type_hints(cls)
    for name, value in vals.items():
        if is_dataclass(hints[name]):
            vals[name] = _from_dict(hints[name], c, value, f"{where}.{name}")
    return cls(c=c, **vals)


def block_config(kind: str, c: int, module: dict | None = None):
    if kind not in _KIND_CONFIGS:
        raise ConfigError(f"unknown block kind {kind!r}; expected one of {BLOCK_KINDS}")
    module = {} if module is None else module
    cfg = _from_dict(_KIND_CONFIGS[kind], c, module, f"module({kind})")
    # a bottleneck has no wrapper, which these keys size: it would ignore them
    if kind == "gmcf" and {"n_bottlenecks", "e"} & set(module):
        raise ConfigError("module(gmcf): n_bottlenecks and e apply to gmcf-block only")
    if kind == "gmcf-block":
        # raises unless the wrapper's branch width e*c is a positive integer
        width = cfg.hidden_width
        # the bottlenecks' config at that width, which build_block would
        # otherwise reject naming a width the caller never gave
        try:
            cfg.at_width(width)
        except ConfigError as exc:
            raise ConfigError(
                f"module(gmcf-block): bottlenecks at e*c = {width} channels: {exc}") from None
    return cfg


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

    def resolved_input_shape(self, default_hw: int = 6) -> tuple:
        if self.input_shape is not None:
            return tuple(self.input_shape)
        return (1, self.channels, default_hw, default_hw)

    def build_block_config(self):
        if self.block is None:
            raise ConfigError("no block selected (use --block or the config file)")
        return block_config(self.block, self.channels, self.module)


def load_run_config(path, overrides: dict | None = None, **defaults) -> RunConfig:
    """The run config in JSON file ``path`` (see :func:`run_config`)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return run_config(raw, str(path), overrides, **defaults)


def run_config(raw, where: str, overrides: dict | None = None, **defaults) -> RunConfig:
    """The one path from a JSON object to a checked RunConfig: strict keys
    and types, then ``overrides`` (typed values, such as the CLI's flags)
    on top, tuple and path conversions, and validate_run_config once, on
    the result. ``defaults`` stand in for keys that neither sets."""
    vals = {**defaults, **_take(RunConfig, raw, where), **(overrides or {})}
    if vals.get("input_shape") is not None:
        vals["input_shape"] = tuple(vals["input_shape"])
    if vals.get("out_dir") is not None:
        vals["out_dir"] = Path(vals["out_dir"]).resolve()
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
        itemsize = np.dtype(DTYPES[cfg.dtype]).itemsize
        if math.prod(int(d) for d in cfg.input_shape) * itemsize > np.iinfo(np.intp).max:
            raise ConfigError(f"input_shape {cfg.input_shape} holds more {cfg.dtype} bytes "
                              "than one array can index")
        if cfg.input_shape[1] != cfg.channels:
            raise ConfigError(
                f"input_shape channel dim {cfg.input_shape[1]} != channels {cfg.channels}"
            )
    # NaN compares false both ways: every check against it would fail,
    # yet no comparison of it with 0 rejects it
    if cfg.tolerance is not None and not (math.isfinite(cfg.tolerance) and cfg.tolerance >= 0):
        raise ConfigError(f"tolerance must be a finite number >= 0, got {cfg.tolerance!r}")
    if cfg.block is not None:
        cfg.build_block_config()
