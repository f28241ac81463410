"""Variable receptive-field neural blocks with a reverse-mode tape,
brute-force oracles, and cost profiling, on dense NCHW tensors."""

import os
import sys

# VRF_THREADS caps BLAS threads. BLAS reads its variables once, when
# numpy first loads, so this runs before the first import below; a BLAS
# variable that is already set wins. _cap_missed says why the cap did
# not reach BLAS (None if it did), for the stamp on bench's timings.
_cap = os.environ.get("VRF_THREADS")
_cap_missed = None
if _cap:
    _vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    _preset = [f"{v}={os.environ[v]}" for v in _vars if os.environ.get(v, _cap) != _cap]
    if "numpy" in sys.modules:
        _cap_missed = "numpy was loaded before vrfnet"
    elif _preset:
        _cap_missed = f"{' '.join(_preset)} was already set"
    for _var in _vars:
        os.environ.setdefault(_var, _cap)

from .tensor import NonFiniteError, Rng, ShapeError, Tensor, full, zeros, zeros_like
from .tape import Node, OpCounter, Tape, finite_diff_check, tape_of, value_of
from .eltwise import (
    add,
    channel_avg_max,
    concat_channels,
    hadamard,
    select_scales,
    slice_channels,
    spatial_mean,
    sum_all,
)
from .ops import (
    ConvSpec,
    DropoutState,
    batch_norm,
    conv2d,
    dropout,
    init_conv_params,
    relu,
    sigmoid,
    sigmoid_gate,
)
from .attention import ChannelAttention, SpatialAttention
from .config import (
    ConfigError,
    GconvConfig,
    GmcfBlockConfig,
    GmcfConfig,
    MscfConfig,
    RunConfig,
    block_config,
    load_run_config,
)
from .blocks import (
    ConvLayer,
    GConvBlock,
    GmcfBlock,
    GmcfBottleneck,
    MscfBlock,
    block_gradient_errors,
    build_block,
)
from .oracle import OracleReport, compare, oracle_block, oracle_conv2d
from .profiler import CostReport, bench, cost_report, count_macs, count_params, ffn_cost
from .vrft import FormatError, read_manifest, read_tensor, write_manifest, write_tensor

__version__ = "0.1.0"

__all__ = [
    "ChannelAttention", "ConfigError", "ConvLayer", "ConvSpec",
    "CostReport", "DropoutState", "FormatError", "GConvBlock", "GconvConfig",
    "GmcfBlock", "GmcfBlockConfig", "GmcfBottleneck", "GmcfConfig", "MscfBlock", "MscfConfig",
    "Node", "NonFiniteError", "OpCounter", "OracleReport", "Rng", "RunConfig", "ShapeError",
    "SpatialAttention", "Tape", "Tensor",
    "add", "batch_norm", "bench", "block_config",
    "block_gradient_errors", "build_block", "channel_avg_max", "compare", "concat_channels",
    "conv2d", "cost_report", "count_macs", "count_params", "dropout",
    "ffn_cost", "finite_diff_check", "full", "hadamard", "init_conv_params",
    "load_run_config", "oracle_block", "oracle_conv2d", "read_manifest",
    "read_tensor", "relu", "select_scales", "sigmoid", "sigmoid_gate",
    "slice_channels", "spatial_mean", "sum_all", "tape_of", "value_of",
    "write_manifest", "write_tensor", "zeros", "zeros_like",
]
