"""Variable receptive-field neural blocks with a reverse-mode tape,
brute-force oracles, and cost profiling, on dense NCHW tensors."""

from .tensor import Rng, ShapeError, Tensor, full, zeros, zeros_like
from .tape import Node, OpCounter, Tape, finite_diff_check, tape_of, value_of
from .eltwise import (
    add,
    concat_channels,
    hadamard,
    reduce_channel,
    slice_channels,
    spatial_mean,
    sum_all,
)
from .ops import (
    BatchNormState,
    ConvSpec,
    DropoutState,
    activation,
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
    "BatchNormState", "ChannelAttention", "ConfigError", "ConvLayer", "ConvSpec",
    "CostReport", "DropoutState", "FormatError", "GConvBlock", "GconvConfig",
    "GmcfBlock", "GmcfBottleneck", "GmcfConfig", "MscfBlock", "MscfConfig",
    "Node", "OpCounter", "OracleReport", "Rng", "RunConfig", "ShapeError",
    "SpatialAttention", "Tape", "Tensor",
    "activation", "add", "batch_norm", "bench", "block_config",
    "block_gradient_errors", "build_block", "compare", "concat_channels",
    "conv2d", "cost_report", "count_macs", "count_params", "dropout",
    "ffn_cost", "finite_diff_check", "full", "hadamard", "init_conv_params",
    "load_run_config", "oracle_block", "oracle_conv2d", "read_manifest",
    "read_tensor", "reduce_channel", "relu", "sigmoid", "sigmoid_gate",
    "slice_channels", "spatial_mean", "sum_all", "tape_of", "value_of",
    "write_manifest", "write_tensor", "zeros", "zeros_like",
]
