"""Spatial selection masks and squeeze-excitation channel weights.

Spatial attention compresses the channel axis to an (avg, max) pair of
maps, convolves them, and squashes through a sigmoid: the result is a
per-pixel selection mask with one channel per fusion scale, every value
strictly inside (0, 1). Channel attention pools globally, bottlenecks
through a reduce/expand pointwise pair, and emits one sigmoid weight per
channel.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigError
from .eltwise import channel_avg_max, spatial_mean
from .layers import ParamBlock, debug_finite
from .ops import ConvSpec, relu, sigmoid
from .tensor import Rng


class SpatialAttention(ParamBlock):
    """sigmoid(conv([avg-map; max-map])) -> (n, mask_channels, h, w)."""

    def __init__(self, mask_channels: int, kernel: int, rng: Rng | None = None,
                 dtype=np.float64):
        super().__init__()
        self.mask_channels = mask_channels
        self._add_conv("conv", ConvSpec(2, mask_channels, kernel), rng, dtype)

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        p = self.resolve(params)
        return sigmoid(self._conv(p, "conv", channel_avg_max(x)))


class ChannelAttention(ParamBlock):
    """Squeeze-excitation: sigmoid(expand(relu(reduce(gap(x))))) -> (n, c, 1, 1)."""

    def __init__(self, c: int, ratio: int, rng: Rng | None = None, dtype=np.float64):
        super().__init__()
        if c % ratio:
            raise ConfigError(f"channel attention: {c} channels not divisible by ratio {ratio}")
        self.c = c
        self.ratio = ratio
        self._add_conv("reduce", ConvSpec(c, c // ratio, 1), rng, dtype)
        self._add_conv("expand", ConvSpec(c // ratio, c, 1), rng, dtype)

    @debug_finite
    def forward(self, x, params=None, mode: str = "eval"):
        p = self.resolve(params)
        squeezed = relu(self._conv(p, "reduce", spatial_mean(x)))
        return sigmoid(self._conv(p, "expand", squeezed))

