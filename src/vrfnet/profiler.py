"""Cost accounting and wall-clock micro-benchmarks.

Counts are summed from what the ops of one eval forward report to
:func:`vrfnet.tape.counting`, so the profiler restates no block
structure. Conventions (also stated in every report):

* MACs: one multiply-accumulate per kernel tap per output element,
  ``n * c_out * h * w * (c_in / groups) * k^2``. Zero-padding
  taps are counted, matching the formula and the instrumented oracle.
* FLOPs are reported as 2 * MACs.
* Elementwise work is tallied separately at 1 op per element, with
  these exceptions: the sigmoid gate x*sigmoid(1.702x) costs 3 (scale,
  sigmoid, multiply), batch norm costs 2 (normalize, affine), and
  MSCF's scale selection x * sum_i f_i*m_i over S branches costs 2*S
  per output element (S products, S-1 sums, the gate). Channel/spatial
  reductions cost 1 per input element, so the fused channel avg-and-max
  costs 2; conv bias adds 1 per output element; concat and channel
  slicing are free. Counts are for eval mode, so dropout contributes
  nothing.
* Parameter counts are cross-checked against the serialized manifest,
  not derived from formulas alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import _cap, _cap_missed
from .config import ConfigError
from .layers import ParamBlock
from .ops import ConvSpec, conv2d, init_conv_params, relu
from .tape import OpCounter, counting
from .tensor import Rng, zeros

CONVENTION = "FLOPs = 2*MACs; padding taps counted; eval-mode elementwise costs"


@dataclass
class CostReport:
    """Per-block cost summary; timing lives in its own section so golden
    comparisons can drop it mechanically."""

    block: str
    input_shape: tuple
    params: int
    macs: int
    flops: int
    eltwise_ops: int
    convention: str = CONVENTION
    timing: dict = field(default_factory=dict)


def count_params(block: ParamBlock) -> int:
    """Exact learnable element count (weights plus biases)."""
    return sum(t.size for t in block.params().values())


def conv_macs(spec: ConvSpec, n: int, h: int, w: int) -> int:
    return n * spec.c_out * h * w * spec.fan_in


def _block_dtype(block: ParamBlock):
    params = block.params()
    return next(iter(params.values())).dtype if params else np.float64


def count_costs(block: ParamBlock, input_shape) -> OpCounter:
    """MAC and elementwise counts of one eval forward, as its ops report them.

    Runs ``block.forward`` once on a zero input of the block's dtype; eval
    mode leaves parameters, running statistics and dropout state untouched.
    """
    x = zeros(input_shape, _block_dtype(block))
    with counting() as counter:
        block.forward(x, mode="eval")
    return counter


def count_macs(block: ParamBlock, input_shape) -> int:
    return count_costs(block, input_shape).macs


# the fewest timed runs whose quartiles bench reports
BENCH_MIN_REPS = 3


def _threads_stamp() -> str:
    """The VRF_THREADS cap if it reached BLAS; otherwise the cap and why not."""
    cap = os.environ.get("VRF_THREADS")
    if not cap:
        return "default"
    missed = _cap_missed if cap == _cap else "VRF_THREADS was set after vrfnet was imported"
    return f"{cap}, not applied: {missed}" if missed else cap


def bench(block: ParamBlock, input_shape, reps: int) -> dict:
    """Median/IQR wall time of eval-mode forward over ``reps`` runs, after
    two untimed ones, stamped with the VRF_THREADS cap (see _threads_stamp).
    Fewer than BENCH_MIN_REPS runs is a ConfigError."""
    if reps < BENCH_MIN_REPS:
        raise ConfigError(f"bench needs reps >= {BENCH_MIN_REPS}, got {reps}")
    warmup = 2
    x = Rng(0).tensor(input_shape, dtype=_block_dtype(block))
    for _ in range(warmup):
        block.forward(x)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        block.forward(x)
        samples.append(time.perf_counter_ns() - t0)
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "samples_ns": samples,
        "median_ns": float(med),
        "iqr_ns": float(q3 - q1),
        "reps": reps,
        "warmup": warmup,
        "threads": _threads_stamp(),
    }


def cost_report(block: ParamBlock, input_shape, bench_reps: int = 0) -> CostReport:
    counts = count_costs(block, input_shape)
    timing = bench(block, input_shape, bench_reps) if bench_reps else {}
    return CostReport(
        block=getattr(block, "kind", type(block).__name__),
        input_shape=tuple(input_shape),
        params=count_params(block),
        macs=counts.macs,
        flops=2 * counts.macs,
        eltwise_ops=counts.eltwise,
        timing=timing,
    )


def ffn_cost(c: int, input_shape) -> CostReport:
    """Baseline: a plain two-layer pointwise feed-forward with hidden
    width 2c (conv1x1 -> relu -> conv1x1), for side-by-side comparison,
    counted like a block: one forward of its ops on zero weights, and
    its parameters from the tensors those weights are."""
    up = ConvSpec(c, 2 * c, 1)
    down = ConvSpec(2 * c, c, 1)
    up_params = init_conv_params(up, None, np.float64)
    down_params = init_conv_params(down, None, np.float64)
    with counting() as counts:
        hidden = relu(conv2d(zeros(input_shape), *up_params, up))
        conv2d(hidden, *down_params, down)
    return CostReport(
        block="ffn-2c",
        input_shape=tuple(input_shape),
        params=sum(t.size for t in (*up_params, *down_params) if t is not None),
        macs=counts.macs,
        flops=2 * counts.macs,
        eltwise_ops=counts.eltwise,
    )


def format_table(reports: "list[CostReport]") -> str:
    """Aligned plain-text table over cost reports."""
    headers = ["block", "input", "params", "MACs", "FLOPs", "eltwise", "median_ns"]
    rows = []
    for r in reports:
        rows.append(
            [
                r.block,
                "x".join(str(d) for d in r.input_shape),
                f"{r.params:,}",
                f"{r.macs:,}",
                f"{r.flops:,}",
                f"{r.eltwise_ops:,}",
                f"{r.timing.get('median_ns', ''):,.0f}" if r.timing else "-",
            ]
        )
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append(f"# {CONVENTION}")
    return "\n".join(lines)
