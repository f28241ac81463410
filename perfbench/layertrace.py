"""Per-layer tracing of vrfnet from outside the library.

:class:`LayerTracer` replaces, for as long as it is installed, the
functions the blocks call with wrappers that time each call and count
its work, and puts every original back on :meth:`LayerTracer.uninstall`.
Nothing under ``src/`` is edited. The wrapped entry points are:

* ``ParamBlock._conv``: every convolution, as ``ops.conv2d.<kind>`` with
  kind ``dw_dilated``, ``dw``, ``pw`` or ``dense``, under the conv's
  layer path (``mscf.scale0``, ``gconv.dw``, ``m0.mscf.sa.conv``, ...).
* the ``eltwise`` and ``ops`` functions where ``blocks`` and
  ``attention`` import them, as ``eltwise.<op>`` and ``ops.<op>``;
* each block's ``forward``, as ``blocks.<kind>`` or ``attention.sa`` /
  ``attention.ca``; its self time covers the ``layers.debug_finite``
  scan and the ``sub_params`` glue;
* ``Tape.record`` (node count, bytes its backward closures hold) and
  ``Tape.backward``, with each recorded adjoint timed as
  ``tape.backward.<conv2d|eltwise|batch_norm|other>``;
* ``Tensor.wrap``, counted only: every call adopts one fresh array;
* ``blocks.block_gradient_errors``, whose plain (tape-free) forwards of
  the checked block are counted as finite-difference probes.

A span is (step, id, parent id, name, path, start ns, end ns). Self time
is a span's duration minus the time its child spans cover. Aggregates
cover every traced step; raw spans are kept for the first
``KEEP_STEPS`` steps only, at most ``MAX_SPANS`` of them, to bound memory.

MACs are one multiply-accumulate per kernel tap per output element,
padding taps included (the profiler's convention). Bytes are *computed*
from shapes, never measured: for a conv, the input read, the im2col
buffer written and read back, weights and bias read, and the output
written; for the other ops, every operand read and the result written.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

CONV_KINDS = ("dw_dilated", "dw", "pw", "dense")
ELTWISE_OPS = ("hadamard", "add", "concat_channels", "slice_channels",
               "reduce_channel", "spatial_mean")
ACTIVATION_OPS = ("sigmoid_gate", "sigmoid", "relu", "batch_norm", "dropout")
BLOCK_SPANS = ("mscf", "gconv", "gmcf", "gmcf-block")
ATTENTION_SPANS = ("sa", "ca")
BACKWARD_KINDS = ("conv2d", "eltwise", "batch_norm", "other")

# tape op names (as passed to Tape.record) that count as eltwise backward
_ELTWISE_TAPE_OPS = {"add", "hadamard", "concat_channels", "slice_channels",
                     "reduce_channel_avg", "reduce_channel_max", "spatial_mean",
                     "sum_all", "scale"}
_MIB = float(1 << 20)
KEEP_STEPS = 2
MAX_SPANS = 20000


def conv_kind(spec) -> str:
    if spec.depthwise:
        return "dw_dilated" if spec.dilation > 1 else "dw"
    if spec.k == 1 and spec.groups == 1:
        return "pw"
    return "dense"


def conv_work(spec, x_shape, itemsize) -> tuple[int, int]:
    """(MACs, computed bytes) of one im2col conv call."""
    n, cin, h, w = x_shape
    ho, wo = spec.out_hw(h, w)
    out = n * spec.c_out * ho * wo
    macs = out * (cin // spec.groups) * spec.k * spec.k
    cols = n * cin * spec.k * spec.k * ho * wo
    weights = spec.c_out * (cin // spec.groups) * spec.k * spec.k
    bias = spec.c_out if spec.bias else 0
    return macs, itemsize * (n * cin * h * w + 2 * cols + weights + bias + out)


def _nbytes(t) -> int:
    data = getattr(t, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def _buffer_root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class LayerTracer:
    """Install-able wrappers that record spans and per-layer counters."""

    def __init__(self, vrf, root):
        """``vrf`` is the imported ``vrfnet`` package, ``root`` the block
        whose forwards are traced (layer paths are relative to it)."""
        self.vrf = vrf
        self.root = root
        self._prefix = {}
        self._index_paths(root, "")
        self._patches = []
        self._stack = []  # open spans: [id, name, path, start_ns, child_ns]
        self._block_paths = ["(step)"]
        self._next_id = 0
        self._in_gradcheck = 0
        self._saved_ids = set()
        self.step = -1
        self.steps = 0
        self.spans = []
        # (name, path) -> [calls, inclusive ns, self ns, macs, bytes]
        self.agg = defaultdict(lambda: [0, 0, 0, 0, 0])
        self.counts = defaultdict(int)

    # -- layer paths ----------------------------------------------------------

    def _index_paths(self, block, prefix):
        self._prefix[id(block)] = prefix
        for name, child in block._children.items():
            self._index_paths(child, f"{prefix}{name}.")

    def _path(self, block, name=None) -> str:
        prefix = self._prefix.get(id(block), "?.")
        if name is None:
            return prefix[:-1] or "(root)"
        return prefix + name

    # -- spans ------------------------------------------------------------------

    def _open(self, name, path):
        self._next_id += 1
        self._stack.append([self._next_id, name, path, time.perf_counter_ns(), 0])

    def _close(self, macs=0, nbytes=0) -> int:
        end = time.perf_counter_ns()
        sid, name, path, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        rec = self.agg[(name, path)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        rec[3] += macs
        rec[4] += nbytes
        if self.step < KEEP_STEPS and len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((self.step, sid, parent, name, path, start, end))
        return dur

    def begin_step(self):
        self.step += 1
        self.steps += 1
        self._saved_ids = set()

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        vrf = self.vrf
        blocks, attention = vrf.blocks, vrf.attention
        self._patch(vrf.layers.ParamBlock, "_conv", self._wrap_conv(vrf.layers.ParamBlock._conv))
        for mod in (blocks, attention):
            for op in ELTWISE_OPS:
                if op in mod.__dict__:
                    self._patch(mod, op, self._wrap_eltwise(op, mod.__dict__[op]))
            for op in ACTIVATION_OPS:
                if op in mod.__dict__:
                    self._patch(mod, op, self._wrap_simple("ops." + op, mod.__dict__[op]))
        for cls in (blocks.MscfBlock, blocks.GConvBlock, blocks.GmcfBottleneck, blocks.GmcfBlock):
            self._patch(cls, "forward", self._wrap_forward("blocks." + cls.kind, cls.forward))
        self._patch(attention.SpatialAttention, "forward",
                    self._wrap_forward("attention.sa", attention.SpatialAttention.forward))
        self._patch(attention.ChannelAttention, "forward",
                    self._wrap_forward("attention.ca", attention.ChannelAttention.forward))
        tape_cls = vrf.tape.Tape
        self._patch(tape_cls, "record", self._wrap_record(tape_cls.record))
        self._patch(tape_cls, "backward", self._wrap_simple("tape.backward", tape_cls.backward))
        wrap_fn = vrf.tensor.Tensor.__dict__["wrap"].__func__
        self._patch(vrf.tensor.Tensor, "wrap", classmethod(self._wrap_tensor(wrap_fn)))
        self._patch(blocks, "block_gradient_errors",
                    self._wrap_gradcheck(blocks.block_gradient_errors))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------------

    def _wrap_conv(self, orig):
        tracer = self
        value_of = self.vrf.tape.value_of

        def _conv(block, p, name, x):
            spec = block._specs[name]
            tracer._open("ops.conv2d." + conv_kind(spec), tracer._path(block, name))
            try:
                return orig(block, p, name, x)
            finally:
                tx = value_of(x)
                tracer._close(*conv_work(spec, tx.shape, tx.dtype.itemsize))

        return _conv

    def _wrap_eltwise(self, op, orig):
        tracer = self
        value_of = self.vrf.tape.value_of

        def wrapper(*args):
            tracer._open("eltwise." + op, tracer._block_paths[-1])
            out = None
            try:
                out = orig(*args)
                return out
            finally:
                written = _nbytes(value_of(out)) if out is not None else 0
                if op == "slice_channels":
                    read = written
                elif op == "concat_channels":
                    read = sum(_nbytes(value_of(a)) for a in args[0])
                else:
                    read = sum(_nbytes(value_of(a)) for a in args if not isinstance(a, str))
                tracer._close(0, read + written)

        return wrapper

    def _wrap_simple(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name, tracer._block_paths[-1])
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close()

        return wrapper

    def _wrap_forward(self, name, orig):
        tracer = self
        Node = self.vrf.tape.Node

        def forward(block, x, params=None, mode="eval"):
            path = tracer._path(block)
            probe = (block is tracer.root and tracer._in_gradcheck
                     and not isinstance(x, Node)
                     and not any(isinstance(t, Node) for t in (params or {}).values()))
            tracer._open(name, path)
            tracer._block_paths.append(path)
            try:
                return orig(block, x, params, mode)
            finally:
                tracer._block_paths.pop()
                dur = tracer._close()
                if probe:
                    tracer.counts["probes"] += 1
                    tracer.counts["probe_ns"] += dur

        return forward

    def _wrap_record(self, orig):
        tracer = self
        Node = self.vrf.tape.Node
        Tensor = self.vrf.tensor.Tensor

        def record(tape, tensor, op, backward):
            tracer.counts["tape_nodes"] += 1
            for cell in backward.__closure__ or ():
                try:
                    v = cell.cell_contents
                except ValueError:  # cell not yet bound
                    continue
                if isinstance(v, Tensor) and not isinstance(v, Node):
                    v = v.data
                if isinstance(v, np.ndarray):
                    root = _buffer_root(v)
                    if id(root) not in tracer._saved_ids:
                        tracer._saved_ids.add(id(root))
                        tracer.counts["tape_saved_bytes"] += root.nbytes
            if op == "conv2d" or op == "batch_norm":
                kind = op
            elif op in _ELTWISE_TAPE_OPS:
                kind = "eltwise"
            else:
                kind = "other"
            name = "tape.backward." + kind

            def timed_backward(grad, acc):
                tracer._open(name, op)
                try:
                    backward(grad, acc)
                finally:
                    tracer._close()

            return orig(tape, tensor, op, timed_backward)

        return record

    def _wrap_tensor(self, orig):
        counts = self.counts

        def wrap(cls, arr):
            counts["wraps"] += 1
            counts["wrap_bytes"] += arr.nbytes
            return orig(cls, arr)

        return wrap

    def _wrap_gradcheck(self, orig):
        tracer = self

        def block_gradient_errors(*args, **kwargs):
            tracer._open("blocks.block_gradient_errors", "(root)")
            tracer._in_gradcheck += 1
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._in_gradcheck -= 1
                tracer._close()

        return block_gradient_errors

    # -- summaries --------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, inclusive ns, self ns, macs, bytes] over all paths."""
        out = defaultdict(lambda: [0, 0, 0, 0, 0])
        for (name, _path), rec in self.agg.items():
            tot = out[name]
            for i, v in enumerate(rec):
                tot[i] += v
        return out

    def layer_metrics(self, step_ns: float) -> dict:
        """Per-step layer metrics; ``step_ns`` is the median traced step time."""
        steps = max(self.steps, 1)
        names = self.by_name()
        m = {}

        def per_step(v):
            return v / steps

        def ms(ns):
            return ns / steps / 1e6

        for kind in CONV_KINDS:
            calls, incl, _self, macs, nbytes = names["ops.conv2d." + kind]
            m[f"ops.conv2d.{kind}.ms"] = ms(incl)
            m[f"ops.conv2d.{kind}.calls"] = per_step(calls)
            m[f"ops.conv2d.{kind}.macs"] = per_step(macs)
            m[f"ops.conv2d.{kind}.mib"] = per_step(nbytes) / _MIB
            m[f"ops.conv2d.{kind}.gflops"] = 2.0 * macs / incl if incl else 0.0
        for op in ELTWISE_OPS:
            _calls, incl, _self, _macs, nbytes = names["eltwise." + op]
            m[f"eltwise.{op}.ms"] = ms(incl)
            m[f"eltwise.{op}.mib"] = per_step(nbytes) / _MIB
        for op in ACTIVATION_OPS:
            m[f"ops.{op}.ms"] = ms(names["ops." + op][1])
        for kind in BLOCK_SPANS:
            self_ns = names["blocks." + kind][2]
            if kind == "gmcf-block":
                m["blocks.gmcf-block.self_frac"] = self_ns / steps / step_ns
            else:
                m[f"blocks.{kind}.self_ms"] = ms(self_ns)
        for kind in ATTENTION_SPANS:
            m[f"attention.{kind}.self_ms"] = ms(names["attention." + kind][2])
        m["tape.nodes"] = per_step(self.counts["tape_nodes"])
        m["tape.saved_mib"] = per_step(self.counts["tape_saved_bytes"]) / _MIB
        m["tape.backward.frac"] = names["tape.backward"][1] / steps / step_ns
        inner = 0
        for kind in BACKWARD_KINDS[:-1]:
            ns = names["tape.backward." + kind][1]
            inner += ns
            m[f"tape.backward.{kind}.frac"] = ns / steps / step_ns
        # "other": activation and dropout adjoints plus the tape's own
        # accumulation and gradient copies
        other = names["tape.backward"][1] - inner
        m["tape.backward.other.frac"] = other / steps / step_ns
        m["tensor.wraps"] = per_step(self.counts["wraps"])
        m["tensor.wrap_mib"] = per_step(self.counts["wrap_bytes"]) / _MIB
        m["blocks.block_gradient_errors.probes"] = per_step(self.counts["probes"])
        m["blocks.block_gradient_errors.probe_frac"] = (
            self.counts["probe_ns"] / steps / step_ns)
        return m

    def conv_macs_total(self) -> int:
        names = self.by_name()
        return sum(names["ops.conv2d." + k][3] for k in CONV_KINDS)

    def layer_paths(self) -> list:
        """One row per (span name, layer path), per step, sorted by time."""
        steps = max(self.steps, 1)
        rows = []
        for (name, path), (calls, incl, self_ns, macs, nbytes) in self.agg.items():
            rows.append({"name": name, "path": path, "calls": calls / steps,
                         "ms": incl / steps / 1e6, "self_ms": self_ns / steps / 1e6,
                         "macs": macs / steps, "computed_mib": nbytes / steps / _MIB})
        rows.sort(key=lambda r: -r["ms"])
        return rows
