"""Reverse-mode differentiation tape.

Ops in :mod:`vrfnet.eltwise` and :mod:`vrfnet.ops` accept either plain
:class:`~vrfnet.tensor.Tensor` values or :class:`Node` handles. Each op
computes its output, defines its adjoint rule as a closure over the
arrays it saves, and returns through :func:`emit`, which reports the
op's cost to the open :func:`counting` context and, when a node is among
its inputs, appends the op record (output plus adjoint rule) to that
node's :class:`Tape` and returns the new node. With plain tensors the op
returns its plain output and the rule is dropped. Records are appended
in execution order, so the tape is topologically sorted by construction
and :meth:`Tape.backward` visits each record exactly once, in reverse.

Adjoints are accumulated in the tensor's own dtype. The accumulation
order is deterministic: reverse execution order across nodes, and for
each op the input order as written in its adjoint rule.

A tape is differentiated once. :meth:`Tape.backward` frees the graph as
it walks it: it takes each op's adjoint off the tape before running the
op's rule, and drops the rule, with the activations it saved, once it
has run. Only the leaf adjoints live until they are returned.

A tape holds each activation once. A node's value is the array its op
wrote, with one exception: a taped ``concat_channels`` copies each part
into its buffer and then points the part's node, if an op recorded it,
at the equal view of that buffer (:func:`share_value`), so the part's
own array is freed unless a rule saved it. The rules that may read such
a part (a gmcf-block's bottleneck output is the next bottleneck's
input) do not save it: ``conv2d``'s and ``select_scales``' read their
inputs through the nodes when they run (:func:`value_of`), and ``add``'s
keeps only its operands' shapes. Every other rule reads the arrays it
closed over. The view is equal to the array, so no bit changes.

The first array an op hands for an input becomes that input's adjoint
as it is: it may be a view (of the op's own adjoint, or a read-only
broadcast), and the tape never writes into it. The tape owns the arrays
it allocates: the sum that a second contribution forms, and the
zero-filled adjoint that a channel range (``slice_channels``) is
written into. A rule may also hand an array over (``handover=True``):
one it allocated, that nothing else references and that it no longer
reads. The tape then owns it, and where it meets an adjoint the tape
does not own, the sum is written into it. Every later contribution is
added into an owned adjoint in place, with the same bits as the
out-of-place sum. An owned leaf adjoint is returned without a copy. A
contribution whose shape is not its target's raises
:class:`~vrfnet.tensor.ShapeError`.

The cost an op reports is its multiply-accumulates and elementwise ops
(see :mod:`vrfnet.profiler` for the cost table).

Every op enters through one hook, :func:`op_entry`, its decorator.
Outside a probe replay the hook only calls the op. A
:class:`ProbeReplay` is the op-result memo of a gradient check's
parameter probes; :func:`vrfnet.blocks.block_gradient_errors` is its
only user. A parameter probe changes one tensor, so every op that does
not read it computes, bit for bit, what the previous probe's op
computed. Under a replay, the k-th op call of a probe forward returns
record k's result when it is the same op given the very same arguments:
the same objects (``is``), with int, float and str compared by value and
a list item by item. Tensors are immutable and every op is a pure
function of its arguments, so a hit returns the bits the op would
compute. (Train-mode dropout with p > 0 draws its masks from its state's
rng; a gradient check refuses it before any probe runs.) At the first
call of a forward that matches no record, the records from k on are
deleted and nothing more of that forward is recorded; nor is anything
from the first call that reads the probed tensor on. So the records hold
no probe tensor and nothing computed from one: they are a prefix of the
unperturbed forward, the part the next probe of the same parameter
reuses. (Recording the rest of each probe forward held a whole forward's
results between probes, and the gradient-check benchmark's traced peak
rose from 0.204 to 0.210 MiB.) Identity alone would keep the bits:
records hold their argument objects, so no ``id`` is reused while they
live, and although :func:`fd_max_rel_err` writes the -h step into the
array behind the +h probe's tensor, it wraps that array in a new tensor,
so a probe tensor is never passed twice and its changed values are never
read through the memo. A call with a :class:`Node` argument, or with
keyword arguments, neither reads nor writes the memo. A generator
argument (MSCF's branch outputs, for ``concat_channels``) is gathered
into a list first, under a replay only, so that its ops take their
places before the call takes its own. A hit skips :func:`emit`, and with
it the op's cost, so a replay refuses to run inside :func:`counting`.
"""

from __future__ import annotations

import functools
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import islice
from types import GeneratorType
from typing import Callable

import numpy as np

from .tensor import ShapeError, Tensor

_SCALAR_SHAPE = (1, 1, 1, 1)


@dataclass
class OpCounter:
    """Tally of multiply-accumulates and elementwise ops."""

    macs: int = 0
    eltwise: int = 0


_COUNTER: "ContextVar[OpCounter | None]" = ContextVar("vrfnet_op_counter", default=None)


@contextmanager
def counting():
    """Open a fresh :class:`OpCounter` that every op run inside tallies to."""
    counter = OpCounter()
    token = _COUNTER.set(counter)
    try:
        yield counter
    finally:
        _COUNTER.reset(token)


def op_entry(fn):
    """The entry of an op: every op in :mod:`vrfnet.ops` and
    :mod:`vrfnet.eltwise` that returns through :func:`emit` carries it.
    It calls the op, through the open :class:`ProbeReplay` if any."""

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        replay = _REPLAY.get()
        if replay is None or kwargs:
            return fn(*args, **kwargs)
        return replay._call(fn, args)

    return entry


class ProbeReplay:
    """The op-result memo of a gradient check's parameter probes.

    ``replay(probe, forward, *args)`` runs ``forward(*args)`` as the next
    forward that probes the tensor ``probe``: its k-th op call returns
    record k's result where it matches (see the module docstring). A
    record is one list, ``[op, result, *arguments]``, not a tuple: freed
    tuples stay on CPython's free lists, where tracemalloc counts them,
    and tuple records read a higher traced peak on the gradient-check
    benchmark (0.20451 against 0.20427 MiB).
    """

    __slots__ = ("_records", "_at", "_probe")

    def __init__(self):
        self._records: list[list] = []
        self._at = 0  # the record of this forward's next call; -1 once it records no more
        self._probe = None

    def __call__(self, probe: Tensor, forward, *args):
        if _COUNTER.get() is not None:
            raise RuntimeError("a probe replay skips the cost of every hit: "
                               "it cannot run inside counting()")
        self._at, self._probe = 0, probe
        token = _REPLAY.set(self)
        try:
            return forward(*args)
        finally:
            _REPLAY.reset(token)
            self._probe = None

    def _call(self, fn, args):
        if self._at < 0:
            return fn(*args)
        args = [list(a) if type(a) is GeneratorType else a for a in args]
        k = self._at  # read after the gathering, whose ops came first
        if k < 0 or any(map(_holds_node, args)):
            return fn(*args)
        records = self._records
        if k < len(records):
            rec = records[k]
            if (rec[0] is fn and len(rec) == 2 + len(args)
                    and all(map(_same_argument, islice(rec, 2, None), args))):
                self._at = k + 1
                return rec[1]
        elif not any(a is self._probe for a in args):
            out = fn(*args)
            records.append([fn, out, *args])
            self._at = k + 1
            return out
        del records[k:]
        self._at = -1
        return fn(*args)


def _holds_node(a) -> bool:
    return isinstance(a, Node) or type(a) is list and any(isinstance(i, Node) for i in a)


def _same_argument(a, b) -> bool:
    """Whether ``b`` is ``a``, or an int, float or str equal to it, or a
    list of the same objects."""
    if a is b:
        return True
    t = type(a)
    if t is not type(b):
        return False
    if t is list:
        return len(a) == len(b) and all(map(operator.is_, a, b))
    return t in (int, float, str) and a == b


_REPLAY: "ContextVar[ProbeReplay | None]" = ContextVar("vrfnet_probe_replay", default=None)


class Node:
    """A tensor bound to a tape position."""

    __slots__ = ("tensor", "tape", "id", "op", "is_leaf", "_backward")

    def __init__(self, tensor, tape, node_id, op, backward, is_leaf):
        self.tensor = tensor
        self.tape = tape
        self.id = node_id
        self.op = op
        self.is_leaf = is_leaf
        self._backward = backward

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else self.op
        return f"Node(id={self.id}, {kind}, shape={self.tensor.shape})"


class Tape:
    """Ordered record of forward ops, replayed in reverse for gradients."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, tensor: Tensor, name: str | None = None) -> Node:
        """Register an input/parameter tensor and return its handle."""
        node = Node(tensor, self, len(self._nodes), name or "leaf", None, True)
        self._nodes.append(node)
        return node

    def record(self, tensor: Tensor, op: str, backward: Callable) -> Node:
        """Append an op result. ``backward(grad, accumulate)`` distributes
        the adjoint ``grad`` (ndarray) to the op's inputs via
        ``accumulate(input_ref, ndarray)``, or via
        ``accumulate(input_ref, ndarray, channels)`` for the adjoint of
        the channel range ``input[:, channels]`` (a slice) alone. The rule
        must not write into ``grad`` or into an array it has handed on.
        ``accumulate(input_ref, ndarray, handover=True)`` hands over a
        whole adjoint the rule allocated and keeps no reference to: the
        tape may add into it from then on, so the rule must not read it
        again, nor hand it (or a view of it) to another input."""
        node = Node(tensor, self, len(self._nodes), op, backward, False)
        self._nodes.append(node)
        return node

    def backward(self, loss: Node) -> dict[int, Tensor]:
        """Gradient of a scalar loss node with respect to every leaf.

        Returns a dict keyed by leaf node id; leaves the loss does not
        depend on get zero gradients. Raises if the loss is not scalar
        (an all-axes sum as the final node makes any objective scalar);
        a loss that is rejected leaves the tape as it was.

        The tape can be differentiated only once; a second call raises
        ValueError. The walk frees what it has used: each op's adjoint
        is taken off the tape before the op's rule runs, and the rule,
        with the arrays it saved, is dropped once it has run. Node
        values stay on the tape.
        """
        if not isinstance(loss, Node) or loss.tape is not self:
            raise ValueError("loss must be a node recorded on this tape")
        if loss.tensor.shape != _SCALAR_SHAPE:
            raise ShapeError(
                f"loss must be scalar with shape {_SCALAR_SHAPE}, got {loss.tensor.shape}"
            )
        if self._consumed:
            raise ValueError("this tape was already differentiated; record a new one")
        self._consumed = True

        adjoints: dict[int, np.ndarray] = {
            loss.id: np.ones(_SCALAR_SHAPE, dtype=loss.tensor.dtype)
        }
        owned: set[int] = set()  # ids whose adjoint the tape allocated or was handed

        def accumulate(ref, grad: np.ndarray, channels: slice | None = None, *,
                       handover: bool = False) -> None:
            if not isinstance(ref, Node):
                return  # constant input: no adjoint wanted
            shape = ref.tensor.shape
            if channels is not None:
                shape = (shape[0], len(range(*channels.indices(shape[1])))) + shape[2:]
            if grad.shape != shape:
                raise ShapeError(f"adjoint of shape {grad.shape} for {ref}; expected {shape}")
            cur = adjoints.get(ref.id)
            if channels is None:
                if cur is None:
                    adjoints[ref.id] = grad
                    if handover:
                        owned.add(ref.id)
                elif ref.id in owned:
                    np.add(cur, grad, out=cur)
                else:  # cur + grad either way: a handed-over array takes the sum
                    adjoints[ref.id] = np.add(cur, grad, out=grad if handover else None)
                    owned.add(ref.id)
                return
            if cur is None:
                cur = np.zeros(ref.tensor.shape, dtype=ref.tensor.dtype)
                cur[:, channels] = grad
            else:
                if ref.id not in owned:
                    cur = cur.copy()
                part = cur[:, channels]
                np.add(part, grad, out=part)
            adjoints[ref.id] = cur
            owned.add(ref.id)

        for node in reversed(self._nodes):
            if node.is_leaf:
                continue
            grad = adjoints.pop(node.id, None)
            if grad is not None:
                node._backward(grad, accumulate)
            node._backward = None

        out: dict[int, Tensor] = {}
        for node in self._nodes:
            if node.is_leaf:
                grad = adjoints.get(node.id)
                if grad is None:
                    out[node.id] = Tensor.wrap(np.zeros_like(node.tensor.data))
                else:  # an array an op handed over may be a view: it is copied
                    out[node.id] = Tensor.wrap(grad if node.id in owned else grad.copy())
        return out


def share_value(ref, value: np.ndarray) -> None:
    """Point the node of a recorded op at ``value``, an array equal to its
    value (a view of the buffer a concat copied it into), so that the
    tape holds the two as one. A leaf, whose value its caller owns, and
    a plain tensor are left as they are."""
    if isinstance(ref, Node) and not ref.is_leaf:
        if (value.shape, value.dtype) != (ref.tensor.shape, ref.tensor.dtype):
            raise ShapeError(f"an array {value.shape} {value.dtype} cannot stand for {ref}")
        ref.tensor = Tensor.wrap(value)


def value_of(x) -> Tensor:
    """Unwrap a Node to its tensor; pass plain tensors through."""
    return x.tensor if isinstance(x, Node) else x


def emit(op: str, out: Tensor, inputs, backward: Callable, macs: int = 0, eltwise: int = 0):
    """Return an op's result: ``out`` itself, or its node on the inputs' tape.

    Adds ``macs`` and ``eltwise`` to the open :func:`counting` counter,
    if any. ``inputs`` are the op's operands; those that are nodes must
    share one tape. With none, ``out`` is returned and ``backward`` is
    dropped; otherwise ``out`` is recorded on that tape under the name
    ``op`` with ``backward`` as its adjoint rule (see :meth:`Tape.record`).
    """
    counter = _COUNTER.get()
    if counter is not None:
        counter.macs += macs
        counter.eltwise += eltwise
    tape = tape_of(*inputs)
    return out if tape is None else tape.record(out, op, backward)


def tape_of(*args) -> Tape | None:
    """The unique tape among Node arguments, or None if all are plain."""
    tape = None
    for a in args:
        if isinstance(a, Node):
            if tape is None:
                tape = a.tape
            elif tape is not a.tape:
                raise ValueError("cannot mix nodes from different tapes in one op")
    return tape


def finite_diff_check(f, x: Tensor, h: float = 1e-6) -> float:
    """Max relative error between tape gradients of f and central differences.

    ``f`` maps a tensor (or node) to a scalar tensor (or node) and must be
    deterministic; ``x`` must be float64. The relative error denominator is
    floored at 1e-8 to avoid blowup where the true gradient is zero.
    """
    if x.dtype != np.float64:
        raise TypeError("finite-difference checks require float64 inputs")

    tape = Tape()
    lx = tape.leaf(x)
    out = f(lx)
    if not isinstance(out, Node):
        raise TypeError("f must build on its input so the tape can trace it")
    grad = tape.backward(out)[lx.id]
    return fd_max_rel_err(lambda t: value_of(f(t)).item(), x, grad, h)


def fd_max_rel_err(loss, at: Tensor, grad: Tensor, h: float) -> float:
    """Max relative error of ``grad`` against central differences of ``loss``.

    ``loss`` maps a tensor shaped like ``at`` to a scalar. Probes step each
    element by +h and then by -2h, in ``at``'s own dtype (two ``loss`` calls
    per element). The denominator is floored at 1e-8.
    """
    flat = at.data.reshape(-1)
    g = grad.data.reshape(-1)
    to_dtype = at.dtype.type  # exact from grad's dtype: no copy of the whole gradient
    step = to_dtype(h)
    worst = 0.0
    for i in range(flat.size):
        arr = flat.copy()
        arr[i] += step
        fp = loss(Tensor.wrap(arr.reshape(at.shape)))
        arr[i] -= 2 * step
        fm = loss(Tensor.wrap(arr.reshape(at.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite loss during finite differencing")
        fd = (fp - fm) / (2 * step)
        gi = to_dtype(g[i])
        rel = abs(fd - gi) / max(abs(gi), 1e-8)
        worst = max(worst, float(rel))
    return worst
