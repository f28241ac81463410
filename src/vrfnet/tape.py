"""Reverse-mode differentiation tape.

Ops in :mod:`vrfnet.eltwise` and :mod:`vrfnet.ops` accept either plain
:class:`~vrfnet.tensor.Tensor` values or :class:`Node` handles. With
plain tensors they just compute; with nodes they also append an op
record (saved activations plus an adjoint rule) to the node's
:class:`Tape`. Records are appended in execution order, so the tape is
topologically sorted by construction and :meth:`Tape.backward` visits
each record exactly once, in reverse.

Adjoints are accumulated in the tensor's own dtype. The accumulation
order is deterministic: reverse execution order across nodes, and for
each op the input order as written in its adjoint rule.

A tape is differentiated once. :meth:`Tape.backward` frees the graph as
it walks it: it takes each op's adjoint off the tape before running the
op's rule, and drops the rule, with the activations it saved, once it
has run. Only the leaf adjoints live until they are returned.

The first array an op hands for an input becomes that input's adjoint
as it is: it may be a view (of the op's own adjoint, or a read-only
broadcast), and the tape never writes into it. The tape owns the arrays
it allocates: the sum that a second contribution forms, and the
zero-filled adjoint that a channel range (``slice_channels``) is
written into. Every later contribution is added into an owned adjoint
in place, with the same bits as the out-of-place sum. An owned leaf
adjoint is returned without a copy. A contribution whose shape is not
its target's raises :class:`~vrfnet.tensor.ShapeError`.

The ops that do work also report their cost to the :func:`counting`
context, if one is open (see :mod:`vrfnet.profiler` for the cost table).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
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


def tally(macs: int = 0, eltwise: int = 0) -> None:
    """Report one op's cost to the open :func:`counting` context, if any."""
    counter = _COUNTER.get()
    if counter is not None:
        counter.macs += macs
        counter.eltwise += eltwise


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
        must not write into ``grad`` or into an array it has handed on."""
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
        owned: set[int] = set()  # ids whose adjoint the tape allocated

        def accumulate(ref, grad: np.ndarray, channels: slice | None = None) -> None:
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
                elif ref.id in owned:
                    np.add(cur, grad, out=cur)
                else:
                    adjoints[ref.id] = cur + grad
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


def value_of(x) -> Tensor:
    """Unwrap a Node to its tensor; pass plain tensors through."""
    return x.tensor if isinstance(x, Node) else x


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
    g = grad.data.reshape(-1).astype(at.dtype)
    step = at.dtype.type(h)
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
        rel = abs(fd - g[i]) / max(abs(g[i]), 1e-8)
        worst = max(worst, float(rel))
    return worst
