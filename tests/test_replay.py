"""The op entry hook and the gradient check's probe replay."""

import numpy as np
import pytest

from vrfnet import (
    ConvLayer,
    ConvSpec,
    GmcfBottleneck,
    GmcfConfig,
    Rng,
    Tape,
    Tensor,
    block_gradient_errors,
    build_block,
    hadamard,
)
from vrfnet import blocks, ops, tape
from vrfnet.config import block_config
from vrfnet.ops import DropoutState, dropout
from vrfnet.tape import ProbeReplay, counting


class _Unmemoized:
    """A stand-in for ProbeReplay that runs every probe forward in full."""

    def __call__(self, probe, forward, *args):
        return forward(*args)


def _count_lowerings(monkeypatch):
    """Count every conv's lowering from now on: {"depthwise": n, "im2col": n}."""
    calls = {"depthwise": 0, "im2col": 0}
    for name in calls:
        lower = getattr(ops, "_" + name)

        def spy(*args, _name=name, _lower=lower):
            calls[_name] += 1
            return _lower(*args)

        monkeypatch.setattr(ops, "_" + name, spy)
    return calls


# a small mask kernel and channel-attention ratio keep the sweeps short
_MSCF = {"mask_kernel": 3, "ca_ratio": 2}


@pytest.mark.parametrize("kind,module,shape,mode", [
    ("mscf", _MSCF, (1, 4, 3, 3), "eval"),
    ("mscf", _MSCF, (1, 4, 3, 3), "train"),
    ("gconv", {}, (1, 4, 3, 3), "eval"),
    ("gconv", {}, (1, 4, 3, 3), "train"),
    ("gmcf", {"mscf": _MSCF}, (1, 4, 3, 3), "eval"),
    ("gmcf", {"mscf": _MSCF}, (1, 4, 3, 3), "train"),
    ("gmcf", {"mscf": _MSCF}, (2, 4, 3, 3), "eval"),  # a batch of two
    ("gmcf-block", {"mscf": _MSCF, "n_bottlenecks": 2}, (1, 4, 3, 3), "eval"),
    ("gmcf-block", {"mscf": _MSCF}, (1, 4, 3, 3), "train"),
])
def test_a_replayed_sweep_keeps_every_error_bit(kind, module, shape, mode, monkeypatch):
    cfg = block_config(kind, shape[1], module)
    block = build_block(kind, cfg, Rng(60))
    x = Rng(61).tensor(shape, -2.0, 2.0)
    calls = _count_lowerings(monkeypatch)
    replayed = block_gradient_errors(block, x, mode=mode)
    replayed_convs = sum(calls.values())

    monkeypatch.setattr(blocks, "ProbeReplay", _Unmemoized)
    before = sum(calls.values())
    full = block_gradient_errors(block, x, mode=mode)
    assert {k: v.hex() for k, v in replayed.items()} == {k: v.hex() for k, v in full.items()}
    # the memo hit: else the tables would agree whatever it did
    assert replayed_convs < sum(calls.values()) - before


def _conv_layer_forward(replay, w_arr, b):
    layer = ConvLayer(ConvSpec(2, 2, 3))
    x = Rng(62).tensor((1, 2, 4, 4)).astype(np.longdouble)
    # None probes nothing, so the memo records the calls that read w
    return replay(None, layer.forward, x, {"conv.w": Tensor.wrap(w_arr[...]), "conv.b": b})


def test_a_tensor_whose_array_changed_after_its_forward_is_computed_again():
    # fd_max_rel_err writes the -h step into the array behind the +h
    # probe's tensor, then wraps it anew: the memo matches the tensor,
    # not its id or its array, so the new wrapper misses
    w = Rng(63).tensor((2, 2, 3, 3)).astype(np.longdouble).data.copy()
    b = Rng(64).tensor((1, 2, 1, 1)).astype(np.longdouble)
    replay = ProbeReplay()
    first = _conv_layer_forward(replay, w, b)
    w[0, 0, 1, 1] += 1
    second = _conv_layer_forward(replay, w, b)
    fresh = _conv_layer_forward(_Unmemoized(), w, b)
    assert not np.array_equal(first.data, second.data)
    assert np.array_equal(second.data, fresh.data)


def _nan_after(loss, probes):
    """``loss`` whose probes from the ``probes``-th on return NaN."""
    seen = []

    def probe(t):
        seen.append(None)
        value = loss(t)
        return value if len(seen) < probes else np.longdouble(np.nan)

    return probe


def _nan_param_after(loss, probes):
    """``loss`` whose probes from the ``probes``-th on are NaN tensors, so
    the forward raises inside the replay."""
    seen = []

    def probe(t):
        seen.append(None)
        return loss(t if len(seen) < probes else Tensor.wrap(np.full(t.shape, np.nan, t.dtype)))

    return probe


@pytest.mark.parametrize("fault,error", [
    (None, None),
    (_nan_after, "non-finite loss"),
    (_nan_param_after, "produced non-finite values"),
])
def test_no_replay_outlives_a_sweep(fault, error, monkeypatch):
    block = GmcfBottleneck(GmcfConfig(c=4), Rng(65))
    x = Rng(66).tensor((1, 4, 3, 3))
    if fault is not None:
        fd = blocks.fd_max_rel_err

        def faulty(loss, at, grad, h):
            # the input's probes run without the memo: a parameter's fail
            return fd(loss if at.shape == x.shape else fault(loss, 5), at, grad, h)

        monkeypatch.setattr(blocks, "fd_max_rel_err", faulty)
    if error is None:
        block_gradient_errors(block, x)
    else:
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=error):
            block_gradient_errors(block, x)
    assert tape._REPLAY.get() is None
    calls = _count_lowerings(monkeypatch)
    for _ in range(2):
        block.forward(x)
    # twice each of the four depthwise convs and five others: none was skipped
    assert calls == {"depthwise": 8, "im2col": 10}


def test_an_eval_gmcf_sweep_runs_the_depthwise_kernel_a_derived_number_of_times(monkeypatch):
    block = build_block("gmcf", block_config("gmcf", 8), Rng(67))
    x = Rng(68).tensor((1, 8, 6, 6), -2.0, 2.0)
    params = block.params()
    # the parameter groups in the order the forward reads them; a probe
    # forward of a parameter replays the convs before its group's and
    # runs the rest, and the first probe of a parameter also runs the
    # convs between the last parameter's group and its own (the memo
    # holds the forward up to the last probed group)
    order = ["mscf.scale0", "mscf.scale1", "mscf.scale2", "mscf.sa.conv", "mscf.ca.reduce",
             "mscf.ca.expand", "bn", "gconv.proj", "gconv.dw", "gconv.restore"]
    depthwise = [g in ("mscf.scale0", "mscf.scale1", "mscf.scale2", "gconv.dw") for g in order]
    expected = sum(depthwise)  # the taped forward's
    expected += 2 * x.size * sum(depthwise)  # the input's probes, every conv run
    held = 0
    for name, t in params.items():
        group = order.index(name.rsplit(".", 1)[0])
        expected += 2 * t.size * sum(depthwise[group:]) + sum(depthwise[held:group])
        held = group
    assert expected < 2 * (x.size + sum(t.size for t in params.values())) * sum(depthwise)

    calls = _count_lowerings(monkeypatch)
    block_gradient_errors(block, x)
    assert calls["depthwise"] == expected


def test_a_replay_refuses_to_run_inside_counting():
    # a hit skips emit, which counts an op's cost
    layer = ConvLayer(ConvSpec(2, 2, 1))
    x = Rng(69).tensor((1, 2, 2, 2))
    with counting(), pytest.raises(RuntimeError, match="counting"):
        ProbeReplay()(None, layer.forward, x)


def test_a_taped_call_under_a_replay_records_a_node_every_time():
    # a Node argument neither reads nor writes the memo
    record = Tape()
    a = record.leaf(Rng(70).tensor((1, 2, 2, 2)))
    b = Rng(71).tensor((1, 2, 2, 2))
    replay = ProbeReplay()
    nodes = [replay(None, hadamard, a, b) for _ in range(2)]
    assert nodes[0] is not nodes[1] and len(record) == 3


def test_an_op_takes_keyword_arguments_under_a_replay_and_outside_it():
    x = Rng(72).tensor((1, 2, 2, 2))
    state = DropoutState(0.5, Rng(73))
    assert dropout(x, state, mode="eval") is x
    assert ProbeReplay()(None, lambda: dropout(x, state, mode="eval")) is x

