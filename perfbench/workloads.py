"""The benchmark's four workloads: inputs from a seed, one timed step,
and the correctness checks that run outside the timed window.

Every workload is a closed loop in one process: the next step starts
when the previous one returns. A check returns ``None`` when it passes
and a one-line reason when it fails.
"""

from __future__ import annotations

import numpy as np

# the acceptance suite's fixed tolerances (tests/test_acceptance.py)
GRAD_TOL = 1e-5
ORACLE_TOL = 1e-6
# central-difference step of the train workload's directional derivative:
# small enough that the channel-max and relu kinks are almost never within
# reach, large enough that f64 roundoff stays near 1e-6 relative
DIRECTIONAL_H = 1e-8


def sub_seed(seed: int, tag: int) -> int:
    """An independent 64-bit stream seed per (workload seed, purpose)."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


def _nonfinite(name, arr) -> str | None:
    return None if np.isfinite(arr).all() else f"{name} has non-finite values"


class Workload:
    name = ""
    why = ""
    dtype = np.float32
    shape = (1, 1, 1, 1)
    # every step returns the same result, so each is compared bit for bit
    # with the untraced reference step
    deterministic = True
    # host-gauge runs after each step: enough that the gauge's own noise
    # (a few percent per run) averages out over a run
    gauge_runs = 1

    def setup(self, vrf, seed: int) -> dict:
        raise NotImplementedError

    def warmup(self, vrf, state: dict) -> None:
        for _ in range(2):
            self.step(vrf, state)

    def step(self, vrf, state: dict):
        raise NotImplementedError

    def probes(self, state: dict) -> int:
        """Finite-difference probe forwards per step."""
        return 0

    def check_step(self, state: dict, out, ref) -> str | None:
        """Check one step's result; ``ref`` is the untimed reference step's."""
        raise NotImplementedError

    def check_once(self, vrf, state: dict) -> dict:
        """Run-level checks: name -> reason or None."""
        return {}

    def expected_conv_macs(self, vrf, state: dict) -> int:
        """Conv MACs of one step by the analytic profiler."""
        return vrf.count_macs(state["block"], self.shape)


class ForwardWorkload(Workload):
    """Eval-mode forward of one block at a fixed f32 input."""

    def __init__(self, name, kind, c, shape, oracle_hw, why):
        self.name, self.kind, self.c, self.shape = name, kind, c, shape
        self.oracle_hw = oracle_hw
        self.why = why

    def setup(self, vrf, seed):
        cfg = vrf.block_config(self.kind, self.c)
        block = vrf.build_block(self.kind, cfg, vrf.Rng(sub_seed(seed, 1)), self.dtype)
        x = vrf.Rng(sub_seed(seed, 2)).tensor(self.shape, -1.0, 1.0, self.dtype)
        return {"seed": seed, "cfg": cfg, "block": block, "x": x}

    def step(self, vrf, state):
        return state["block"].forward(state["x"], mode="eval")

    def check_step(self, state, out, ref):
        if out.shape != self.shape:
            return f"output shape {out.shape} != {self.shape}"
        bad = _nonfinite("output", out.data)
        if bad:
            return bad
        if ref is not None and not np.array_equal(out.data, ref.data):
            return "output differs from the reference step's"
        return None

    def check_once(self, vrf, state):
        """Fast path against the scalar-loop oracle at the full channel
        count on a reduced spatial size."""
        shape = (1, self.c, self.oracle_hw, self.oracle_hw)
        x = vrf.Rng(sub_seed(state["seed"], 3)).tensor(shape, -1.0, 1.0, self.dtype)
        block = state["block"]
        fast = block.forward(x, mode="eval")
        ref = vrf.oracle_block(self.kind, state["cfg"], x, block.params(), block.buffers(), "eval")
        diff = float(np.abs(fast.data.astype(np.float64) - ref.data).max())
        ok = diff < ORACLE_TOL
        return {f"oracle {self.kind} {'x'.join(map(str, shape))}":
                None if ok else f"max abs diff {diff:.3e} >= {ORACLE_TOL}"}


class TrainWorkload(Workload):
    """Tape forward in train mode, a weighted-sum loss, Tape.backward."""

    name = "train-gmcf-c32-hw40"
    why = ("tape forward plus backward through a train-mode GMCF bottleneck with "
           "dropout 0.1 at both sites: recording, saved activations, BN stats")
    shape = (1, 32, 40, 40)
    c = 32
    p_drop = 0.1
    deterministic = False  # fresh dropout masks every step

    def _block(self, vrf, seed, dtype, dropout_seed):
        cfg = vrf.GmcfConfig(c=self.c, dropout=self.p_drop,
                             gconv=vrf.GconvConfig(c=self.c, dropout=self.p_drop))
        return vrf.GmcfBottleneck(cfg, vrf.Rng(sub_seed(seed, 1)), dtype,
                                  dropout_rng=vrf.Rng(dropout_seed))

    def setup(self, vrf, seed):
        return {
            "seed": seed,
            "block": self._block(vrf, seed, self.dtype, sub_seed(seed, 4)),
            "x": vrf.Rng(sub_seed(seed, 2)).tensor(self.shape, -1.0, 1.0, self.dtype),
            "r": vrf.Rng(sub_seed(seed, 5)).tensor(self.shape, -1.0, 1.0, self.dtype),
        }

    @staticmethod
    def _loss_and_grads(vrf, block, x, r):
        tape = vrf.Tape()
        xn = tape.leaf(x, "input")
        pn = {k: tape.leaf(t, k) for k, t in block.params().items()}
        loss = vrf.sum_all(vrf.hadamard(block.forward(xn, pn, "train"), r))
        grads = tape.backward(loss)
        out = {"input": grads[xn.id]}
        out.update((k, grads[n.id]) for k, n in pn.items())
        return loss.tensor, out

    def step(self, vrf, state):
        return self._loss_and_grads(vrf, state["block"], state["x"], state["r"])

    def check_step(self, state, out, ref):
        loss, grads = out
        bad = _nonfinite("loss", loss.data)
        if bad:
            return bad
        shapes = {"input": state["x"].shape}
        shapes.update((k, t.shape) for k, t in state["block"].params().items())
        if set(grads) != set(shapes):
            return "gradient names differ from the leaves"
        for k, g in grads.items():
            if g.shape != shapes[k]:
                return f"gradient {k} has shape {g.shape}, leaf {shapes[k]}"
            bad = _nonfinite(f"gradient {k}", g.data)
            if bad:
                return bad
        return None

    def same_result(self, a, b) -> bool:
        """Bitwise equality of two steps' loss and gradients."""
        return (np.array_equal(a[0].data, b[0].data) and a[1].keys() == b[1].keys()
                and all(np.array_equal(a[1][k].data, b[1][k].data) for k in a[1]))

    def check_once(self, vrf, state):
        """Tape directional derivative against an f64 central difference.

        Every evaluation builds a fresh f64 block from the same seeds, so
        each one draws the same dropout masks; train-mode batch norm
        reads batch statistics only, so the function is deterministic.
        """
        seed = state["seed"]
        drop_seed = sub_seed(seed, 6)
        x = state["x"].astype(np.float64)
        r = state["r"].astype(np.float64)
        dirs = vrf.Rng(sub_seed(seed, 7))
        block = self._block(vrf, seed, np.float64, drop_seed)
        vx = dirs.uniform(x.shape)
        vp = {k: dirs.uniform(t.shape) for k, t in block.params().items()}
        _, grads = self._loss_and_grads(vrf, block, x, r)
        tape_dd = float((grads["input"].data * vx).sum()
                        + sum((grads[k].data * v).sum() for k, v in vp.items()))

        def loss_at(t):
            block = self._block(vrf, seed, np.float64, drop_seed)
            params = {k: vrf.Tensor(p.data + t * vp[k]) for k, p in block.params().items()}
            y = block.forward(vrf.Tensor(x.data + t * vx), params, "train")
            return float((y.data * r.data).sum())

        fd_dd = (loss_at(DIRECTIONAL_H) - loss_at(-DIRECTIONAL_H)) / (2 * DIRECTIONAL_H)
        rel = abs(fd_dd - tape_dd) / max(abs(tape_dd), 1e-8)
        return {"train directional derivative f64":
                None if rel < GRAD_TOL else f"rel err {rel:.3e} >= {GRAD_TOL}"}


class GradcheckWorkload(Workload):
    """One block_gradient_errors sweep per step (the `vrf gradcheck` shape)."""

    name = "gradcheck-gmcf-c8-hw6"
    why = ("block_gradient_errors on an eval GMCF bottleneck, f64 (1,8,6,6): 2,142 "
           "extended-precision probe forwards per sweep, per-call overhead bound")
    dtype = np.float64
    shape = (1, 8, 6, 6)
    # only about twelve sweeps in an untraced run
    gauge_runs = 40

    def setup(self, vrf, seed):
        cfg = vrf.block_config("gmcf", self.shape[1])
        block = vrf.build_block("gmcf", cfg, vrf.Rng(sub_seed(seed, 1)), self.dtype)
        x = vrf.Rng(sub_seed(seed, 2)).tensor(self.shape, -2.0, 2.0, self.dtype)
        return {"seed": seed, "block": block, "x": x}

    def warmup(self, vrf, state):
        block, x = state["block"], state["x"]
        TrainWorkload._loss_and_grads(vrf, block, x, x)
        fd = {k: t.astype(np.longdouble) for k, t in block.params().items()}
        for _ in range(2):
            block.forward(x.astype(np.longdouble), fd, "eval")

    def step(self, vrf, state):
        return vrf.blocks.block_gradient_errors(state["block"], state["x"], mode="eval")

    def probes(self, state) -> int:
        """Two central-difference probes per input and parameter element."""
        n = state["x"].size + sum(t.size for t in state["block"].params().values())
        return 2 * n

    def expected_conv_macs(self, vrf, state):
        # the tape forward plus every probe forward
        return (self.probes(state) + 1) * vrf.count_macs(state["block"], self.shape)

    def check_step(self, state, out, ref):
        worst = max(out, key=out.get)
        if not out[worst] < GRAD_TOL:
            return f"{worst} rel err {out[worst]:.3e} >= {GRAD_TOL}"
        if ref is not None and out != ref:
            return "errors differ from the reference sweep's"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        ForwardWorkload(
            "fwd-gmcf-c64-hw80", "gmcf", 64, (1, 64, 80, 80), 12,
            "MSCF-heavy eval forward, f32 (1,64,80,80): dilated depthwise convs and "
            "eltwise ops dominate; im2col buffers overflow L2"),
        ForwardWorkload(
            "fwd-gmcfblock-c256-hw20", "gmcf-block", 256, (4, 256, 20, 20), 4,
            "channel-heavy eval forward of a gmcf-block, f32 (4,256,20,20): pointwise "
            "convs take ~35% of a step, against ~10% on fwd-gmcf-c64-hw80"),
        TrainWorkload(),
        GradcheckWorkload(),
    )
}
