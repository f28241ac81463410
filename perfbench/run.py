"""vrfnet benchmark: one workload, one process, one BLAS thread.

    python3 perfbench/run.py --workload fwd-gmcf-c64-hw80 --seed 1 --seconds 12 --trace 0

Run from the repository root. It imports ``vrfnet`` from ``src/`` as a
library, builds the workload's block and inputs from ``--seed``, times
steps in a closed loop for ``--seconds`` and checks every result outside
the timed window. After every step it times a fixed numpy kernel
(:class:`HostGauge`) and reports step and set-up times scaled to a fixed
host speed. Human-readable lines (environment, every metric with its
unit, failed checks) come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing, in ``WORKERS`` processes that share ``--seconds``.
``--trace 1`` runs in one process, alternates untraced and traced steps,
reports the per-layer metrics and ``trace.overhead_frac``, and writes the
spans to ``perfbench/results/``. Exit codes: 0 measured (check
``correct``), 2 usage error or no vrfnet to import.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
THREAD_VARS = ("VRF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
# An untraced run is split over this many worker processes, one after
# another, and their metrics averaged: besides the host's drift, which
# the gauge follows, a process has a speed of its own (up to 10% apart
# on the gradcheck workload with the gauge's speed unchanged).
WORKERS = 4
# Host-normalized times are scaled as if the gauge kernel took this long,
# its time in an otherwise idle process on a 2-vCPU Xeon host.
GAUGE_NOMINAL_MS = 3.4
# Metrics printed and saved but not in BENCHMARK.json: raw (not
# host-normalized) times and rates, which follow the shared host's speed
# as it drifts by up to 40% between sets of runs; p90 needs 100 steps;
# images exist only on the forward and train workloads, probes only on
# gradcheck; the failed share is 0 when the program is correct
# (``failed`` carries it).
EXTRA_UNITS = {"step_ms.p50": "ms", "step_ms.p90": "ms", "step_ms.mean": "ms",
               "images_per_s": "1/s", "probes_per_s": "1/s", "setup_s.raw": "s",
               "gauge_ms": "ms", "ops_failed_frac": "frac", "steps": "count",
               "trace.steps": "count", "minflt_per_step": "count", "sys_ms_per_step": "ms"}


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in THREAD_VARS:
        os.environ[var] = "1"


class HostGauge:
    """A fixed numpy kernel, independent of vrfnet, that gauges host speed.

    The host is shared: its speed drifts by up to 40% between sets of
    runs and between processes, and a step slows with it by about as
    much as this kernel does (over ten fwd-gmcf-c64-hw80 runs the ratio
    of the two spread 0.02, the raw step time 0.17). Timing the kernel
    right after every step and dividing lets a run report times at a
    fixed host speed. The kernel mixes the three kinds of work a step does: an f32
    matmul (BLAS) and f32 elementwise passes over 4 MiB arrays, both
    larger than L2, and a loop of small f64 ops (per-call overhead). Its
    large results go to preallocated buffers, so its time does not depend
    on how the step left the allocator.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((64, 576), dtype=np.float32)
        self.b = rng.standard_normal((576, 1600), dtype=np.float32)
        self.c = np.empty((64, 1600), np.float32)
        self.x, self.y, self.z = (rng.standard_normal((64, 16384), dtype=np.float32)
                                  for _ in range(3))
        self.s = [rng.standard_normal((8, 6, 6)) for _ in range(3)]
        for _ in range(3):
            self.run()

    def run(self) -> int:
        """Run the kernel once; its wall time in ns."""
        np, s, z = self.np, self.s, self.z
        t0 = time.perf_counter_ns()
        np.matmul(self.a, self.b, out=self.c)
        np.multiply(self.x, self.y, out=z)
        np.add(z, self.x, out=z)
        np.maximum(z, 0, out=z)
        for _ in range(400):
            float((s[0] * s[1] + s[2]).sum())
        return time.perf_counter_ns() - t0


def import_vrfnet():
    """Import vrfnet from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vrfnet

    if Path(vrfnet.__file__).resolve().parent.parent != src:
        raise ImportError(f"vrfnet imported from {vrfnet.__file__}, not from {src}")
    return vrfnet


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "gauge_nominal_ms": GAUGE_NOMINAL_MS,
    }


class Checks:
    """Correctness tally; feeds ``attempted``, ``failed`` and ops_failed_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}")

    def run(self, name: str, fn, *args) -> None:
        """Record ``fn(*args)`` (a reason or None); an exception fails it."""
        try:
            reason = fn(*args)
        except Exception as exc:  # a crashing check is a failed check
            reason = f"raised {type(exc).__name__}: {exc}"
        self.record(name, reason)


def _step(workload, vrf, state):
    """One timed step; an exception is returned in place of the result."""
    try:
        return workload.step(vrf, state), None
    except Exception as exc:
        return None, f"step raised {type(exc).__name__}: {exc}"


def run_workload(vrf, workload, seed: int, seconds: float, trace: bool, import_s: float,
                 min_steps: int = 2, lead: bool = True) -> dict:
    """Set up, measure and check one workload; returns every metric.

    Host-normalized times (``step_ms.norm``, ``setup_s``) are the raw
    times scaled by ``GAUGE_NOMINAL_MS`` over the mean time of the
    ``workload.gauge_runs`` gauge runs right after each step. ``setup_s``
    is ``import_s`` plus the median build, input generation and warm-up
    over ``SETUP_REPS`` repetitions, scaled by the median gauge time
    between them. Only the ``lead`` process of a
    run measures peak memory and runs the run-level checks, which take
    seconds; every process checks every step.
    """
    import copy
    import tracemalloc

    from layertrace import LayerTracer

    checks = Checks()
    gauge = HostGauge()
    builds, setup_gauge = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = workload.setup(vrf, seed)
        checks.run("warm-up", workload.warmup, vrf, state)
        builds.append(time.perf_counter() - t0)
        setup_gauge.append(gauge.run() / 1e6)
    gc.collect()
    if lead:
        tracemalloc.start()
    ref, err = _step(workload, vrf, state)
    if lead:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if err:
        checks.record("reference step", err)
    else:
        checks.run("reference step", workload.check_step, state, ref, None)

    tracer = LayerTracer(vrf, state["block"]) if trace else None
    untraced, traced, gauged = [], [], []
    gc.collect()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        on = trace and i % 2 == 1
        if on:
            tracer.install()
            tracer.begin_step()
        t0 = time.perf_counter_ns()
        out, err = _step(workload, vrf, state)
        dt = time.perf_counter_ns() - t0
        if on:
            tracer.uninstall()
        (traced if on else untraced).append(dt)
        # after traced steps too, so that every step follows a gauge run
        gauge_ns = sum(gauge.run() for _ in range(workload.gauge_runs)) / workload.gauge_runs
        if not on:
            gauged.append(gauge_ns)
        if err:
            checks.record(f"step {i}", err)
        else:
            checks.run(f"step {i}{' traced' if on else ''}", workload.check_step, state, out, ref)
        i += 1
        if (time.perf_counter() >= deadline and len(untraced) >= min_steps
                and (not trace or len(traced) >= min_steps)):
            break
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    if lead:
        try:
            for name, reason in workload.check_once(vrf, state).items():
                checks.record(name, reason)
        except Exception as exc:
            checks.record("run-level checks", f"raised {type(exc).__name__}: {exc}")

    step_s = sum(untraced) / 1e9
    setup_raw = import_s + statistics.median(builds)
    metrics = {
        "step_ms.norm": sum(untraced) / sum(gauged) * GAUGE_NOMINAL_MS,
        "setup_s": setup_raw * GAUGE_NOMINAL_MS / statistics.median(setup_gauge),
        "setup_s.raw": setup_raw,
        "step_ms.mean": step_s * 1e3 / len(untraced),
        "step_ms.p50": statistics.median(untraced) / 1e6,
        "gauge_ms": sum(gauged) / len(gauged) / 1e6,
        "steps": len(untraced),
        "minflt_per_step": (usage1.ru_minflt - usage0.ru_minflt) / i,
        "sys_ms_per_step": (usage1.ru_stime - usage0.ru_stime) * 1e3 / i,
    }
    if lead:
        metrics["peak_mem_mib"] = peak / float(1 << 20)
    if len(untraced) >= 100:
        metrics["step_ms.p90"] = statistics.quantiles(untraced, n=10)[8] / 1e6
    if workload.probes(state):
        metrics["probes_per_s"] = workload.probes(state) * len(untraced) / step_s
    else:
        metrics["images_per_s"] = workload.shape[0] * len(untraced) / step_s

    extra = {}
    if trace:
        expected = workload.expected_conv_macs(vrf, state)
        traced_macs = tracer.conv_macs_total()
        checks.record("traced conv MACs == count_macs",
                      None if traced_macs == expected * tracer.steps else
                      f"traced {traced_macs / tracer.steps:.0f} per step, count_macs {expected}")
        got, want = tracer.counts["probes"], workload.probes(state) * tracer.steps
        checks.record("traced probe count", None if got == want else f"{got} != {want}")

        def traced_vs_untraced():
            a = {**state, "block": copy.deepcopy(state["block"])}
            b = {**state, "block": copy.deepcopy(state["block"])}
            out_a = workload.step(vrf, a)
            with LayerTracer(vrf, b["block"]):
                out_b = workload.step(vrf, b)
            return None if workload.same_result(out_a, out_b) else "results differ"

        if not workload.deterministic:
            # deterministic workloads already compared every traced step
            # with the untraced reference step
            checks.run("traced == untraced (bit-identical)", traced_vs_untraced)
        step_traced = statistics.median(traced)
        metrics.update(tracer.layer_metrics(step_traced))
        metrics["trace.overhead_frac"] = step_traced / statistics.median(untraced) - 1.0
        metrics["trace.steps"] = len(traced)
        extra = {"layer_paths": tracer.layer_paths(),
                 "span_fields": ["step", "id", "parent", "name", "path", "start_ns", "end_ns"],
                 "spans": tracer.spans}

    failed = len(checks.failures)
    metrics["ops_failed_frac"] = failed / checks.attempted
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": checks.attempted, "failed": failed, "failures": checks.failures,
            "metrics": metrics, **extra}


def units(bench: dict) -> dict:
    """Metric name -> unit: BENCHMARK.json's metrics plus the printed extras."""
    out = dict(EXTRA_UNITS)
    out.update((m["name"], m["unit"]) for kind in ("end_to_end", "per_layer") for m in bench[kind])
    return out


def result_line(result: dict, specs) -> str:
    """The contract's last line: exactly the metrics of ``specs``."""
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in specs}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_here(args) -> dict | None:
    """Import vrfnet and run the workload in this process; None if vrfnet
    cannot be imported."""
    pin_threads()
    t0 = time.perf_counter()
    try:
        vrf = import_vrfnet()
    except ImportError as exc:
        print(f"error: cannot import vrfnet from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    worker = args.worker is not None
    return run_workload(vrf, WORKLOADS[args.workload], args.seed,
                        args.seconds / WORKERS if worker else args.seconds, bool(args.trace),
                        import_s, lead=args.worker in (None, 0))


def measure_in_workers(args) -> dict | None:
    """Run ``WORKERS`` worker processes one after another and merge their
    results; None if one of them fails."""
    results = []
    for k in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--worker", str(k)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode:
            print(f"error: worker {k} exited with {proc.returncode}", file=sys.stderr)
            sys.stderr.write(proc.stderr)
            return None
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return merge(results)


def merge(results: list) -> dict:
    """One result from the workers': checks and steps add up, peak memory
    comes from the lead worker, setup time is the median and every other
    metric the mean over workers (a metric that not every worker has is
    dropped)."""
    out = {k: results[0][k] for k in ("workload", "seed", "trace")}
    out["seconds"] = sum(r["seconds"] for r in results)
    out["attempted"] = sum(r["attempted"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["failures"] = [f"worker {k}: {f}" for k, r in enumerate(results) for f in r["failures"]]
    metrics = {}
    for name, lead_value in results[0]["metrics"].items():
        values = [r["metrics"].get(name) for r in results]
        if name == "peak_mem_mib":
            metrics[name] = lead_value
        elif None in values:
            continue
        elif name == "steps":
            metrics[name] = sum(values)
        elif name.startswith("setup_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = statistics.fmean(values)
    metrics["ops_failed_frac"] = out["failed"] / out["attempted"]
    out["metrics"] = metrics
    out["workers"] = [r["metrics"] for r in results]
    return out


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run share k of an untraced run and print its result
    parser.add_argument("--worker", type=int, choices=range(WORKERS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        result = measure_here(args)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0
    result = measure_here(args) if args.trace else measure_in_workers(args)
    if result is None:
        return 2
    if "numpy" not in sys.modules:
        pin_threads()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    result["env"] = env
    unit_of = units(bench)
    result["units"] = {name: unit_of[name] for name in result["metrics"]}
    for name, value in result["metrics"].items():
        print(f"metric {args.workload} {name} {value!r} {unit_of[name]}")
    for failure in result["failures"]:
        print(f"check-failed {failure}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")

    print(result_line(result, bench["per_layer" if args.trace else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
