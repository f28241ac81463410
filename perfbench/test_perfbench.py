"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from layertrace import LayerTracer
from workloads import WORKLOADS

vrf = run.import_vrfnet()
BENCH = run.load_benchmark()


def _run(name, seed, trace=True):
    return run.run_workload(vrf, WORKLOADS[name], seed, 0.0, trace, 0.0, min_steps=1)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_not_metric_names(name):
    w = WORKLOADS[name]
    a, b, a2 = w.setup(vrf, 1), w.setup(vrf, 2), w.setup(vrf, 1)
    assert not np.array_equal(a["x"].data, b["x"].data)
    assert np.array_equal(a["x"].data, a2["x"].data)
    pa, pb = a["block"].params(), b["block"].params()
    assert any(not np.array_equal(pa[k].data, pb[k].data) for k in pa)

    r1, r2 = _run(name, 1), _run(name, 2)
    assert r1["failures"] == [] and r2["failures"] == []
    assert r1["metrics"].keys() == r2["metrics"].keys()
    assert set(r1["metrics"]) <= set(run.units(BENCH))
    for kind in ("end_to_end", "per_layer"):
        for r in (r1, r2):
            line = json.loads(run.result_line(r, BENCH[kind]))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in BENCH[kind]]
            assert line["correct"] is True and line["failed"] == 0


def test_failing_check_reports_nonzero_failed_frac(monkeypatch):
    orig = vrf.blocks.sigmoid_gate
    noise = np.random.default_rng(0)

    def drifting_gate(x):
        out = orig(x)
        return vrf.Tensor(out.data * (1 + 1e-3 * noise.random()))

    monkeypatch.setattr(vrf.blocks, "sigmoid_gate", drifting_gate)
    r = run.run_workload(vrf, WORKLOADS["fwd-gmcf-c64-hw80"], 1, 0.0, False, 0.0, min_steps=3)
    assert r["failed"] > 0
    assert r["metrics"]["ops_failed_frac"] > 0
    assert any("oracle" in f for f in r["failures"])
    assert not json.loads(run.result_line(r, BENCH["end_to_end"]))["correct"]


def test_crashing_step_is_a_failed_check_not_a_crash(monkeypatch):
    def broken(a, b):
        raise FloatingPointError("injected")

    monkeypatch.setattr(vrf.blocks, "hadamard", broken)
    r = run.run_workload(vrf, WORKLOADS["fwd-gmcf-c64-hw80"], 1, 0.0, False, 0.0, min_steps=2)
    assert r["failed"] == r["attempted"] > 0
    assert r["metrics"]["ops_failed_frac"] == 1.0
    line = json.loads(run.result_line(r, BENCH["end_to_end"]))
    assert line["correct"] is False and line["failed"] == r["failed"]


def test_merge_adds_checks_and_averages_worker_metrics():
    r = _run("fwd-gmcf-c64-hw80", 1, trace=False)
    slow = {**r, "failed": 1, "failures": ["x"],
            "metrics": {k: 2 * v for k, v in r["metrics"].items() if k != "gauge_ms"}}
    other = run.run_workload(vrf, WORKLOADS["fwd-gmcf-c64-hw80"], 1, 0.0, False, 0.0,
                             min_steps=1, lead=False)
    assert "peak_mem_mib" not in other["metrics"]
    assert other["attempted"] == r["attempted"] - 1  # no oracle check
    m = run.merge([r, slow, r])
    assert m["attempted"] == 3 * r["attempted"] and m["failed"] == 1
    assert m["failures"] == ["worker 1: x"]
    assert m["metrics"]["ops_failed_frac"] == 1 / m["attempted"]
    assert m["metrics"]["steps"] == 4 * r["metrics"]["steps"]
    assert m["metrics"]["step_ms.norm"] == pytest.approx(4 / 3 * r["metrics"]["step_ms.norm"])
    assert m["metrics"]["setup_s"] == r["metrics"]["setup_s"]
    assert m["metrics"]["peak_mem_mib"] == r["metrics"]["peak_mem_mib"]
    assert "gauge_ms" not in m["metrics"]


def test_untraced_run_merges_its_workers():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-gmcf-c32-hw40",
         "--seed", "1", "--seconds", "0.4", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["attempted"] > 0
    assert list(line["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    full = json.loads((run.RESULTS / "train-gmcf-c32-hw40-seed1-trace0.json").read_text())
    assert len(full["workers"]) == run.WORKERS
    assert full["metrics"]["steps"] == sum(w["steps"] for w in full["workers"])


def _small_gmcf_block():
    cfg = vrf.block_config("gmcf-block", 16)
    return vrf.build_block("gmcf-block", cfg, vrf.Rng(3), np.float32)


def test_tracer_restores_originals_and_changes_no_result():
    block = _small_gmcf_block()
    x = vrf.Rng(4).tensor((2, 16, 9, 9), dtype=np.float32)
    before = {(o, a): o.__dict__[a] for o, a in [
        (vrf.layers.ParamBlock, "_conv"), (vrf.blocks, "hadamard"), (vrf.attention, "relu"),
        (vrf.blocks.GmcfBlock, "forward"), (vrf.tape.Tape, "record"),
        (vrf.tensor.Tensor, "wrap"), (vrf.blocks, "block_gradient_errors")]}
    plain = block.forward(x)
    tracer = LayerTracer(vrf, block)
    with tracer:
        tracer.begin_step()
        traced = block.forward(x)
    assert all(o.__dict__[a] is f for (o, a), f in before.items())
    assert np.array_equal(plain.data, traced.data)
    assert tracer.conv_macs_total() == vrf.count_macs(block, x.shape)

    paths = {path for _name, path in tracer.agg}
    assert {"cv1", "cv2", "m0.mscf.scale0", "m0.gconv.dw", "m0.mscf.sa.conv",
            "m0.mscf.ca", "(root)"} <= paths
    for calls, incl, self_ns, _macs, _bytes in tracer.agg.values():
        assert calls > 0 and 0 <= self_ns <= incl
    by_id = {s[1]: s for s in tracer.spans}
    for step, sid, parent, name, path, start, end in tracer.spans:
        assert start <= end
        if parent:
            assert by_id[parent][5] <= start and end <= by_id[parent][6]


def test_tracer_times_tape_backward_by_op():
    w = WORKLOADS["train-gmcf-c32-hw40"]
    state = w.setup(vrf, 1)
    tracer = LayerTracer(vrf, state["block"])
    with tracer:
        tracer.begin_step()
        w.step(vrf, state)
    names = tracer.by_name()
    assert tracer.counts["tape_nodes"] > 0 and tracer.counts["tape_saved_bytes"] > 0
    inner = sum(names["tape.backward." + k][1] for k in ("conv2d", "eltwise", "batch_norm"))
    assert 0 < inner <= names["tape.backward"][1]
    assert names["tape.backward.other"][0] > 0  # activation and dropout adjoints


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fwd-gmcf-c64-hw80",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "vrfnet" in proc.stderr
