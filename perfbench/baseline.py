"""Run the benchmark on every workload in two sets of ten seeds and record a baseline.

    python3 perfbench/baseline.py

Each run is one ``run.py`` process, one after another; set 1 uses seeds
100-109 and set 2 seeds 200-209, and set 1 runs every workload before
set 2 starts. For every workload and every metric of the untraced runs
it records each set's values, median and quartile spread
(``(q3 - q1) / median``, the quartiles of ``statistics.quantiles(n=4)``).
For the end-to-end metrics of BENCHMARK.json it adds the bound and the
shift of set 2's median against set 1's (positive is worse). It adds the
per-layer metrics and layer paths of one traced run per workload (seed
100) and the environment, and writes it all to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(contract result line, full result file) of one benchmark process."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = ROOT / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(full.read_text())


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    seeds = [list(range(100 * k, 100 * k + RUNS)) for k in range(1, SETS + 1)]
    values = {w: [{} for _ in seeds] for w in workloads}
    correct = dict.fromkeys(workloads, True)
    env, units = {}, {}
    for k, set_seeds in enumerate(seeds):
        for workload in workloads:
            for seed in set_seeds:
                line, full = one_run(workload, seed, bench["run_seconds"], 0)
                correct[workload] &= line["correct"]
                env[workload] = full["env"]
                units.update(full["units"])
                for name, value in full["metrics"].items():
                    values[workload][k].setdefault(name, []).append(value)
            for name in gated:
                s = summary(values[workload][k][name])
                print(f"set {k + 1} {workload} {name} median {s['median']:.6g} "
                      f"spread {s['spread']:.4f}", flush=True)

    baseline = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        row = {"end_to_end": {}}
        for name in values[workload][0]:
            sets = [summary(v[name]) for v in values[workload] if len(v.get(name, ())) > 1]
            if len(sets) < SETS:
                continue
            entry = {"unit": units[name], "sets": sets}
            if name in gated:
                m = gated[name]
                first, last = sets[0]["median"], sets[-1]["median"]
                shift = (last - first) / first
                entry["bound"] = m["bound"]
                entry["shift"] = shift if m["better"] == "lower" else -shift
            row["end_to_end"][name] = entry
        line, full = one_run(workload, seeds[0][0], bench["run_seconds"], 1)
        row["correct"] = correct[workload] and line["correct"]
        row["per_layer"] = {k: m["value"] for k, m in line["metrics"].items()}
        row["layer_paths"] = full["layer_paths"]
        row["env"] = env[workload]
        baseline["workloads"][workload] = row
        for name in gated:
            e = row["end_to_end"][name]
            spreads = " ".join(f"{s['spread']:.4f}" for s in e["sets"])
            print(f"{workload} {name} spreads {spreads} shift {e['shift']:+.4f} "
                  f"bound {e['bound']} correct {row['correct']}", flush=True)
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
