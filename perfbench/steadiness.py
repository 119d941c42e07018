#!/usr/bin/env python3
"""Repeat the benchmark over seeds and write perfbench/steadiness.json.

    python3 perfbench/steadiness.py

Runs ``perfbench/run.py`` with seeds 101..110 on each workload, one run at a
time, with the settings in BENCHMARK.json. For every end-to-end metric it
reports the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median, next to the bound BENCHMARK.json allows,
and the same for the unscaled values the run keeps in its result file. It
then makes one traced run per workload (seed 101) and records the shares of
the request wall time that the batch sweep, the stream builds and the
failure step take.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUNS = 10
FIRST_SEED = 101
SHARES = ("decorrelate.batch_sweep_frac", "core.stream_setup_frac", "benchmark.failure_step_frac",
          "benchmark.method_remainder_frac", "trace.uncovered_frac")


def run_once(spec: dict, name: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", name, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    print(f"{name} seed {seed} trace {trace}: {result['elapsed_s']:.1f} s, "
          f"correct={result['correct']}", flush=True)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result = run_once(spec, name, seed, 0)
            runs.append({"seed": seed, "elapsed_s": result["elapsed_s"], "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            saved = json.loads((ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace0.json").read_text())
            for key, value in saved["provenance"]["unscaled"].items():
                values.setdefault(f"unscaled.{key}", []).append(value)
        metrics = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            metrics[key] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                            "bound": bounds.get(key), "values": vals}
            print(f"  {key:24s} median {med:.5g}  spread {(q3 - q1) / med:.4f}  "
                  f"bound {bounds.get(key)}", flush=True)
        traced = run_once(spec, name, FIRST_SEED, 1)["metrics"]
        shares = {key: traced[key]["value"] for key in SHARES}
        print(f"  shares of request wall time: {shares}", flush=True)
        summary["workloads"][name] = {"runs": runs, "metrics": metrics, "trace_shares": shares}
    (ROOT / "perfbench" / "steadiness.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
