"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/collect.py > bench/baseline.json

Each run is a fresh ``bench/run.py`` process with BENCHMARK.json's
run_seconds, one workload at a time, for every workload BENCHMARK.json
names.  The output gives, per workload and metric, the median, the
quartiles (statistics.quantiles, n=4) and every value in seed order:
end-to-end metrics from seeds 1-10, per-layer metrics from a traced run
with seed 1.  A run that reports incorrect output stops the collection.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1]


def summary(values: list[float], unit: str) -> dict:
    out = {"unit": unit, "median": statistics.median(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / out["median"] if out["median"] else None)
    out["values"] = values
    return out


def collect(workloads, seeds, trace: bool, seconds: int) -> dict:
    results = {}
    for workload in workloads:
        metrics: dict[str, tuple[str, list]] = {}
        failed = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "1" if trace else "0"],
                cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout[-3000:]}")
            failed.append(result["failed"])
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        results[workload] = {name: summary(values, unit) for name, (unit, values) in metrics.items()}
        results[workload]["failed"] = failed
    return results


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "seeds": SEEDS,
        "trace_seeds": TRACE_SEEDS,
        "end_to_end": collect(workloads, SEEDS, False, seconds),
        "per_layer": collect(workloads, TRACE_SEEDS, True, seconds),
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
