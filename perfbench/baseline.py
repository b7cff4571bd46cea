"""Measure the spread of every end-to-end metric and record a baseline.

    python3 perfbench/baseline.py [--seeds 1-10] [--write]

Runs ``run.py`` once per seed and workload of ``BENCHMARK.json``, with
tracing off. For each metric
it prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound.
With ``--write`` it also makes one traced run per workload and stores
everything in ``perfbench/baseline.json``, with the machine, the Python
version and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=HERE)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "bound": bound, "values": values}
            print(f"{workload:<12} {name:<12} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound}", flush=True)
        print(f"{workload:<12} failed_ops {entry['failed']}/{entry['attempted']}", flush=True)
        if args.write:
            entry["per_layer"] = {k: v["value"] for k, v in
                                  run_once(workload, args.seeds[0], spec["run_seconds"], 1)
                                  ["metrics"].items()}
        table[workload] = entry

    if args.write:
        doc = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform()},
               "commit": _commit(), "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "workloads": table}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
