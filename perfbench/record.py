"""Record the expected verdict values and per-seed document digests.

    python3 perfbench/record.py

Runs one pass of every workload in ``BENCHMARK.json``, at both sizes, for
seeds 0..SEEDS-1, checks each pass with the independent checker, requires the
relabel-invariant values to agree across seeds, and writes
``perfbench/expected.json`` from scratch.  Re-record only when a change is
meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402

# Seeds with a recorded digest; a run on another seed compares its passes
# with its own first pass.
SEEDS = 64


def one_pass(size: str, workload: str, seed: int, workdir: Path):
    """Verdicts, document digest and checker failures of one pass."""
    directory = workdir / f"{size}-{workload}-{seed}"
    try:
        inputs.write_inputs(workload, inputs.SIZES[size][workload], seed, directory)
        loaded = workloads.load(workload, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    steps = workloads.pass_steps(workload, loaded, inputs.SIZES[size][workload])
    result = worker.timed_pass(steps, calibrate())[0]
    if isinstance(result, Exception):
        raise result
    return result.verdicts, result.digest, workloads.check_pass(workload, loaded, result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_work" / "record"
    expected: dict = {}
    for size in inputs.SIZES:
        for workload in (w["name"] for w in spec["workloads"]):
            entry = {"verdicts": None, "digests": {}}
            for seed in range(SEEDS):
                verdicts, digest, failures = one_pass(size, workload, seed, workdir)
                bad = failures or {n: v for n, v in verdicts.items() if v.get("ok") is not True}
                if bad:
                    raise SystemExit(f"{size} {workload} seed {seed} fails: {bad}")
                if entry["verdicts"] not in (None, verdicts):
                    raise SystemExit(f"{size} {workload}: seed {seed} changes invariant values")
                entry["verdicts"] = verdicts
                entry["digests"][str(seed)] = digest
                print(f"{size} {workload} seed {seed}: {digest[:12]}", flush=True)
            expected.setdefault(size, {})[workload] = entry
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
