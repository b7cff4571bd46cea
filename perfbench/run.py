"""coarsedim benchmark: four certificate workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one summary table

For one workload it writes the seeded inputs as text files, times set-up
(``import coarsedim`` plus loading the files) in ``SETUP_RUNS`` fresh
processes, then runs the workload in one more process of its own for
``--seconds`` and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer ones, taken with the layer modules wrapped from outside.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import calibrate, rescale  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT = 150


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child(root: Path, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        _fail(f"worker {' '.join(argv[:2])} failed:\n{proc.stderr}")
    return proc.stdout


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"median of {n} passes; no tail percentile (needs 20 passes)"
    pct = (100 * (n - 10)) // n
    value = sorted(samples)[-11]
    return f"median of {n} passes; p{pct} {value:.4f} s"


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            size: str = "full") -> dict:
    """Run one workload and return its report: result fields plus human notes."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import inputs

    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs.write_inputs(workload, inputs.SIZES[size][workload], seed, workdir)
        common = ["--workload", workload, "--size", size, "--inputs", str(workdir)]
        setup = []
        before = calibrate()
        for _ in range(0 if trace else SETUP_RUNS):
            seconds_taken = float(_child(root, common + ["--setup-only"]))
            after = calibrate()
            setup.append(rescale(seconds_taken, before, after))
            before = after
        report = json.loads(_child(root, common + [
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(report["failures"])
    if trace:
        metrics = {m["name"]: {"value": report["layers"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        problems += [f"layer {name} recorded no call" for name in report["coverage_missing"]]
    else:
        values = {"run_s": statistics.median(report["scaled_pass_s"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        problems += [f"wrapper left installed on {name}"
                     for name in report["wrappers_installed"]]
    return {
        "correct": not problems and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
        "notes": {"run_s": percentile_note(report["scaled_pass_s"]),
                  "wall_s": statistics.median(report["pass_s"]),
                  "setup_s": (f"set-up median of {len(setup)} processes" if setup
                              else "set-up not timed in a traced run"),
                  "digest": report["digest"],
                  "digest_recorded": report["digest_recorded"],
                  "problems": problems},
    }


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        _fail("run from the root of a coarsedim checkout (BENCHMARK.json is missing)")
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "coarsedim" / "__init__.py").is_file():
        _fail("run from the root of a coarsedim checkout (src/coarsedim is missing)")

    if args.workload is None:
        print(f"{'workload':<12} {'run_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} "
              f"{'failed_ops':>12}")
        for workload in workloads:
            r = measure(root, workload, args.seed, args.seconds, 0)
            m = r["metrics"]
            print(f"{workload:<12} {m['run_s']['value']:>8.4f} s {m['setup_s']['value']:>8.4f} s "
                  f"{m['peak_rss_mb']['value']:>9.1f} MB "
                  f"{r['failed'] / r['attempted']:>6.3f} ({r['failed']}/{r['attempted']})")
        return 0

    r = measure(root, args.workload, args.seed, args.seconds, args.trace)
    for name, metric in sorted(r["metrics"].items()):
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    notes = r["notes"]
    print(f"failed_ops {r['failed']}/{r['attempted']}; {notes['run_s']}; {notes['setup_s']}; "
          f"unscaled median pass {notes['wall_s']:.4f} s")
    against = ("the digest recorded for this seed" if notes["digest_recorded"]
               else "the first pass (no digest recorded for this seed)")
    print(f"documents {notes['digest']}, checked against {against}")
    for problem in r["notes"]["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
