"""One workload in a process of its own: set-up, timed passes, checks.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``.  With ``--setup-only`` it
times ``import coarsedim`` plus loading the inputs and prints the seconds.
Otherwise it loads once, runs passes until ``--seconds`` have gone by (and at
least ``MIN_PASSES``), checks every pass, and prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, calibrate, rescale

MIN_PASSES = 3
EXPECTED = Path(__file__).with_name("expected.json")


def _setup_only(args) -> None:
    start = perf_counter()
    import coarsedim  # noqa: F401  (timed: the import is part of set-up)
    import workloads
    workloads.load(args.workload, Path(args.inputs))
    print(perf_counter() - start)


def expected_for(size: str, workload: str) -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text()).get(size, {}).get(workload, {})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        _setup_only(args)
        return
    print(json.dumps(run(args)))


def run(args) -> dict:
    # imported here, not at the top, so that --setup-only times the first import of coarsedim
    import inputs as gen
    import layertrace
    import workloads

    size = gen.SIZES[args.size][args.workload]
    names = workloads.verdict_names(args.workload, size)
    expected = expected_for(args.size, args.workload)
    recorded_digest = expected.get("digests", {}).get(str(args.seed))

    tracer = layertrace.Tracer()
    if args.trace:
        tracer.install(workloads)
    loaded = workloads.load(args.workload, Path(args.inputs))
    setup_layers = tracer.snapshot()

    pass_s: list[float] = []
    layers: list[dict] = []
    failures: list[str] = []
    failed = attempted = 0
    first_digest = None
    values = None
    scaled: list[float] = []
    before = calibrate()
    _scale_times(setup_layers, REFERENCE_S / before)
    deadline = perf_counter() + args.seconds
    result = inp = None
    while len(pass_s) < MIN_PASSES or perf_counter() < deadline:
        result = inp = None  # keep only one pass's outputs alive, as in a CLI run
        inp = workloads.fresh(loaded)
        gc.collect()  # start every pass from the same heap state
        tracer.reset()
        result, seconds, scaled_s, before = timed_pass(
            workloads.pass_steps(args.workload, inp, size), before)
        pass_s.append(seconds)
        scaled.append(scaled_s)
        attempted += len(names)
        if args.trace:
            layers.append(tracer.snapshot())
        if isinstance(result, Exception):
            failed += len(names)
            failures.append(f"pass raised {type(result).__name__}: {result}")
            continue

        first_digest = first_digest or result.digest
        # outputs repeat byte for byte, so one full re-check per run suffices
        bad = evaluate(args.workload, inp, result, names, expected.get("verdicts"),
                       recorded_digest or first_digest, full_check=values is None)
        values = values or result.verdicts
        failed += len(bad)
        failures += [f"{name}: {why}" for name, why in sorted(bad.items())]

    report = {
        "pass_s": pass_s,
        "scaled_pass_s": scaled,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": first_digest,
        "digest_recorded": recorded_digest is not None,
        "verdicts": values,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        missing = [layer for layer in workloads.EXERCISES[args.workload]
                   if not setup_layers.get(f"{layer}.calls")
                   and not any(snap.get(f"{layer}.calls") for snap in layers)]
        report["coverage_missing"] = missing
        for snap, seconds, scaled_s in zip(layers, pass_s, scaled):
            snap["trace.self_share"] = sum(snap.get(f"{m}.self_s", 0)
                                           for m in layertrace.MODULE_NAMES) / seconds
            _scale_times(snap, scaled_s / seconds)
            snap["trace.run_s"] = scaled_s
        keys = set(setup_layers).union(*layers)
        report["layers"] = {
            key: setup_layers.get(key, 0) + statistics.median(snap.get(key, 0) for snap in layers)
            for key in sorted(keys)}
        report["layers"]["trace.passes"] = len(layers)
        tracer.uninstall()
    else:
        report["wrappers_installed"] = layertrace.installed_wrappers()
    return report


def _scale_times(snapshot: dict, factor: float) -> None:
    """Rescale a trace snapshot's times (``.s``, ``.self_s``) like ``run_s``."""
    for key in snapshot:
        if key.endswith((".s", ".self_s")):
            snapshot[key] *= factor


def timed_pass(steps, before: float):
    """Run one pass step by step, calibrating the machine's speed after every step.

    Returns the pass's result (or the exception it raised), its seconds, its
    seconds rescaled to ``REFERENCE_S``, and the last calibration.  Each step
    is rescaled by the mean of the calibrations on either side of it, so the
    speed is tracked within long passes too.
    """
    seconds = rescaled = 0.0
    while True:
        start = perf_counter()
        outcome = None
        try:
            next(steps)
        except StopIteration as stop:
            outcome = stop.value
        except Exception as exc:  # a raising pass fails every verdict it owed
            outcome = exc
        elapsed = perf_counter() - start
        after = calibrate()
        seconds += elapsed
        rescaled += rescale(elapsed, before, after)
        before = after
        if outcome is not None:
            return outcome, seconds, rescaled, before


def evaluate(workload: str, inp: dict, result, names: list[str], recorded: dict | None,
             want_digest: str, full_check: bool) -> dict[str, str]:
    """Failed verdicts of one pass, with reasons.

    A verdict fails when the program's own verdict is not ok, when its
    relabel-invariant values differ from the recorded ones, when (on a full
    check) a reported witness does not re-verify, or, for the ``digest``
    verdict, when the documents' bytes differ from ``want_digest``.
    """
    import workloads

    bad: dict[str, str] = {}
    if full_check:
        bad.update(workloads.check_pass(workload, inp, result))
    if result.digest != want_digest:
        bad["digest"] = f"document digest {result.digest[:12]} != {want_digest[:12]}"
    for name in names[:-1]:
        got = result.verdicts.get(name)
        if got is None or got.get("ok") is not True:
            bad.setdefault(name, f"verdict {got}")
        elif recorded is not None and got != recorded.get(name):
            bad.setdefault(name, f"values {got} != recorded {recorded.get(name)}")
    return bad


if __name__ == "__main__":
    sys.exit(main())
