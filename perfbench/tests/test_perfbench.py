"""Fast checks of the benchmark itself, on tiny instances.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import layertrace  # noqa: E402
import pytest  # noqa: E402
from calibrate import calibrate  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = inputs.SIZES["tiny"]


def test_seed_zero_keeps_labels_and_other_seeds_permute():
    assert inputs.permutation(10, 0) == list(range(10))
    perm = inputs.permutation(10, 7)
    assert perm != list(range(10)) and sorted(perm) == list(range(10))
    assert inputs.permutation(10, 7) == perm


@pytest.mark.parametrize("workload", list(TINY))
def test_two_seeds_give_the_same_invariant_values(tmp_path, workload):
    verdicts0, _, failures0 = record.one_pass("tiny", workload, 0, tmp_path)
    verdicts5, _, failures5 = record.one_pass("tiny", workload, 5, tmp_path)
    assert failures0 == failures5 == {}
    assert verdicts0 == verdicts5
    assert all(v["ok"] is True for v in verdicts0.values())
    assert set(verdicts0) == set(workloads.verdict_names(workload, TINY[workload])[:-1])


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_fast_mode_runs_every_workload_and_checker(workload, trace):
    report = run.measure(ROOT, workload, seed=2, seconds=0, trace=trace, size="tiny")
    assert report["notes"]["problems"] == []
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == worker.MIN_PASSES * len(
        workloads.verdict_names(workload, TINY[workload]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(report["metrics"]) == names


def _tiny_pass(tmp_path, workload):
    directory = tmp_path / workload
    inputs.write_inputs(workload, TINY[workload], 3, directory)
    loaded = workloads.load(workload, directory)
    steps = workloads.pass_steps(workload, loaded, TINY[workload])
    return loaded, worker.timed_pass(steps, calibrate())[0]


def _evaluate(workload, loaded, result, digest):
    recorded = worker.expected_for("tiny", workload).get("verdicts")
    names = workloads.verdict_names(workload, TINY[workload])
    return worker.evaluate(workload, loaded, result, names, recorded, digest, full_check=True)


def test_a_swapped_witness_pair_is_a_failed_verdict(tmp_path):
    loaded, result = _tiny_pass(tmp_path, "sweep")
    digest = result.digest
    assert _evaluate("sweep", loaded, result, digest) == {}
    f, var = result.outputs["maps"][0]
    x, y = var.pair
    result.outputs["maps"][0] = (f, dataclasses.replace(var, pair=(y, x)))
    assert set(_evaluate("sweep", loaded, result, digest)) == {"k1"}


def test_a_changed_document_byte_is_a_failed_verdict(tmp_path):
    loaded, result = _tiny_pass(tmp_path, "bridge")
    digest = result.digest
    result.docs[0] = result.docs[0].replace("1", "2", 1)
    assert set(_evaluate("bridge", loaded, result, digest)) == {"digest"}


def test_a_changed_invariant_value_is_a_failed_verdict(tmp_path):
    loaded, result = _tiny_pass(tmp_path, "filler")
    digest = result.digest
    result.verdicts["filler"]["budget"] = "1/3"
    assert set(_evaluate("filler", loaded, result, digest)) == {"filler"}


def test_tracer_rebinds_aliases_and_uninstalls(tmp_path):
    import coarsedim.pou

    assert layertrace.installed_wrappers() == []
    tracer = layertrace.Tracer()
    tracer.install(workloads)
    try:
        assert hasattr(coarsedim.pou.is_uniformly_bounded, "perfbench_layer")
        assert hasattr(coarsedim.asdim.l1_distance, "perfbench_layer")
        assert "covers.ChainGraph.distances_from" in layertrace.installed_wrappers()
        _tiny_pass(tmp_path, "filler")
        snap = tracer.snapshot()
        assert snap["covers.is_uniformly_bounded.calls"] > 0
        assert snap["covers.bfs.runs"] == snap["covers.bfs.calls"] > 0
    finally:
        tracer.uninstall()
    assert layertrace.installed_wrappers() == []
    assert not hasattr(coarsedim.pou.is_uniformly_bounded, "perfbench_layer")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
