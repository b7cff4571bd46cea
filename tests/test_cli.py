"""Workbench CLI: subcommands, exit codes, emitted documents."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coarsedim
from coarsedim.cli import main
from coarsedim.formats import doc_loads, load_cover, load_pu, load_space

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, doc_loads(out)


def test_gen_line_writes_space_and_covers(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc = run_cli(capsys, "gen", "line", "--n", "200",
                        "--staggered-half", "25", "--block-len", "50")
    assert code == 0
    space = load_space((tmp_path / "line200.space.txt").read_text())
    assert space.n_points == 200
    cover = load_cover((tmp_path / "line200.staggered25.cover.txt").read_text())
    assert len(cover.sets) == 7
    assert "line200.blocks50.cover.txt" in doc["files"][2]


def test_gen_random_geometric_reports_connectivity(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc = run_cli(capsys, "gen", "random-geometric", "--n", "30",
                        "--radius", "1/2", "--seed", "11")
    assert code == 0
    assert isinstance(doc["chain_connected"], bool)
    assert (tmp_path / "rg30s11.metric.txt").exists()


def test_phi_and_certify_round(tmp_path, capsys):
    pu_path = tmp_path / "map.pu.txt"
    code, doc = run_cli(capsys, "phi", "--space", "line200",
                        "--cover", "staggered:25", "--out-pu", str(pu_path))
    assert code == 0
    assert doc["max_carrier"] <= 2
    code, doc = run_cli(capsys, "certify", "pu", "--space", "line200",
                        "--pu", str(pu_path), "--cover", "gauge",
                        "--eps", "8/5", "--diam", "49")
    assert code == 0
    assert doc["certificate"]["ok"] is True
    assert doc["certificate"]["variation_value"] == F(1, 13)
    # an impossible diameter budget flips the exit code
    code, doc = run_cli(capsys, "certify", "pu", "--space", "line200",
                        "--pu", str(pu_path), "--cover", "gauge",
                        "--eps", "8/5", "--diam", "3")
    assert code == 1
    assert doc["certificate"]["ok"] is False


def test_certify_delta_subcommand(tmp_path, capsys):
    pu_path = tmp_path / "map.pu.txt"
    run_cli(capsys, "phi", "--space", "line100", "--cover", "staggered:10",
            "--out-pu", str(pu_path))
    code, doc = run_cli(capsys, "certify", "delta", "--metric", "line100",
                        "--pu", str(pu_path), "--delta", "1/2", "--diam", "99")
    assert code == 0
    assert doc["certificate"]["ok"] is True


def test_asdim_check_and_roundtrip(capsys):
    code, doc = run_cli(capsys, "asdim", "check", "--space", "line30",
                        "--cover-u", "gauge", "--cover-v", "blocks:10", "--n", "1")
    assert code == 0
    code, doc = run_cli(capsys, "asdim", "roundtrip", "--space", "line200",
                        "--n", "1", "--k", "10", "--diam", "120")
    assert code == 0
    assert doc["ok"] is True
    assert doc["skeleton_certificate"]["eps"] == F(8, 5)


def test_asdim_roundtrip_on_grid(capsys):
    code, doc = run_cli(capsys, "asdim", "roundtrip", "--space", "grid40x40",
                        "--n", "2", "--k", "2", "--diam", "80")
    assert code == 0
    assert doc["ok"] is True


def test_filler_pipeline_document(capsys):
    code, doc = run_cli(capsys, "filler", "--space", "line600", "--n", "1",
                        "--eps", "1", "--a-end", "200", "--diam", "599")
    assert code == 0
    assert doc["ok"] is True
    assert doc["budget_ok"] is True
    assert doc["params"]["k"] == 257
    assert doc["measured_variation"] <= doc["budget"]


def test_oracle_chain_index(capsys):
    code, doc = run_cli(capsys, "oracle", "chain-index",
                        "--instances", "40", "--max-points", "7", "--seed", "3")
    assert code == 0
    assert doc["mismatches"] == 0


def test_oracle_shrink(capsys):
    code, doc = run_cli(capsys, "oracle", "shrink",
                        "--instances", "40", "--max-points", "12", "--seed", "5")
    assert code == 0
    assert doc["violations"] == 0


def test_oracle_asdim_witness(capsys):
    code, doc = run_cli(capsys, "oracle", "asdim-witness", "--space", "line6",
                        "--n", "1", "--diam", "5")
    assert code == 0
    assert doc["found"] is True
    code, doc = run_cli(capsys, "oracle", "asdim-witness", "--space", "line6",
                        "--n", "0", "--diam", "3")
    assert code == 1
    assert doc["found"] is False


def test_sweep_emits_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, doc = run_cli(capsys, "sweep", "--space", "line200",
                        "--k", "1..6", "--out", str(out))
    assert code == 0
    assert doc["all_within_bound"] and doc["nonincreasing"]
    lines = out.read_text().splitlines()
    assert lines[0] == "k,variation_num,variation_den,bound_num,bound_den"
    assert len(lines) == 7
    k, vn, vd, bn, bd = (int(t) for t in lines[1].split(","))
    assert (k, bn, bd) == (1, 16, 1)
    assert F(vn, vd) <= F(16, 1)


def test_input_errors_exit_two(capsys):
    code, doc = run_cli(capsys, "phi", "--space", "nosuchspace",
                        "--cover", "gauge")
    assert code == 2
    assert doc["error"] == "InputError"
    code, doc = run_cli(capsys, "asdim", "roundtrip", "--space", "line60",
                        "--witness", "blocks:5", "--n", "1", "--k", "11", "--diam", "60")
    assert code == 2
    assert doc["error"] == "PreconditionError"


def test_duplicate_value_line_exits_two(tmp_path, capsys):
    pu_path = tmp_path / "dup.pu.txt"
    pu_path.write_text("partition-of-unity\npoints 2\nvertices 0 1\n"
                       "value 0 0 1 2\nvalue 0 0 1 2\nvalue 0 1 1 2\n"
                       "value 1 1 1 1\nend\n")
    code, doc = run_cli(capsys, "certify", "pu", "--space", "line2",
                        "--pu", str(pu_path), "--cover", "gauge",
                        "--eps", "1", "--diam", "1")
    assert code == 2
    assert doc["error"] == "InputError"
    assert "value 0 0 1 2" in doc["detail"]


def test_cli_runs_as_module(tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH no longer
    # points at the source tree; put the directory holding the package this
    # suite imported first, so the child imports the same coarsedim.
    package_root = str(Path(coarsedim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "coarsedim.cli", "oracle", "chain-index",
         "--instances", "5", "--max-points", "5", "--seed", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


PU = "partition-of-unity\npoints 2\nvertices 0 1\nvalue 0 0 1 1\nvalue 1 1 1 1\nend\n"
METRIC = "metric-space\npoints 2\ndistance 0 1 1 1\nend\n"
MISSING = None  # no file is written for this argument


@pytest.mark.parametrize("files, quote", [
    pytest.param({"space": "line2", "pu": PU.replace("1 1 1 1", "1 1 1 0")},
                 "value 1 1 1 0", id="zero-denominator"),
    pytest.param({"space": "line2", "pu": PU.replace("1 1 1 1", "1 1 a 2")},
                 "value 1 1 a 2", id="non-integer-token"),
    pytest.param({"space": "line2", "pu": "partition-of-unity\n"},
                 "partition-of-unity", id="truncated-header"),
    pytest.param({"space": "line2", "pu": PU.replace("value 1 1", "value 2 1")},
                 "value 2 1 1 1", id="point-out-of-range"),
    pytest.param({"space": "line2", "pu": PU.replace("value 1 1", "value 1 7")},
                 "value 1 7 1 1", id="unknown-vertex"),
    pytest.param({"space": "coarse-space\npoints 2\ngauge 0 : 0 1\n", "pu": PU},
                 "gauge 0 : 0 1", id="space-without-end"),
    pytest.param({"space": "coarse-space\npoints 2\ngauge 0 : 0 -1\nend\n", "pu": PU},
                 "gauge 0 : 0 -1", id="space-negative-point"),
    pytest.param({"metric": METRIC.replace("0 1 1 1", "-1 0 1 1"), "pu": PU},
                 "distance -1 0 1 1", id="metric-negative-index"),
    pytest.param({"metric": METRIC.replace("end\n", ""), "pu": PU},
                 "distance 0 1 1 1", id="metric-without-end"),
    pytest.param({"metric": METRIC.replace("end\n", "distance 1 0 2 1\nend\n"), "pu": PU},
                 "distance 1 0 2 1", id="metric-duplicate-pair"),
    pytest.param({"metric": "metric-space\npoints 3\ndistance 0 1 1 1\ndistance 1 2 1 1\nend\n",
                  "pu": PU.replace("points 2", "points 3").replace("end", "value 2 1 1 1\nend")},
                 "pair (0, 2)", id="metric-missing-pair"),
    pytest.param({"space": "line2", "pu": MISSING}, "pu.txt", id="missing-pu"),
    pytest.param({"space": MISSING, "pu": PU}, "space.txt", id="missing-space"),
    pytest.param({"metric": MISSING, "pu": PU}, "metric.txt", id="missing-metric"),
])
def test_malformed_input_exits_two_with_error_document(tmp_path, capsys, files, quote):
    argv = ["certify", "pu" if "space" in files else "delta"]
    for name, text in files.items():
        path = tmp_path / f"{name}.txt"
        if text is not None and text.startswith("line"):
            argv += [f"--{name}", text]
            continue
        if text is not None:
            path.write_text(text)
        argv += [f"--{name}", str(path)]
    argv += ["--cover", "gauge", "--eps", "1"] if "space" in files else ["--delta", "1"]
    code = main(argv + ["--diam", "1"])
    captured = capsys.readouterr()
    assert code == 2
    doc = doc_loads(captured.out)
    assert set(doc) == {"error", "detail"}
    assert quote in doc["detail"]
    assert "Traceback" not in captured.err


def test_malformed_fraction_argument_exits_two(capsys):
    code, doc = run_cli(capsys, "filler", "--space", "line20", "--n", "1",
                        "--eps", "1/0", "--a-end", "5", "--diam", "19")
    assert code == 2
    assert doc["error"] == "InputError" and "1/0" in doc["detail"]


@pytest.mark.parametrize("argv, quote", [
    pytest.param(["sweep", "--space", "line40", "--k", "0..2"], "'0..2'", id="sweep-k-zero"),
    pytest.param(["sweep", "--space", "line40", "--k", "abc"], "'abc'", id="sweep-k-not-a-number"),
    pytest.param(["sweep", "--space", "line40", "--k", "5..2"], "'5..2'", id="sweep-k-reversed"),
    pytest.param(["sweep", "--space", "line40", "--k", "1.."], "'1..'", id="sweep-k-open-range"),
    pytest.param(["oracle", "chain-index", "--instances", "3", "--max-points", "1"],
                 "--max-points 1", id="oracle-chain-index-one-point"),
    pytest.param(["oracle", "shrink", "--instances", "3", "--max-points", "1"],
                 "--max-points 1", id="oracle-shrink-one-point"),
])
def test_bad_argument_exits_two_quoting_it(capsys, argv, quote):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    doc = doc_loads(captured.out)
    assert doc["error"] == "InputError"
    assert quote in doc["detail"]
    assert "Traceback" not in captured.err
