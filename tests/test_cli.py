"""Workbench CLI: subcommands, exit codes, emitted documents."""

import ast
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsedim
from coarsedim import (FiniteMetricSpace, VariationResult, barycentric_map, cli, gen_grid2d,
                       gen_line, oracles)
from coarsedim.cli import main
from coarsedim.formats import (doc_loads, dump_cover, dump_metric, dump_pu, dump_space,
                               load_cover, load_pu, load_space)

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
    assert doc == {"generated": "line", "files": ["line200.space.txt",
                                                  "line200.staggered25.cover.txt",
                                                  "line200.blocks50.cover.txt"]}
    inst = gen_line(200)
    staggered = load_cover((tmp_path / "line200.staggered25.cover.txt").read_text())
    assert len(staggered.sets) == 7
    assert staggered == inst.staggered(25)
    assert load_cover((tmp_path / "line200.blocks50.cover.txt").read_text()) == inst.blocks(50)


def test_gen_writes_a_repeated_size_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc = run_cli(capsys, "gen", "line", "--n", "20", "--staggered-half", "3",
                        "--block-len", "5", "--staggered-half", "4", "--staggered-half", "3")
    assert code == 0
    files = ["line20.space.txt", "line20.staggered3.cover.txt", "line20.staggered4.cover.txt",
             "line20.blocks5.cover.txt"]
    assert doc == {"generated": "line", "files": files}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_gen_grid2d_writes_files_that_load_back(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc = run_cli(capsys, "gen", "grid2d", "--width", "6", "--height", "4",
                        "--brick-len", "3")
    assert code == 0
    assert doc == {"generated": "grid2d",
                   "files": ["grid6x4.space.txt", "grid6x4.bricks3.cover.txt"]}
    inst = gen_grid2d(6, 4)
    space = load_space((tmp_path / "grid6x4.space.txt").read_text())
    assert (space.n_points, space.gauge) == (24, inst.space.gauge)
    assert load_cover((tmp_path / "grid6x4.bricks3.cover.txt").read_text()) == inst.bricks(3)


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
    assert doc["witness"] == "bricks:20"  # the default witness, 8k + 4


def test_asdim_skeleton_writes_a_map_that_loads_back_and_certifies(tmp_path, capsys):
    pu_path, out = tmp_path / "skeleton.pu.txt", tmp_path / "skeleton.json"
    code = main(["asdim", "skeleton", "--space", "line200", "--n", "1", "--k", "10",
                 "--diam", "120", "--out-pu", str(pu_path), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_bytes() == stdout.encode()  # --out writes the bytes stdout gets
    doc = doc_loads(stdout)
    assert doc["construction"] == "skeleton-map"
    assert doc["witness"] == "blocks:50"  # the default witness, 4k + 10
    assert doc["certificate"]["ok"] is True
    assert doc["certificate"]["eps"] == F(8, 5)
    assert doc["precondition"]["ok"] is True
    assert doc["precondition"]["n"] == 1
    assert load_pu(pu_path.read_text()).n_points == 200
    code, cert = run_cli(capsys, "certify", "pu", "--space", "line200", "--pu", str(pu_path),
                         "--cover", "gauge", "--eps", "8/5", "--diam", "120")
    assert code == 0
    assert cert["certificate"] == doc["certificate"]


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


def test_oracle_asdim_witness_writes_the_cover_it_found(tmp_path, capsys):
    path = tmp_path / "witness.cover.txt"
    code, doc = run_cli(capsys, "oracle", "asdim-witness", "--space", "line6",
                        "--n", "1", "--diam", "5", "--out-cover", str(path))
    assert code == 0
    witness = load_cover(path.read_text())
    assert [sorted(s) for s in witness.sets] == doc["elements"]
    code, doc = run_cli(capsys, "asdim", "check", "--space", "line6", "--cover-u", "gauge",
                        "--cover-v", str(path), "--n", "1")
    assert code == 0
    code, doc = run_cli(capsys, "oracle", "asdim-witness", "--space", "line6",
                        "--n", "0", "--diam", "3")
    assert code == 1
    assert doc["found"] is False


@pytest.mark.parametrize("values, bounded, monotone", [
    pytest.param([F(17), F(17)], False, True, id="above-bound"),
    pytest.param([F(1, 2), F(1)], True, False, id="increasing"),
])
def test_sweep_exits_one_when_a_check_fails(capsys, monkeypatch, values, bounded, monotone):
    measured = iter(values)
    monkeypatch.setattr(cli, "variation",
                        lambda f, cover: VariationResult(next(measured), None))
    code, doc = run_cli(capsys, "sweep", "--space", "line40", "--k", "1..2")
    assert code == 1
    assert [row["variation"] for row in doc["rows"]] == values
    assert (doc["all_within_bound"], doc["nonincreasing"], doc["ok"]) == (bounded, monotone,
                                                                          False)


def test_sweep_exits_two_when_a_witness_is_not_coarse_enough(capsys, monkeypatch):
    monkeypatch.setattr(cli, "star_misfit", lambda cover, k, coarse: 0)
    code, doc = run_cli(capsys, "sweep", "--space", "line40", "--k", "1..2")
    assert code == 2
    assert doc == {"error": "ConstructionError",
                   "detail": "staggered witness at k=1 is not coarse enough"}


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


def test_file_space_needs_a_witness_and_a_spec_for_named_covers(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "line", "--n", "20"]) == 0
    capsys.readouterr()
    code, doc = run_cli(capsys, "asdim", "skeleton", "--space", "line20.space.txt",
                        "--k", "1", "--n", "1", "--diam", "19")
    assert code == 2
    assert doc == {"error": "InputError",
                   "detail": "a witness cover is required for file-based spaces"}
    code, doc = run_cli(capsys, "phi", "--space", "line20.space.txt", "--cover", "staggered:3")
    assert code == 2
    # the file is a line, but named covers are built from a spec
    assert doc == {"error": "InputError",
                   "detail": "cover 'staggered:3' needs a lineN space spec"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["line20.space.txt"]


@pytest.mark.parametrize("spec", list(cli.FAMILIES))
def test_each_family_builds_its_named_covers_and_refuses_the_others(capsys, spec):
    # every builder takes sizes from 2 up, so the smallest spec has a 2 in each field
    smallest = re.sub(r"\{\w+\}", "2", spec)
    family = cli.FAMILIES[spec]
    inst = family.build(*[2] * spec.count("{"))
    for name in family.covers:
        code, doc = run_cli(capsys, "phi", "--space", smallest, "--cover", f"{name}:2")
        assert code == 0
        assert doc["points"] == inst.space.n_points
        loaded = cli._load_space_arg(smallest)
        assert cli._load_cover_arg(f"{name}:2", *loaded) == getattr(inst, name)(2)
    others = [(other, name) for other, row in cli.FAMILIES.items() if other != spec
              for name in row.covers]
    assert others
    for other, name in others:
        code, doc = run_cli(capsys, "phi", "--space", smallest, "--cover", f"{name}:2")
        assert code == 2
        assert doc == {"error": "InputError",
                       "detail": f"cover '{name}:2' needs a {cli._spec_name(other)} space spec"}


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


def _child_env() -> dict:
    # A child run in tmp_path no longer finds the source tree through a
    # relative PYTHONPATH; put the directory holding the package this suite
    # imported first, so the child imports the same coarsedim.
    package_root = str(Path(coarsedim.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", ["coarsedim.cli", "coarsedim"])
def test_cli_runs_as_module(tmp_path, module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "oracle", "chain-index",
         "--instances", "5", "--max-points", "5", "--seed", "1"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def _called_names(tree) -> set[str]:
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_library_oracles_are_only_what_the_cli_runs(tmp_path):
    # the references that only tests call live in tests/oracles.py
    public = {name for name, obj in vars(oracles).items()
              if inspect.isfunction(obj) and obj.__module__ == oracles.__name__
              and not name.startswith("_")}
    assert public
    calls = {name: _called_names(ast.parse(inspect.getsource(getattr(oracles, name))))
             for name in public}
    from_cli = _called_names(ast.parse(inspect.getsource(cli)))
    for name in public:
        callers = from_cli.union(*(calls[other] for other in public - {name}))
        assert name in callers, f"coarsedim.oracles.{name} has no library caller"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coarsedim; print('coarsedim.oracles' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


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
    pytest.param({"space": "line2", "pu": PU.replace("value 0 0 1 1\n", "")},
                 "no value assigned to point 0", id="point-without-value"),
    pytest.param({"metric": METRIC, "pu": PU.replace("value 1 1 1 1\n", "")},
                 "no value assigned to point 1", id="delta-point-without-value"),
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
    pytest.param({"metric": METRIC.replace("end\n", "distance 0 0 5 1\ndistance 0 0 0 1\nend\n"),
                  "pu": PU}, "second distance line for one pair: 'distance 0 0 0 1'",
                 id="metric-repeated-diagonal-zero-last"),
    pytest.param({"metric": METRIC.replace("end\n", "distance 0 0 0 1\ndistance 0 0 5 1\nend\n"),
                  "pu": PU}, "second distance line for one pair: 'distance 0 0 5 1'",
                 id="metric-repeated-diagonal-zero-first"),
    pytest.param({"metric": "metric-space\npoints 3\ndistance 0 1 1 1\ndistance 1 2 1 1\nend\n",
                  "pu": PU.replace("points 2", "points 3").replace("end", "value 2 1 1 1\nend")},
                 "pair (0, 2)", id="metric-missing-pair"),
    pytest.param({"space": "line2", "pu": PU.replace("vertices 0 1", "vertices0 1")},
                 "missing vertices line, got 'vertices0 1'", id="vertices-header-glued"),
    pytest.param({"space": "line2", "pu": PU.replace("vertices 0 1", "verticesX 0 1")},
                 "missing vertices line, got 'verticesX 0 1'",
                 id="vertices-header-misspelled"),
    pytest.param({"space": "line2", "pu": PU.replace("vertices 0 1", "vertices 0 0 1")},
                 "repeated vertex id in 'vertices 0 0 1'", id="vertices-repeated"),
    pytest.param({"space": "line2", "pu": PU.replace("points 2", "points -1")},
                 "point count below 1 in 'points -1'", id="pu-negative-point-count"),
    pytest.param({"metric": "metric-space\npoints 0\nend\n", "pu": PU},
                 "point count below 1 in 'points 0'", id="metric-zero-point-count"),
    pytest.param({"metric": METRIC.replace("points 2", "points -2"), "pu": PU},
                 "point count below 1 in 'points -2'", id="metric-negative-point-count"),
    pytest.param({"space": "line2", "pu": PU.replace("points 2", "points 1_0")},
                 "non-integer token in 'points 1_0'", id="points-with-underscore"),
    pytest.param({"space": "coarse-space\npoints 2\ngauge 0 : 0 \u0661\nend\n", "pu": PU},
                 "non-integer token in 'gauge 0 : 0 \u0661'", id="element-non-ascii-digit"),
    pytest.param({"space": "line2", "pu": PU.replace("value 1 1 1 1", "value 1 1 \u0663 3")},
                 "non-integer token in 'value 1 1 \u0663 3'", id="value-non-ascii-digit"),
    pytest.param({"metric": METRIC.replace("0 1 1 1", "0 1 \u0661 1"), "pu": PU},
                 "non-integer token in 'distance 0 1 \u0661 1'", id="distance-non-ascii-digit"),
    pytest.param({"space": "line2", "pu": MISSING}, "pu.txt", id="missing-pu"),
    pytest.param({"space": MISSING, "pu": PU}, "space.txt", id="missing-space"),
    pytest.param({"metric": MISSING, "pu": PU}, "metric.txt", id="missing-metric"),
    pytest.param({"metric": "line0", "pu": PU},
                 "n_points = 0 is not an int >= 1", id="metric-line0"),
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
    pytest.param(["sweep", "--space", "line40", "--k", "1_0"], "--k '1_0'",
                 id="sweep-k-underscore"),
    pytest.param(["phi", "--space", "line20\n", "--cover", "gauge"],
                 "space 'line20\\n' is neither a spec (lineN, gridWxH) nor a file",
                 id="space-spec-trailing-newline"),
    pytest.param(["phi", "--space", "line\u0662\u0660", "--cover", "gauge"],
                 "space 'line\u0662\u0660' is neither a spec (lineN, gridWxH) nor a file",
                 id="space-spec-non-ascii-digits"),
    pytest.param(["certify", "delta", "--metric", "line2\n", "--pu", "pu.txt", "--delta", "1",
                  "--diam", "1"], "metric 'line2\\n' is neither lineN nor a file",
                 id="metric-spec-trailing-newline"),
    pytest.param(["certify", "pu", "--space", "line2", "--pu", "pu.txt", "--cover", "gauge",
                  "--eps", "1_0", "--diam", "1"], "non-integer token in '1_0'",
                 id="certify-pu-eps-underscore"),
    pytest.param(["phi", "--space", "line20", "--cover", "st:1_0"], "'st:1_0'",
                 id="cover-st-underscore"),
    pytest.param(["oracle", "chain-index", "--instances", "3", "--max-points", "1"],
                 "--max-points 1", id="oracle-chain-index-one-point"),
    pytest.param(["oracle", "shrink", "--instances", "3", "--max-points", "1"],
                 "--max-points 1", id="oracle-shrink-one-point"),
    pytest.param(["oracle", "chain-index", "--instances", "-5"], "--instances -5",
                 id="oracle-chain-index-negative-instances"),
    pytest.param(["oracle", "chain-index", "--instances", "0"], "--instances 0",
                 id="oracle-chain-index-no-instances"),
    pytest.param(["oracle", "shrink", "--instances", "0"], "--instances 0",
                 id="oracle-shrink-no-instances"),
    pytest.param(["gen", "line", "--n", "10", "--staggered-half", "0"], "half = 0",
                 id="gen-line-staggered-half-zero"),
    pytest.param(["gen", "line", "--n", "10", "--staggered-half", "2", "--block-len", "0"],
                 "length = 0", id="gen-line-block-len-zero"),
    pytest.param(["gen", "grid2d", "--width", "4", "--height", "4", "--brick-len", "0"],
                 "brick = 0", id="gen-grid-brick-len-zero"),
    pytest.param(["phi", "--space", "line20", "--cover", "st:abc"], "'st:abc'",
                 id="cover-st-not-a-number"),
    pytest.param(["phi", "--space", "line20", "--cover", "blocks:x"], "'blocks:x'",
                 id="cover-blocks-not-a-number"),
    pytest.param(["phi", "--space", "line20", "--cover", "staggered:1.5"], "'staggered:1.5'",
                 id="cover-staggered-not-a-number"),
    pytest.param(["phi", "--space", "grid4x4", "--cover", "bricks:-"], "'bricks:-'",
                 id="cover-bricks-not-a-number"),
    pytest.param(["phi", "--space", "line20", "--cover", "gauge", "--chains", "st:2x"], "'st:2x'",
                 id="chains-st-not-a-number"),
    pytest.param(["phi", "--space", "line20", "--cover", "bricks:3"],
                 "cover 'bricks:3' needs a gridWxH space spec", id="cover-bricks-on-a-line"),
    pytest.param(["phi", "--space", "grid8x8", "--cover", "staggered:3"],
                 "cover 'staggered:3' needs a lineN space spec", id="cover-staggered-on-a-grid"),
    pytest.param(["phi", "--space", "grid8x8", "--cover", "blocks:3"],
                 "cover 'blocks:3' needs a lineN space spec", id="cover-blocks-on-a-grid"),
    pytest.param(["sweep", "--space", "grid4x4", "--k", "1"],
                 "the sweep is wired for line specs (lineN)", id="sweep-on-a-grid"),
    pytest.param(["filler", "--space", "grid4x4", "--n", "1", "--eps", "1", "--a-end", "5",
                  "--diam", "15"], "the filler pipeline is wired for line specs (lineN)",
                 id="filler-on-a-grid"),
    pytest.param(["certify", "delta", "--metric", "line2", "--pu", "pu.txt", "--delta", "inf",
                  "--diam", "1"], "--delta 'inf'", id="certify-delta-infinite-delta"),
    pytest.param(["certify", "delta", "--metric", "line2", "--pu", "pu.txt", "--delta", "1",
                  "--diam", "inf"], "--diam 'inf'", id="certify-delta-infinite-diam"),
    pytest.param(["filler", "--space", "line20", "--n", "1", "--eps", "inf", "--a-end", "5",
                  "--diam", "19"], "--eps 'inf'", id="filler-infinite-eps"),
    pytest.param(["gen", "random-geometric", "--n", "5", "--radius", "inf", "--seed", "1"],
                 "--radius 'inf'", id="gen-infinite-radius"),
    pytest.param(["certify", "pu", "--space", "line2", "--pu", "pu.txt", "--cover", "gauge",
                  "--eps", "1", "--diam", "-1"], "bound = -1 is not >= 0",
                 id="certify-pu-negative-diam"),
    pytest.param(["certify", "pu", "--space", "line2", "--pu", "pu.txt", "--cover", "gauge",
                  "--eps", "0", "--diam", "1"], "eps = 0 is not > 0",
                 id="certify-pu-zero-eps"),
    pytest.param(["certify", "pu", "--space", "line2", "--pu", "pu.txt", "--cover", "gauge",
                  "--eps", "-1", "--diam", "1"], "eps = -1 is not > 0",
                 id="certify-pu-negative-eps"),
    pytest.param(["certify", "pu", "--space", "line2", "--pu", "pu.txt", "--cover", "gauge",
                  "--eps", "1/-2", "--diam", "1"], "eps = -1/2 is not > 0",
                 id="certify-pu-negative-fraction-eps"),
    pytest.param(["asdim", "skeleton", "--space", "line30", "--k", "1", "--n", "1",
                  "--diam", "-1"], "bound = -1 is not >= 0", id="skeleton-negative-diam"),
    pytest.param(["asdim", "roundtrip", "--space", "line30", "--k", "1", "--n", "1",
                  "--diam", "-1"], "bound = -1 is not >= 0", id="roundtrip-negative-diam"),
    pytest.param(["filler", "--space", "line60", "--n", "1", "--eps", "1", "--a-end", "10",
                  "--diam", "-1"], "bound = -1 is not >= 0", id="filler-negative-diam"),
    pytest.param(["certify", "delta", "--metric", "line2", "--pu", "pu.txt", "--delta", "1",
                  "--diam", "-1"], "bound = -1 is not >= 0", id="certify-delta-negative-diam"),
    pytest.param(["asdim", "check", "--space", "line10", "--cover-u", "gauge",
                  "--cover-v", "gauge", "--n", "-1"], "n = -1", id="asdim-check-negative-n"),
    pytest.param(["oracle", "asdim-witness", "--space", "line6", "--n", "-1", "--diam", "2"],
                 "n = -1", id="oracle-witness-negative-n"),
    pytest.param(["oracle", "asdim-witness", "--space", "line6", "--n", "1", "--diam", "-2"],
                 "diameter = -2", id="oracle-witness-negative-diam"),
    # flag errors that argparse finds keep the contract too: exit 2 with an error document
    pytest.param(["asdim", "check", "--space", "line10", "--cover-u", "gauge", "--cover-v",
                  "gauge", "--n", "x"], "argument --n: invalid int value: 'x'",
                 id="flag-not-an-int"),
    pytest.param(["bogus"], "invalid choice: 'bogus'", id="unknown-subcommand"),
    pytest.param(["asdim", "check", "--space", "line10", "--cover-u", "gauge", "--cover-v",
                  "gauge"], "the following arguments are required: --n",
                 id="missing-required-flag"),
])
def test_bad_argument_exits_two_quoting_it(tmp_path, monkeypatch, capsys, argv, quote):
    monkeypatch.chdir(tmp_path)  # a command that wrongly passed would write here
    (tmp_path / "pu.txt").write_text(PU)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    doc = doc_loads(captured.out)
    assert doc["error"] == "InputError"
    assert quote in doc["detail"]
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["pu.txt"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: coarsedim" in capsys.readouterr().out


# --- golden bytes ------------------------------------------------------------------
# Recorded from the Fraction-backed BarycentricPoint; the int-numerator form must
# write the same bytes through dump_pu and report the same pair scan.

GOLDEN_PHI_STDOUT = '''\
{
 "complex_dimension": 7,
 "construction": "barycentric-map",
 "max_carrier": 8,
 "points": 20,
 "vertices": 19,
 "weights_sum_to_one": true
}
'''

GOLDEN_PHI_PU = '''\
partition-of-unity
points 20
vertices 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18
value 0 0 5 26
value 0 1 3 13
value 0 2 7 26
value 0 3 4 13
value 1 0 4 23
value 1 1 5 23
value 1 2 6 23
value 1 3 7 23
value 1 4 1 23
value 2 0 1 7
value 2 1 4 21
value 2 2 5 21
value 2 3 2 7
value 2 4 2 21
value 2 5 1 21
value 3 0 1 10
value 3 1 3 20
value 3 2 1 5
value 3 3 1 4
value 3 4 3 20
value 3 5 1 10
value 3 6 1 20
value 4 0 1 20
value 4 1 1 10
value 4 2 3 20
value 4 3 1 5
value 4 4 1 5
value 4 5 3 20
value 4 6 1 10
value 4 7 1 20
value 5 1 1 20
value 5 2 1 10
value 5 3 3 20
value 5 4 1 5
value 5 5 1 5
value 5 6 3 20
value 5 7 1 10
value 5 8 1 20
value 6 2 1 20
value 6 3 1 10
value 6 4 3 20
value 6 5 1 5
value 6 6 1 5
value 6 7 3 20
value 6 8 1 10
value 6 9 1 20
value 7 3 1 20
value 7 4 1 10
value 7 5 3 20
value 7 6 1 5
value 7 7 1 5
value 7 8 3 20
value 7 9 1 10
value 7 10 1 20
value 8 4 1 20
value 8 5 1 10
value 8 6 3 20
value 8 7 1 5
value 8 8 1 5
value 8 9 3 20
value 8 10 1 10
value 8 11 1 20
value 9 5 1 20
value 9 6 1 10
value 9 7 3 20
value 9 8 1 5
value 9 9 1 5
value 9 10 3 20
value 9 11 1 10
value 9 12 1 20
value 10 6 1 20
value 10 7 1 10
value 10 8 3 20
value 10 9 1 5
value 10 10 1 5
value 10 11 3 20
value 10 12 1 10
value 10 13 1 20
value 11 7 1 20
value 11 8 1 10
value 11 9 3 20
value 11 10 1 5
value 11 11 1 5
value 11 12 3 20
value 11 13 1 10
value 11 14 1 20
value 12 8 1 20
value 12 9 1 10
value 12 10 3 20
value 12 11 1 5
value 12 12 1 5
value 12 13 3 20
value 12 14 1 10
value 12 15 1 20
value 13 9 1 20
value 13 10 1 10
value 13 11 3 20
value 13 12 1 5
value 13 13 1 5
value 13 14 3 20
value 13 15 1 10
value 13 16 1 20
value 14 10 1 20
value 14 11 1 10
value 14 12 3 20
value 14 13 1 5
value 14 14 1 5
value 14 15 3 20
value 14 16 1 10
value 14 17 1 20
value 15 11 1 20
value 15 12 1 10
value 15 13 3 20
value 15 14 1 5
value 15 15 1 5
value 15 16 3 20
value 15 17 1 10
value 15 18 1 20
value 16 12 1 20
value 16 13 1 10
value 16 14 3 20
value 16 15 1 4
value 16 16 1 5
value 16 17 3 20
value 16 18 1 10
value 17 13 1 21
value 17 14 2 21
value 17 15 2 7
value 17 16 5 21
value 17 17 4 21
value 17 18 1 7
value 18 14 1 23
value 18 15 7 23
value 18 16 6 23
value 18 17 5 23
value 18 18 4 23
value 19 15 4 13
value 19 16 7 26
value 19 17 3 13
value 19 18 5 26
end
'''

GOLDEN_DELTA_STDOUT = '''\
{
 "certificate": {
  "boundedness": {
   "bound": {
    "frac": [
     19,
     1
    ]
   },
   "max_diameter": {
    "frac": [
     7,
     1
    ]
   },
   "ok": true,
   "witness": 3
  },
  "delta": {
   "frac": [
    1,
    2
   ]
  },
  "lebesgue_ok": true,
  "lebesgue_pair": null,
  "lipschitz_allowance": {
   "frac": [
    1,
    1
   ]
  },
  "lipschitz_ok": true,
  "lipschitz_pair": [
   3,
   4
  ],
  "lipschitz_value": {
   "frac": [
    2,
    5
   ]
  },
  "ok": true
 },
 "construction": "certify-delta-pu"
}
'''

GOLDEN_FILLER_PU = '''\
partition-of-unity
points 40
vertices 0 1
value 0 0 1 2
value 0 1 1 2
value 1 0 1 2
value 1 1 1 2
value 2 0 1 2
value 2 1 1 2
value 3 0 1 2
value 3 1 1 2
value 4 0 1 2
value 4 1 1 2
value 5 0 1 2
value 5 1 1 2
value 6 0 1 2
value 6 1 1 2
value 7 0 1 2
value 7 1 1 2
value 8 0 1 2
value 8 1 1 2
value 9 0 1 2
value 9 1 1 2
value 10 0 27 52
value 10 1 25 52
value 11 0 7 13
value 11 1 6 13
value 12 0 29 52
value 12 1 23 52
value 13 0 15 26
value 13 1 11 26
value 14 0 31 52
value 14 1 21 52
value 15 0 8 13
value 15 1 5 13
value 16 0 33 52
value 16 1 19 52
value 17 0 17 26
value 17 1 9 26
value 18 0 35 52
value 18 1 17 52
value 19 0 9 13
value 19 1 4 13
value 20 0 37 52
value 20 1 15 52
value 21 0 19 26
value 21 1 7 26
value 22 0 3 4
value 22 1 1 4
value 23 0 10 13
value 23 1 3 13
value 24 0 41 52
value 24 1 11 52
value 25 0 21 26
value 25 1 5 26
value 26 0 43 52
value 26 1 9 52
value 27 0 11 13
value 27 1 2 13
value 28 0 45 52
value 28 1 7 52
value 29 0 23 26
value 29 1 3 26
value 30 0 47 52
value 30 1 5 52
value 31 0 12 13
value 31 1 1 13
value 32 0 49 52
value 32 1 3 52
value 33 0 25 26
value 33 1 1 26
value 34 0 51 52
value 34 1 1 52
value 35 0 1 1
value 36 0 1 1
value 37 0 1 1
value 38 0 1 1
value 39 0 1 1
end
'''


def test_golden_bytes_of_map_certificate_and_blend(tmp_path, capsys):
    pu = tmp_path / "P"
    assert main(["phi", "--space", "line20", "--cover", "st:3", "--out-pu", str(pu)]) == 0
    assert capsys.readouterr().out == GOLDEN_PHI_STDOUT
    assert pu.read_text() == GOLDEN_PHI_PU
    assert main(["certify", "delta", "--metric", "line20", "--pu", str(pu),
                 "--delta", "1/2", "--diam", "19"]) == 0
    assert capsys.readouterr().out == GOLDEN_DELTA_STDOUT
    blended = tmp_path / "F"
    code, doc = run_cli(capsys, "filler", "--space", "line40", "--n", "1", "--eps", "1",
                        "--a-end", "10", "--diam", "39", "--out-pu", str(blended))
    assert code == 0
    assert blended.read_text() == GOLDEN_FILLER_PU
    assert (doc["measured_variation"], doc["min_peak_weight"], doc["max_deviation_on_anchors"],
            doc["certificate"]["variation_pair"]) == (F(1, 26), F(1, 2), 0, [9, 10])


# --- fuzzing: mutated input files through the CLI -----------------------------

def _fuzz_seeds():
    line = gen_line(6)
    cover = line.staggered(2)
    return {
        "space": dump_space(line.space),
        "cover": dump_cover(cover),
        "pu": dump_pu(barycentric_map(line.space.gauge, cover)),
        "metric": dump_metric(FiniteMetricSpace.line(6)),
    }


FUZZ_SEEDS = _fuzz_seeds()
# small counts only, so that a mutated points line stays cheap to check
FUZZ_TOKENS = ["0", "1", "2", "5", "6", "7", "-1", "1/2", "0.5", "x", "inf", "end", "points",
               "value", "distance", "element", "gauge", ":", "vertices", "cover relaxed"]
FUZZ_COMMANDS = [
    ["phi", "--space", "{space}", "--cover", "{cover}"],
    ["certify", "pu", "--space", "{space}", "--pu", "{pu}", "--cover", "{cover}",
     "--eps", "1", "--diam", "3"],
    ["certify", "delta", "--metric", "{metric}", "--pu", "{pu}", "--delta", "1/2",
     "--diam", "5"],
    ["asdim", "check", "--space", "{space}", "--cover-u", "gauge", "--cover-v", "{cover}",
     "--n", "1"],
]
fuzz_edit = st.tuples(st.sampled_from(["delete", "repeat", "swap", "replace", "insert"]),
                      st.integers(0, 60), st.integers(0, 8), st.sampled_from(FUZZ_TOKENS))


def _mutate(text, edits):
    lines = text.splitlines()
    for kind, at, other, token in edits:
        if not lines:
            break
        i = at % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = other % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "replace":
            tokens = lines[i].split() or [""]
            tokens[other % len(tokens)] = token
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, " ".join([token] + lines[other % len(lines)].split()[1:]))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS),
       st.dictionaries(st.sampled_from(sorted(FUZZ_SEEDS)), st.lists(fuzz_edit, min_size=1,
                                                                      max_size=4),
                       min_size=1))
def test_mutated_files_keep_the_exit_contract(command, edits):
    # whatever the files hold, main returns 0, 1 or 2 and prints one document;
    # an exception escaping main fails the test with its traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for kind, text in FUZZ_SEEDS.items():
            paths[kind] = Path(tmp) / f"{kind}.txt"
            paths[kind].write_text(_mutate(text, edits[kind]) if kind in edits else text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([arg.format_map(paths) for arg in command])
    assert code in (0, 1, 2)
    doc = doc_loads(out.getvalue())
    assert isinstance(doc, dict)
    assert (code == 2) == ("error" in doc)
