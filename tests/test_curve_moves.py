"""Tests for the curve-move report script ``tools/curve_moves.py``."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "curve_moves", Path(__file__).resolve().parent.parent / "tools" / "curve_moves.py"
)
curve_moves = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(curve_moves)

HEADER = "method,rep,i,target,value\n"


def _write(path, rows):
    path.write_text(HEADER + "".join(f"{r}\n" for r in rows))
    return str(path)


def test_counts_moved_rows_relative_to_each_curves_first_value(tmp_path, capsys):
    before = _write(tmp_path / "a.csv", [
        "post,0,0,M,2.0", "post,0,1,M,1.0", "post,1,0,M,4.0", "post,1,1,M,1.0",
        "bound,0,0,bound,inf", "bound,0,1,bound,0.5",
    ])
    after = _write(tmp_path / "b.csv", [
        "post,0,0,M,2.0", "post,0,1,M,1.1", "post,1,0,M,4.0", "post,1,1,M,1.2",
        "bound,0,0,bound,inf", "bound,0,1,bound,0.5",
    ])
    assert curve_moves.main([before, after]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["bound,bound,2,0,0.00e+00", "post,M,4,2,5.00e-02"]


def test_infinite_or_zero_first_values(tmp_path):
    before = {("b", "0", 0, "bound"): "inf", ("b", "0", 1, "bound"): "1.0",
              ("z", "0", 0, "M"): "0.0", ("z", "0", 1, "M"): "1.0"}
    after = {("b", "0", 0, "bound"): "inf", ("b", "0", 1, "bound"): "inf",
             ("z", "0", 0, "M"): "0.0", ("z", "0", 1, "M"): "2.0"}
    report = curve_moves.curve_moves(before, after)
    assert report[("b", "bound")][:2] == (2, 1) and math.isinf(report[("b", "bound")][2])
    assert report[("z", "M")][:2] == (2, 1) and math.isnan(report[("z", "M")][2])


def test_infinite_first_value_scales_by_first_finite_value():
    before = {("b", "0", i, "bound"): v for i, v in enumerate(["inf", "inf", "4.0", "2.0"])}
    after = dict(before) | {("b", "0", 3, "bound"): "2.5"}
    assert curve_moves.curve_moves(before, after)[("b", "bound")] == (4, 1, 0.125)
    before[("b", "0", 2, "bound")] = after[("b", "0", 2, "bound")] = "0.0"
    assert math.isnan(curve_moves.curve_moves(before, after)[("b", "bound")][2])


def test_different_rows_exit_1(tmp_path):
    before = _write(tmp_path / "a.csv", ["post,0,0,M,2.0"])
    after = _write(tmp_path / "b.csv", ["post,0,0,M,2.0", "post,0,1,M,1.0"])
    assert curve_moves.main([before, after]) == 1
    with pytest.raises(ValueError):
        curve_moves.curve_moves(curve_moves.read_curves(before), curve_moves.read_curves(after))


def test_run_directories_add_manifest_scalars(tmp_path, capsys):
    for name, beta, extra in (("a", "0.5", {}), ("b", "0.25", {"n_prior": 3})):
        run = tmp_path / name
        run.mkdir()
        _write(run / "curves.csv", ["post,0,0,M,2.0"])
        manifest = {"eps_prime": "1e-09", "eps_intrinsic": "0.1", "beta": beta, **extra}
        (run / "manifest.json").write_text(json.dumps(manifest))
    assert curve_moves.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "method,target,rows,moved,worst_rel_move", "post,M,1,0,0.00e+00",
        "scalar,before,after", "eps_prime,1e-09,1e-09", "eps_intrinsic,0.1,0.1",
        "beta,0.5,0.25", "n_prior,-,3",
    ]


@pytest.mark.parametrize("missing", ["csv", "curves.csv", "manifest.json"])
def test_missing_file_exits_2_with_one_line(tmp_path, capsys, missing):
    for name in ("a", "b"):
        run = tmp_path / name
        run.mkdir()
        _write(run / "curves.csv", ["post,0,0,M,2.0"])
        (run / "manifest.json").write_text("{}")
    if missing == "csv":
        args = [str(tmp_path / "a" / "curves.csv"), str(tmp_path / "b" / "gone.csv")]
    else:
        (tmp_path / "b" / missing).unlink()
        args = [str(tmp_path / "a"), str(tmp_path / "b")]
    assert curve_moves.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("curve_moves: cannot read ")
    assert str(tmp_path / "b") in captured.err
