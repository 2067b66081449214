"""Tests for the fixed-work probe ``tools/op_probe.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("op_probe", ROOT / "tools" / "op_probe.py")
op_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_probe)


def test_process_row_leaves_out_the_warm_up_faults():
    result = {"maxrss_mb": 48.5, "op_ms": [90.0, 30.0, 20.0, 25.0],
              "faults": [5000, 3000, 10, 40], "traced_peak_mb": 5.5}
    row = op_probe.process_row(result)
    assert row == {"maxrss_mb": 48.5, "op_ms": 27.5, "faults_med": 25.0, "faults_max": 40,
                   "traced_peak_mb": 5.5}


def test_summary_counts_pairs_lower_on_the_change_side():
    def row(rss, ms, med, top, traced):
        return dict(zip(op_probe.COLUMNS, (rss, ms, med, top, traced)))

    pairs = [
        (row(48.0, 200.0, 3000, 4000, 6.0), row(47.0, 190.0, 10, 20, 5.5)),
        (row(48.2, 180.0, 400, 3500, 6.1), row(47.1, 185.0, 0, 18, 6.1)),
        (row(47.9, 210.0, 3100, 4100, 5.9), row(47.9, 200.0, 5, 30, 5.4)),
    ]
    summary = op_probe.summarize(pairs)
    assert list(summary) == list(op_probe.COLUMNS)
    assert summary["maxrss_mb"] == {"parent_median": 48.0, "change_median": 47.1,
                                    "pairs_lower": 2}  # a tie is not lower
    assert summary["op_ms"]["pairs_lower"] == 2
    assert summary["faults_med"] == {"parent_median": 3000, "change_median": 5,
                                     "pairs_lower": 3}
    assert summary["faults_max"]["change_median"] == 20
    assert summary["traced_peak_mb"] == {"parent_median": 6.0, "change_median": 5.5,
                                         "pairs_lower": 2}


@pytest.mark.parametrize("workload", ["thermal", "synthetic"])
def test_repo_against_itself_at_tiny_size(workload, capsys):
    code = op_probe.main([str(ROOT), str(ROOT), "--workload", workload, "--ops", "3",
                          "--procs", "2", "--size", "tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "pair,side,first,maxrss_mb,op_ms,faults_med,faults_max,traced_peak_mb"
    assert [line.split(",")[:3] for line in lines[1:5]] == [
        ["0", "parent", "parent"], ["0", "change", "parent"],
        ["1", "change", "change"], ["1", "parent", "change"],
    ]
    for line in lines[1:5]:
        rss, ms, med, top, traced = map(float, line.split(",")[3:])
        assert rss > 10 and ms > 0 and 0 <= med <= top
        # The traced peak counts the operation's arrays alone, not the interpreter.
        assert 0 < traced < rss
    assert lines[5] == "column,parent_median,change_median,pairs_lower"
    assert [line.split(",")[0] for line in lines[6:]] == list(op_probe.COLUMNS)


def test_too_few_operations_are_rejected():
    with pytest.raises(SystemExit):
        op_probe.main([str(ROOT), str(ROOT), "--workload", "thermal", "--ops", "2",
                       "--procs", "1"])


def test_a_failed_process_exits_1(tmp_path, capsys):
    # A directory without the package source cannot run an operation.
    code = op_probe.main([str(tmp_path), str(ROOT), "--workload", "thermal", "--ops", "3",
                          "--procs", "1", "--size", "tiny"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"op_probe: {tmp_path}: no JSON result")
