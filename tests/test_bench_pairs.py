"""Tests for the alternating-pairs benchmark script ``tools/bench_pairs.py``."""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(**metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}


def test_summary_reads_pair_ratios_and_parent_spread():
    # The host doubles its speed after the second pair: medians over all runs
    # mix both speeds, the pair ratios do not.
    pairs = [
        (_result(wall_s=0.4, cpu_s=0.4), _result(wall_s=0.32, cpu_s=0.36)),
        (_result(wall_s=0.5, cpu_s=0.4), _result(wall_s=0.40, cpu_s=0.38)),
        (_result(wall_s=0.2, cpu_s=0.2), _result(wall_s=0.17, cpu_s=0.18)),
        (_result(wall_s=0.25, cpu_s=0.2), _result(wall_s=0.2, cpu_s=0.2)),
    ]
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == ["wall_s", "cpu_s"]
    wall = summary["wall_s"]
    assert wall["ratios"] == pytest.approx([0.8, 0.8, 0.85, 0.8])
    assert wall["median_ratio"] == pytest.approx(0.8)
    assert (wall["min_ratio"], wall["max_ratio"]) == pytest.approx((0.8, 0.85))
    assert wall["pairs_below_1"] == 4 and summary["cpu_s"]["pairs_below_1"] == 3
    assert wall["parent_median"] == pytest.approx(0.325)
    assert wall["change_median"] == pytest.approx(0.26)
    assert wall["parent_iqr"] == pytest.approx(0.4750 - 0.2125)
    assert summary["cpu_s"]["median_ratio"] == pytest.approx(0.925)


def test_summary_keeps_metrics_every_run_reports():
    pairs = [
        (_result(wall_s=1.0, setup_s=0.5), _result(wall_s=0.9, setup_s=0.5)),
        (_result(wall_s=1.0, setup_s=0.5), _result(wall_s=1.1)),
    ]
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == ["wall_s"]
    assert summary["wall_s"]["median_ratio"] == pytest.approx(1.0)


def test_one_pair_and_a_zero_parent_value():
    pair = (_result(wall_s=0.0, cpu_s=2.0), _result(wall_s=0.1, cpu_s=1.0))
    summary = bench_pairs.summarize([pair])
    assert math.isnan(summary["wall_s"]["ratios"][0])
    assert summary["cpu_s"]["ratios"] == [0.5] and summary["cpu_s"]["parent_iqr"] == 0.0
