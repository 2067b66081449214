"""Tests for the alternating-pairs benchmark script ``tools/bench_pairs.py``."""

import importlib.util
import json
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


def _pairs(parent_values, change_values, name="wall_s"):
    return [(_result(**{name: b}), _result(**{name: a})) for b, a in zip(parent_values, change_values)]


PARENT_TEN = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # IQR 0.0225


def test_claim_needs_nine_tenths_better_and_a_drop_beyond_the_parent_iqr():
    nine = [0.9 * v for v in PARENT_TEN[:9]] + [1.05]
    assert bench_pairs.summarize(_pairs(PARENT_TEN, nine))["wall_s"]["claim"]
    eight = [0.9 * v for v in PARENT_TEN[:8]] + [1.05, 1.05]
    s = bench_pairs.summarize(_pairs(PARENT_TEN, eight))["wall_s"]
    assert s["pairs_better"] == 8 and not s["claim"]
    # Better in every pair, but the medians differ by less than the parent's IQR.
    slight = [v - 0.01 for v in PARENT_TEN]
    s = bench_pairs.summarize(_pairs(PARENT_TEN, slight))["wall_s"]
    assert s["pairs_better"] == 10 and s["parent_iqr"] > 0.01 and not s["claim"]


def test_ties_count_for_neither_side():
    s = bench_pairs.summarize(_pairs(PARENT_TEN, PARENT_TEN))["wall_s"]
    assert s["pairs_better"] == 0 and not s["claim"]


def test_direction_and_bound_come_from_the_benchmark_spec():
    specs = {"ratio": {"name": "ratio", "better": "higher"},
             "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25}}
    higher = [1.2 * v for v in PARENT_TEN]
    s = bench_pairs.summarize(_pairs(PARENT_TEN, higher, "ratio"), specs)["ratio"]
    assert s["pairs_better"] == 10 and s["pairs_below_1"] == 0 and s["claim"]
    assert s["beyond_bound"] is None
    worse = bench_pairs.summarize(_pairs(PARENT_TEN, [1.3 * v for v in PARENT_TEN]), specs)
    within = bench_pairs.summarize(_pairs(PARENT_TEN, [1.2 * v for v in PARENT_TEN]), specs)
    assert worse["wall_s"]["beyond_bound"] and not within["wall_s"]["beyond_bound"]
    assert bench_pairs.summarize(_pairs(PARENT_TEN, PARENT_TEN))["wall_s"]["beyond_bound"] is None


def test_metric_specs_read_the_benchmark_file(tmp_path):
    specs = bench_pairs.metric_specs(Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    assert specs["peak_rss_mb"]["bound"] == 0.15 and specs["peak_rss_mb"]["better"] == "lower"
    assert specs["trace.coverage"]["better"] == "higher" and "bound" not in specs["trace.coverage"]
    assert bench_pairs.metric_specs(tmp_path / "missing.json") == {}


_FAKE_RUN = """
import json, pathlib, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
side = json.loads(pathlib.Path("side.json").read_text())
print("noise")
if "curves" in side:
    print("RECORD " + json.dumps({"seed": seed, "curves_sha256": side["curves"][seed - 1]}))
print(json.dumps({"correct": True, "attempted": side["attempted"] + seed, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": side["rss"], "unit": "MB"}}}))
"""


def test_main_prints_attempted_operations_and_verdicts(tmp_path, capsys):
    # Pair 0 wrote the same curves.csv on both sides, pair 1 did not.
    sides = (("parent", 100, 50.0, ["aa"], ["bb"]), ("change", 150, 45.0, ["aa"], ["cc"]))
    for side, attempted, rss, *curves in sides:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RUN)
        (tmp_path / side / "side.json").write_text(
            json.dumps({"attempted": attempted, "rss": rss, "curves": curves}))
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]}))
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "thermal", "--pairs", "2", "--seconds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[:3] == [
        "pair,seed,first,attempted_ops,failed_ops,curves,peak_rss_mb",
        "0,1,parent,101/151,0/0,same,0.900",
        "1,2,change,102/152,0/0,differs,0.900",
    ]
    assert lines[3].split(",")[-5:] == ["pairs_below_1", "pairs_better", "claim", "bound",
                                        "beyond_bound"]
    assert lines[4].split(",")[-5:] == ["2/2", "2/2", "yes", "0.15", "no"]


def test_a_run_without_a_record_line_has_no_curves_verdict(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RUN)
        (tmp_path / side / "side.json").write_text(json.dumps({"attempted": 1, "rss": 1.0}))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "thermal", "--pairs", "1", "--seconds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,1,parent,2/2,0/0,-,1.000"
