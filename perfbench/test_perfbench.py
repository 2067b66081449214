"""Tests of the benchmark itself, on tiny variants of the four workloads.

    python3 -m pytest -q perfbench
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs the package path set up above)
from partialrom.geometry import SnapshotSet  # noqa: E402
from tracing import NullTracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
SEED = 7


@functools.cache
def run_cli(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """(result, record) of one tiny run; ``repeat`` makes a distinct cached run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD "))
    return json.loads(lines[-1]), record


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_emits_every_metric_with_its_unit(workload, trace):
    result, _ = run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_repeats_counts_and_curves(workload):
    (first, rec1), (second, rec2) = run_cli(workload, 1), run_cli(workload, 1, repeat=1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units.items() if unit in run.COUNT_UNITS]
    assert [first["metrics"][n]["value"] for n in counts] == [
        second["metrics"][n]["value"] for n in counts
    ]
    assert rec1["curves_sha256"] == rec2["curves_sha256"]
    if workload in ("thermal", "synthetic"):
        assert len(rec1["curves_sha256"]) == 1
        assert rec1["replay_matches_untraced_csv"] is True


def _corrupting(sample_posterior):
    """A ``sample_posterior`` whose first draw is pushed off its observation."""

    def corrupted(manifold, w, *args, **kwargs):
        cloud = sample_posterior(manifold, w, *args, **kwargs)
        vectors = cloud.vectors.copy()
        vectors[0] += 1e-3 * w.basis[:, 0]
        return SnapshotSet(vectors)

    return corrupted


def test_check_draws_flags_a_corrupted_draw():
    workload = workloads.WORKLOADS["widths_mc"]
    inputs = workload.make_inputs(SEED, tiny=True)
    outcome = workload.run_op(inputs, 0, None, NullTracer())
    t = outcome.trial
    assert workloads.check_draws(outcome.cloud, t.w, t.prior, t.manifold) == []
    bad = _corrupting(lambda *args, **kwargs: outcome.cloud)(t.manifold, t.w)
    assert workloads.check_draws(bad, t.w, t.prior, t.manifold)


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_draw_counts_as_failure(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "sample_posterior", _corrupting(workloads.sample_posterior))
    assert run.main(["--workload", "widths_mc", "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 1.0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
