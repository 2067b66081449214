"""Benchmark of ``partialrom``: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload thermal --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
``--trace 0`` repeats untraced operations for ``--seconds`` and reports the
end-to-end metrics (medians per operation).  ``--trace 1`` alternates one
untraced and one traced pass of the workload until ``--seconds`` have passed
and reports the per-layer metrics of the traced passes.  Every operation's
output is checked; the last stdout line is the JSON result.  Run records, the
spans of traced runs and the written ``curves.csv`` go to ``.perfbench_runs/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median of 1 + this
#: Thread-count variables of the BLAS builds numpy may use.  Unless the caller
#: sets them, they are pinned to 1: with BLAS at its default of one thread per
#: core, run-to-run medians on a 2-vCPU virtual machine spread 17-25%
#: (interquartile range over median, five seeds), against 7-12% single-threaded.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: Spans of benchmark glue rather than of a call into a package layer.
GLUE_SPANS = ("op", "experiment.run")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("thermal", "synthetic", "widths_mc", "widths_highdim"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long variant used by the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time of a fresh interpreter and exit")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path; fail if it is missing."""
    if not (SRC / "partialrom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'partialrom'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import partialrom

    if Path(partialrom.__file__).resolve().parent != (SRC / "partialrom").resolve():
        sys.exit(f"perfbench: imported partialrom from {partialrom.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def setup_probe(args) -> float:
    """Set-up time (imports + inputs) measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--size", args.size,
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Op:
    wall: float
    cpu: float
    problems: list
    partial_warnings: int = 0
    csv_sha256: str | None = None


def timed_op(workload, inputs, k: int, out_dir: Path, tracer) -> Op:
    """Run operation ``k`` with the timer around the program calls only, then check it."""
    from partialrom.errors import PartialSampleWarning

    tracer.op = k
    outcome = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PartialSampleWarning)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span("op"):
                outcome = workload.run_op(inputs, k, out_dir, tracer)
            problems = []
        except Exception:  # a failing operation is counted, and the run goes on
            problems = [traceback.format_exc(limit=3)]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    partial = sum(issubclass(w.category, PartialSampleWarning) for w in caught)
    tracer.add("sampling.partial_warnings", partial)
    op = Op(wall, cpu, problems, partial)
    if outcome is not None:
        try:
            op.problems = workload.check(inputs, outcome)
            csv_path = getattr(outcome, "csv_path", None)
            if csv_path is not None:
                op.csv_sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
                tracer.add("experiment.csv_bytes", csv_path.stat().st_size)
        except Exception:
            op.problems = [traceback.format_exc(limit=3)]
    return op


def run_pass(workload, inputs, out_dir: Path, tracer) -> list[Op]:
    return [timed_op(workload, inputs, k, out_dir, tracer) for k in range(workload.pass_ops(inputs))]


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tr, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; ``_s`` metrics are self times."""
    dur, self_t, c = tr.durations(), tr.self_times(), tr.counts
    solves = dur.get("thermal.solve", [])
    single = self_t.get("sampling.single", 0.0)
    draws = c["sampling.multi_draws"]
    covered = sum(t for name, t in self_t.items() if name not in GLUE_SPANS)
    return {
        "thermal.assembly_s": (self_t.get("thermal.assembly", 0.0), "s"),
        "thermal.solves": (len(solves), "count"),
        "thermal.solve_s": (sum(solves), "s"),
        "thermal.solve_ms_p50": (percentile(solves, 50) * 1e3, "ms"),
        "thermal.solve_ms_p95": (percentile(solves, 95) * 1e3, "ms"),
        "worlds.build_s": (sum(dur.get("worlds.build", [])), "s"),
        "worlds.self_s": (self_t.get("worlds.build", 0.0), "s"),
        "bases.suitable_s": (self_t.get("bases.suitable", 0.0), "s"),
        "bases.u_basis_s": (self_t.get("bases.u_basis", 0.0), "s"),
        "sampling.single_s": (single, "s"),
        "sampling.single_samples": (c["sampling.single_samples"], "count"),
        "sampling.single_us_per_sample": (
            single / c["sampling.single_samples"] * 1e6 if c["sampling.single_samples"] else 0.0,
            "us",
        ),
        "sampling.multi_s": (self_t.get("sampling.multi", 0.0), "s"),
        "sampling.multi_draws": (draws, "count"),
        "sampling.multi_accepted": (c["sampling.multi_accepted"], "count"),
        "sampling.multi_acceptance_ratio": (
            c["sampling.multi_accepted"] / draws if draws else 0.0, "ratio"
        ),
        "sampling.multi_incomplete_points": (c["sampling.multi_incomplete_points"], "count"),
        "sampling.partial_warnings": (c["sampling.partial_warnings"], "count"),
        "estimate.manifold_s": (self_t.get("estimate.manifold", 0.0), "s"),
        "greedy.s": (self_t.get("greedy", 0.0), "s"),
        "greedy.calls": (len(dur.get("greedy", [])), "count"),
        "greedy.rows": (c["greedy.rows"], "count"),
        "geometry.prefix_widths_s": (self_t.get("geometry.prefix_widths", 0.0), "s"),
        "geometry.prefix_widths_calls": (len(dur.get("geometry.prefix_widths", [])), "count"),
        "bounds.closed_form_s": (self_t.get("bounds.closed_form", 0.0), "s"),
        "bounds.proof_subspace_s": (self_t.get("bounds.proof_subspace", 0.0), "s"),
        "bounds.proof_subspaces": (len(dur.get("bounds.proof_subspace", [])), "count"),
        "bounds.empirical_width_s": (self_t.get("bounds.empirical_width", 0.0), "s"),
        "bounds.width_checks": (len(dur.get("bounds.empirical_width", [])), "count"),
        "experiment.write_s": (self_t.get("experiment.write", 0.0), "s"),
        "experiment.csv_bytes": (c["experiment.csv_bytes"], "bytes"),
        "experiment.self_s": (self_t.get("experiment.run", 0.0), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.coverage": (covered / traced_wall if traced_wall > 0 else 0.0, "ratio"),
    }


#: Per-layer metrics that count work; they must repeat exactly between passes.
COUNT_UNITS = ("count", "bytes")


def measure_untraced(workload, inputs, out_dir, seconds):
    from tracing import NullTracer

    ops, start = [], time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(timed_op(workload, inputs, len(ops), out_dir, NullTracer()))
    # The first operation in a process runs 20-30% slower (heap growth, first
    # BLAS calls); it is checked but, when there are others, not timed.
    timed = ops[1:] or ops
    metrics = {
        "wall_s": (statistics.median(op.wall for op in timed), "s"),
        "cpu_s": (statistics.median(op.cpu for op in timed), "s"),
    }
    return ops, metrics, {}


def measure_traced(workload, inputs, out_dir, seconds):
    from tracing import NullTracer, Tracer

    start = time.perf_counter()
    # Warm up (see measure_untraced) so that the untraced/traced comparison is fair.
    ops, rounds, extra = [timed_op(workload, inputs, 0, out_dir, NullTracer())], [], {}
    while not rounds or time.perf_counter() - start < seconds:
        plain = run_pass(workload, inputs, out_dir, NullTracer())
        tr = Tracer()
        traced = run_pass(workload, inputs, out_dir, tr)
        ops += plain + traced
        rounds.append(layer_metrics(tr, sum(o.wall for o in traced), sum(o.wall for o in plain)))
        if len(rounds) == 1:
            trace = tr.to_json()
            (out_dir / "trace.json").write_text(json.dumps(trace) + "\n")
            extra["replay_matches_untraced_csv"] = (
                [o.csv_sha256 for o in plain] == [o.csv_sha256 for o in traced]
                if plain[0].csv_sha256 else None
            )
            extra["per_op_counts"] = trace["per_op"]
    for name, (value, unit) in rounds[0].items():
        if unit in COUNT_UNITS and any(r[name][0] != value for r in rounds[1:]):
            ops[0].problems.append(f"{name} differs between traced passes")
    metrics = {
        name: (value if unit in COUNT_UNITS else statistics.median(r[name][0] for r in rounds), unit)
        for name, (value, unit) in rounds[0].items()
    }
    extra["rounds"] = len(rounds)
    return ops, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_ENV:  # must precede the first numpy import
        os.environ.setdefault(name, "1")
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.size == "tiny")
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(own_setup))
        return 0

    load_before = os.getloadavg()
    setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    out_dir = RUNS_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    measure = measure_traced if args.trace else measure_untraced
    ops, metrics, extra = measure(workload, inputs, out_dir, args.seconds)

    digests = {op.csv_sha256 for op in ops if op.csv_sha256}
    if len(digests) > 1:
        ops[-1].problems.append(f"curves.csv differs between operations: {sorted(digests)}")
    attempted = len(ops)
    failed = sum(bool(op.problems) for op in ops)
    if args.trace:
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": {**environment(), "loadavg_before": load_before,
                        "loadavg_after": os.getloadavg()},
        "setup_s_samples": setups,
        "curves_sha256": sorted(digests),
        "ops": [{"wall_s": op.wall, "cpu_s": op.cpu, "partial_warnings": op.partial_warnings,
                 "problems": op.problems} for op in ops],
        "fail_ratio": failed / attempted,
        **extra,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for op in ops:
        for problem in op.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("RECORD " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"METRIC {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
