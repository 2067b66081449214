"""Compare two checkouts at fixed work: K operations in each fresh process.

    python tools/op_probe.py PARENT CHANGE --workload thermal --ops 25 --procs 5

A ``perfbench`` run reads ``peak_rss_mb`` at the end of a fixed-length run,
so it grows with the operations the run completes, and a faster change does
more of them.  This probe holds the work fixed instead.  Each process is a
fresh interpreter started in one checkout's root, with every BLAS thread
variable ``perfbench/run.py`` knows set to 1.  It imports the package from
that checkout's ``src/`` and runs K operations as an untraced ``perfbench``
run does: one ``run_experiment`` and one ``write`` on the config of
``perfbench/workloads.py`` (``--size full`` or ``tiny``).  Operation k uses
seed FIRST + k (``--first-seed``, default 1), so every process does the same
work.  P pairs of processes run (``--procs``); the parent goes first in even
pairs and the change in odd ones.

One CSV row per process gives its ``ru_maxrss`` in MB, its median operation
time in ms, the median and largest count of minor page faults of one
operation from the third on (the first two load the imports and warm the
allocator), and the ``tracemalloc`` peak in MB of one more operation (seed
FIRST + K) run after the K timed ones and after ``ru_maxrss`` is read, so
no other column sees the tracing.  Unlike ``ru_maxrss`` and the fault
counts, that peak counts the operation's own allocations only, whatever the
allocator keeps or returns to the system.  A summary follows with, per
column, the parent and change medians and how many pairs read lower on the
change side.  Exits 1, with one
line on stderr, if a process fails or its last line is not a JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Thread-count variables of the BLAS builds numpy may use (as in perfbench/run.py).
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: Operations whose faults are left out of a process's fault columns.
WARM_OPS = 2
COLUMNS = ("maxrss_mb", "op_ms", "faults_med", "faults_max", "traced_peak_mb")

_CHILD = """
import json, resource, sys, tempfile, time, tracemalloc
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import partialrom
if Path(partialrom.__file__).resolve().parent != Path("src", "partialrom").resolve():
    sys.exit(f"imported partialrom from {partialrom.__file__}, not from ./src")
from partialrom.experiment import run_experiment
from workloads import WORKLOADS
workload, tiny, first, ops = sys.argv[1], sys.argv[2] == "tiny", int(sys.argv[3]), int(sys.argv[4])
op_ms, faults = [], []
with tempfile.TemporaryDirectory() as out_dir:
    for k in range(ops):
        cfg = WORKLOADS[workload].make_inputs(first + k, tiny)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        run_experiment(cfg).write(Path(out_dir))
        op_ms.append(1e3 * (time.perf_counter() - t0))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cfg = WORKLOADS[workload].make_inputs(first + ops, tiny)
    tracemalloc.start()
    run_experiment(cfg).write(Path(out_dir))
    traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
print(json.dumps({"maxrss_mb": maxrss_mb, "op_ms": op_ms, "faults": faults,
                  "traced_peak_mb": traced_peak_mb}))
"""


def run_process(checkout: Path, workload: str, size: str, first_seed: int, ops: int) -> dict:
    """The JSON result of one fresh process running ``ops`` operations in ``checkout``."""
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    cmd = [sys.executable, "-c", _CHILD, workload, size, str(first_seed), str(ops)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode:
            raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        raise RuntimeError(f"{checkout}: no JSON result ({exc})") from None


def process_row(result: dict) -> dict[str, float]:
    """A process's columns: ``ru_maxrss`` (MB), median operation time (ms), the
    median and largest fault count of the operations after ``WARM_OPS``, and
    the traced peak (MB) of the extra operation."""
    faults = result["faults"][WARM_OPS:]
    return {
        "maxrss_mb": result["maxrss_mb"],
        "op_ms": statistics.median(result["op_ms"]),
        "faults_med": statistics.median(faults),
        "faults_max": max(faults),
        "traced_peak_mb": result["traced_peak_mb"],
    }


def summarize(pairs: list[tuple[dict, dict]]) -> dict[str, dict]:
    """Per column of (parent, change) process rows: both sides' medians and the
    number of pairs whose change row reads lower."""
    return {
        name: {
            "parent_median": statistics.median(p[name] for p, _ in pairs),
            "change_median": statistics.median(c[name] for _, c in pairs),
            "pairs_lower": sum(c[name] < p[name] for p, c in pairs),
        }
        for name in COLUMNS
    }


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=("thermal", "synthetic"))
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--procs", type=int, required=True, help="pairs of processes")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.ops <= WARM_OPS:
        p.error(f"--ops must be > {WARM_OPS}")
    if args.procs < 1:
        p.error("--procs must be >= 1")

    print("pair,side,first," + ",".join(COLUMNS))
    pairs = []
    for k in range(args.procs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        rows = {}
        for side in order:
            try:
                result = run_process(getattr(args, side), args.workload, args.size,
                                     args.first_seed, args.ops)
            except RuntimeError as exc:
                print(f"op_probe: {exc}", file=sys.stderr)
                return 1
            rows[side] = process_row(result)
            values = ",".join(f"{rows[side][name]:.6g}" for name in COLUMNS)
            print(f"{k},{side},{order[0]},{values}", flush=True)
        pairs.append((rows["parent"], rows["change"]))

    print("column,parent_median,change_median,pairs_lower")
    for name, s in summarize(pairs).items():
        print(f"{name},{s['parent_median']:.6g},{s['change_median']:.6g},"
              f"{s['pairs_lower']}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
