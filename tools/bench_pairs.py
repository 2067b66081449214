"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload synthetic --pairs 10 --seconds 12

Pair k (k = 0 .. K-1) runs ``perfbench/run.py --workload W --seed FIRST+k
--seconds S --trace 0`` (FIRST is ``--first-seed``, default 1) once in each
checkout, from that checkout's root; the parent goes first in even pairs and
the change in odd ones, so that a host whose speed drifts during the round
weighs on both sides alike.  Each run's last stdout line is its JSON result.
The script prints one CSV row per pair with its failed operations
(parent/change) and the change/parent ratio of every metric both runs report
(untraced runs report the end-to-end metrics), then per metric the parent and
change medians, the parent's interquartile range, the median and range of the
pair ratios, and how many pairs read below 1.  Ratios, not medians over all
runs, are what a drifting host leaves comparable.  Exits 1, with one line on
stderr, if a run fails or its last line is not a JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode:
            raise ValueError(f"exit {proc.returncode}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        raise RuntimeError(f"{checkout} seed {seed}: no JSON result ({exc})") from None


def summarize(pairs: list[tuple[dict, dict]]) -> dict[str, dict]:
    """Per metric: the pair ratios (change / parent), their median, min and
    max, how many are below 1, the parent and change medians, and the
    parent's interquartile range.

    ``pairs`` holds (parent, change) JSON results; a metric counts only if
    every run reports it.
    """
    names = [name for name in pairs[0][0]["metrics"]
             if all(name in run["metrics"] for pair in pairs for run in pair)]
    summary = {}
    for name in names:
        before = [p["metrics"][name]["value"] for p, _ in pairs]
        after = [c["metrics"][name]["value"] for _, c in pairs]
        ratios = [a / b if b else float("nan") for a, b in zip(after, before)]
        quartiles = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
        summary[name] = {
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
            "pairs_below_1": sum(r < 1.0 for r in ratios),
            "parent_median": statistics.median(before),
            "change_median": statistics.median(after),
            "parent_iqr": quartiles[2] - quartiles[0],
        }
    return summary


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        try:
            runs = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                    for side in order}
        except RuntimeError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        pairs.append((runs["parent"], runs["change"]))
        pair = summarize(pairs[-1:])
        if k == 0:
            print("pair,seed,first,failed_ops," + ",".join(pair))
        failed = f"{runs['parent']['failed']}/{runs['change']['failed']}"
        ratios = ",".join(f"{s['ratios'][0]:.3f}" for s in pair.values())
        print(f"{k},{seed},{order[0]},{failed},{ratios}", flush=True)

    print("metric,parent_median,change_median,parent_iqr,median_ratio,min_ratio,max_ratio,"
          "pairs_below_1")
    for name, s in summarize(pairs).items():
        print(f"{name},{s['parent_median']:.6g},{s['change_median']:.6g},{s['parent_iqr']:.3g},"
              f"{s['median_ratio']:.3f},{s['min_ratio']:.3f},{s['max_ratio']:.3f},"
              f"{s['pairs_below_1']}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
