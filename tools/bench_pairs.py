"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload synthetic --pairs 10 --seconds 12

Pair k (k = 0 .. K-1) runs ``perfbench/run.py --workload W --seed FIRST+k
--seconds S --trace 0`` (FIRST is ``--first-seed``, default 1) once in each
checkout, from that checkout's root; the parent goes first in even pairs and
the change in odd ones, so that a host whose speed drifts during the round
weighs on both sides alike.  Each run's last stdout line is its JSON result,
and its ``RECORD`` line holds the SHA-256 of the ``curves.csv`` it wrote
(``curves_sha256``).  The script prints one CSV row per pair with its
attempted and failed operations (parent/change each), whether the two runs
wrote the same ``curves.csv`` (``curves``: ``same``, ``differs``, or ``-``
where a run reports no digest), and the change/parent ratio of every metric
both runs report (untraced runs report the end-to-end metrics), then per
metric the parent and change medians, the parent's interquartile range, the
median and range of the pair ratios, how many pairs read below 1, and how many
read better in the metric's direction.  Ratios, not medians over all runs, are
what a drifting host leaves comparable.  A run's ``peak_rss_mb`` grows with the
operations it completes, so compare it at like attempted counts.

Each metric's direction (``better``) and regression ``bound`` are read from
PARENT's ``BENCHMARK.json`` (a metric it does not name counts lower as
better, with no bound).  Two verdicts follow per metric:
``claim`` is ``yes`` when at least nine tenths of the pairs read better and the
medians differ in that direction by more than the parent's interquartile
range; ``beyond_bound`` is ``yes`` when the change median is worse than the
parent median by more than ``bound`` of it (``-`` without a bound).  Exits 1,
with one line on stderr, if a run fails or its last line is not a JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced benchmark run in ``checkout``, with the
    ``curves_sha256`` of its ``RECORD`` line (``None`` without one)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode:
            raise ValueError(f"exit {proc.returncode}")
        result = json.loads(lines[-1])
        records = [json.loads(line[7:]) for line in lines if line.startswith("RECORD ")]
        result["curves_sha256"] = records[-1].get("curves_sha256") if records else None
        return result
    except (ValueError, IndexError) as exc:
        raise RuntimeError(f"{checkout} seed {seed}: no JSON result ({exc})") from None


def metric_specs(benchmark: Path) -> dict[str, dict]:
    """``better`` and, where given, ``bound`` of every metric ``benchmark`` (a
    ``BENCHMARK.json``) names; empty if the file is missing."""
    try:
        spec = json.loads(benchmark.read_text())
    except FileNotFoundError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def summarize(pairs: list[tuple[dict, dict]], specs: dict[str, dict] | None = None) -> dict[str, dict]:
    """Per metric: the pair ratios (change / parent), their median, min and
    max, how many are below 1 and how many read better, the parent and change
    medians, the parent's interquartile range, and the two verdicts (see the
    module docstring): ``claim`` and ``beyond_bound`` (``None`` without a bound).

    ``pairs`` holds (parent, change) JSON results; a metric counts only if
    every run reports it.  ``specs`` maps metric names to their ``better``
    (``"lower"`` unless given) and ``bound``.
    """
    names = [name for name in pairs[0][0]["metrics"]
             if all(name in run["metrics"] for pair in pairs for run in pair)]
    summary = {}
    for name in names:
        before = [p["metrics"][name]["value"] for p, _ in pairs]
        after = [c["metrics"][name]["value"] for _, c in pairs]
        ratios = [a / b if b else float("nan") for a, b in zip(after, before)]
        quartiles = statistics.quantiles(before, n=4) if len(before) > 1 else [before[0]] * 3
        spec = (specs or {}).get(name, {})
        sign = -1.0 if spec.get("better", "lower") == "higher" else 1.0  # gain = sign * (b - a)
        parent_median, change_median = statistics.median(before), statistics.median(after)
        parent_iqr = quartiles[2] - quartiles[0]
        pairs_better = sum(sign * (b - a) > 0 for a, b in zip(after, before))
        bound = spec.get("bound")
        summary[name] = {
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "min_ratio": min(ratios),
            "max_ratio": max(ratios),
            "pairs_below_1": sum(r < 1.0 for r in ratios),
            "pairs_better": pairs_better,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": parent_iqr,
            "claim": 10 * pairs_better >= 9 * len(pairs)
            and sign * (parent_median - change_median) > parent_iqr,
            "beyond_bound": None if bound is None
            else sign * (change_median - parent_median) > bound * abs(parent_median),
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
    specs = metric_specs(args.parent / "BENCHMARK.json")

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
            print("pair,seed,first,attempted_ops,failed_ops,curves," + ",".join(pair))
        ops = {key: f"{runs['parent'][key]}/{runs['change'][key]}" for key in ("attempted", "failed")}
        digests = [runs[side]["curves_sha256"] for side in ("parent", "change")]
        curves = "-" if not all(digests) else "same" if digests[0] == digests[1] else "differs"
        ratios = ",".join(f"{s['ratios'][0]:.3f}" for s in pair.values())
        print(f"{k},{seed},{order[0]},{ops['attempted']},{ops['failed']},{curves},{ratios}",
              flush=True)

    print("metric,parent_median,change_median,parent_iqr,median_ratio,min_ratio,max_ratio,"
          "pairs_below_1,pairs_better,claim,bound,beyond_bound")
    yes_no = {True: "yes", False: "no", None: "-"}
    for name, s in summarize(pairs, specs).items():
        bound = specs.get(name, {}).get("bound", "-")
        print(f"{name},{s['parent_median']:.6g},{s['change_median']:.6g},{s['parent_iqr']:.3g},"
              f"{s['median_ratio']:.3f},{s['min_ratio']:.3f},{s['max_ratio']:.3f},"
              f"{s['pairs_below_1']}/{len(pairs)},{s['pairs_better']}/{len(pairs)},"
              f"{yes_no[s['claim']]},{bound},{yes_no[s['beyond_bound']]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
