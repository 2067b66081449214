"""Report how far the rows of one ``curves.csv`` moved against another's.

    python tools/curve_moves.py BEFORE.csv AFTER.csv

Rows are matched by (method, rep, i, target); a row moved when its value text
differs.  For every (method, target) the script prints the rows compared, the
rows moved, and the worst |after - before| over those rows relative to the
i = 0 value of the row's own curve (method, rep, target) in BEFORE.  Where
that value is infinite (``bound_dbar`` below k*), the curve's first finite
value is the scale instead.  A scale of zero, or a curve with no finite value,
makes its (method, target) ``nan``; an infinite value on one side only gives
``inf``.  Exits 1 if the two files do not hold the same rows.
"""

from __future__ import annotations

import csv
import math
import sys


def read_curves(path: str) -> dict[tuple[str, str, int, str], str]:
    """Value text of every row, keyed by (method, rep, i, target)."""
    with open(path, newline="") as f:
        return {
            (row["method"], row["rep"], int(row["i"]), row["target"]): row["value"]
            for row in csv.DictReader(f)
        }


def curve_moves(before: dict, after: dict) -> dict[tuple[str, str], tuple[int, int, float]]:
    """(rows, moved rows, worst relative move) per (method, target)."""
    if before.keys() != after.keys():
        raise ValueError(f"the files differ in {len(before.keys() ^ after.keys())} rows")
    scales: dict[tuple[str, str, str], float] = {}  # keys sort by i within a curve
    for method, rep, i, target in sorted(before):
        if math.isinf(scales.get((method, rep, target), math.inf)):
            scales[(method, rep, target)] = abs(float(before[(method, rep, i, target)]))
    report: dict[tuple[str, str], tuple[int, int, float]] = {}
    for key in sorted(before):
        method, rep, i, target = key
        rows, moved, worst = report.get((method, target), (0, 0, 0.0))
        if before[key] != after[key]:
            scale = scales[(method, rep, target)]
            move = abs(float(after[key]) - float(before[key]))
            if not math.isinf(move):
                move = move / scale if 0.0 < scale < math.inf else math.nan
            moved += 1
            worst = move if math.isnan(move) or move > worst else worst  # nan sticks
        report[(method, target)] = (rows + 1, moved, worst)
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        report = curve_moves(read_curves(argv[0]), read_curves(argv[1]))
    except ValueError as exc:
        print(f"curve_moves: {exc}", file=sys.stderr)
        return 1
    print("method,target,rows,moved,worst_rel_move")
    for (method, target), (rows, moved, worst) in report.items():
        print(f"{method},{target},{rows},{moved},{worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
