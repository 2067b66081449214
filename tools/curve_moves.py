"""Report how far the rows of one ``curves.csv`` moved against another's.

    python tools/curve_moves.py BEFORE.csv AFTER.csv
    python tools/curve_moves.py BEFORE_RUN_DIR AFTER_RUN_DIR

Rows are matched by (method, rep, i, target); a row moved when its value text
differs.  For every (method, target) the script prints the rows compared, the
rows moved, and the worst |after - before| over those rows relative to the
i = 0 value of the row's own curve (method, rep, target) in BEFORE.  Where
that value is infinite (``bound_dbar`` below k*), the curve's first finite
value is the scale instead.  A scale of zero, or a curve with no finite value,
makes its (method, target) ``nan``; an infinite value on one side only gives
``inf``.  Exits 1 if the two files do not hold the same rows, and 2, with one
line on stderr, if a file cannot be read (a missing ``curves.csv`` or
``manifest.json`` among them) or parsed (a ``curves.csv`` without one of the
columns method, rep, i, target, value, or with a non-integer ``i`` or a
non-numeric value; a ``manifest.json`` that is not a JSON object), or if the
arguments are not two paths.

Given two run directories, the script compares their ``curves.csv`` and then
prints the ``manifest.json`` scalars ``eps_prime``, ``eps_intrinsic``, ``beta``
and ``n_prior`` before and after (``-`` where a manifest lacks one).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

MANIFEST_SCALARS = ("eps_prime", "eps_intrinsic", "beta", "n_prior")
COLUMNS = ("method", "rep", "i", "target", "value")


class MalformedFile(Exception):
    """A file that was read but does not parse as what it should hold."""

    def __init__(self, path, detail):
        super().__init__(f"cannot parse {path}: {detail}")


def read_curves(path) -> dict[tuple[str, str, int, str], str]:
    """Value text of every row, keyed by (method, rep, i, target)."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            missing = [name for name in COLUMNS if name not in (reader.fieldnames or ())]
            if missing:
                raise MalformedFile(path, f"no {', '.join(missing)} column")
            rows = {}
            for row in reader:
                float(row["value"])  # a short row's missing fields are None
                rows[(row["method"], row["rep"], int(row["i"]), row["target"])] = row["value"]
            return rows
        except (ValueError, TypeError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise MalformedFile(path, exc) from None


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


def manifest_scalars(run_dir: Path) -> dict[str, str]:
    """The :data:`MANIFEST_SCALARS` of a run directory's manifest, as text."""
    path = run_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise MalformedFile(path, exc) from None
    if not isinstance(manifest, dict):
        raise MalformedFile(path, "not a JSON object")
    return {key: str(manifest.get(key, "-")) for key in MANIFEST_SCALARS}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = [Path(arg) for arg in argv]
    dirs = all(run.is_dir() for run in runs)
    try:
        tables = [read_curves(run / "curves.csv" if dirs else run) for run in runs]
        scalars = [manifest_scalars(run) for run in runs] if dirs else []
    except OSError as exc:
        print(f"curve_moves: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except MalformedFile as exc:
        print(f"curve_moves: {exc}", file=sys.stderr)
        return 2
    try:
        report = curve_moves(*tables)
    except ValueError as exc:
        print(f"curve_moves: {exc}", file=sys.stderr)
        return 1
    print("method,target,rows,moved,worst_rel_move")
    for (method, target), (rows, moved, worst) in report.items():
        print(f"{method},{target},{rows},{moved},{worst:.2e}")
    if scalars:
        print("scalar,before,after")
        for key in MANIFEST_SCALARS:
            print(f"{key},{scalars[0][key]},{scalars[1][key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
