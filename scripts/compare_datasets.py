#!/usr/bin/env python3
"""Compare two dataset directories written by generate_datasets.py.

Usage: compare_datasets.py OLD_DIR NEW_DIR

Prints, per file and column, the largest absolute difference and the number of
differing cells. Cells that parse as numbers must agree to TOLERANCE; all other
cells must match exactly. Exits 1 when a numeric cell differs by more than
TOLERANCE, a non-numeric cell differs, or the two directories differ in their
files, columns or row counts; exits 0 otherwise, and 2 on a usage error.
"""

import csv
import json
import math
import sys
from pathlib import Path

TOLERANCE = 1e-9


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of cells (as text) of a CSV or JSON dataset."""
    if path.suffix == ".json":
        records = json.loads(path.read_text(encoding="utf-8"))
        if records and not isinstance(records[0], dict):
            return ["value"], [[json.dumps(r)] for r in records]
        columns = list(records[0]) if records else []
        return columns, [[json.dumps(r[c]) for c in columns] for r in records]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def cell_difference(old: str, new: str) -> float:
    """|old - new| for two numeric cells, 0 for equal cells, inf for any other mismatch."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    diff = abs(a - b)
    return diff if diff == diff else math.inf  # NaN against a number, or inf - inf


def compare_file(old: Path, new: Path) -> bool:
    old_columns, old_rows = read_table(old)
    new_columns, new_rows = read_table(new)
    if old_columns != new_columns:
        print(f"{old.name}: columns differ: {old_columns} vs {new_columns}")
        return False
    if len(old_rows) != len(new_rows):
        print(f"{old.name}: row counts differ: {len(old_rows)} vs {len(new_rows)}")
        return False
    ok = True
    for i, column in enumerate(old_columns):
        diffs = [cell_difference(a[i], b[i]) for a, b in zip(old_rows, new_rows)]
        worst = max(diffs, default=0.0)
        print(f"{old.name}  {column}  max_abs_diff={worst:.3g}  differing={sum(d > 0 for d in diffs)}")
        ok = ok and worst <= TOLERANCE
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_datasets.py OLD_DIR NEW_DIR (two directories)", file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    old_names = {p.name for p in old_dir.iterdir() if p.is_file()}
    new_names = {p.name for p in new_dir.iterdir() if p.is_file()}
    ok = old_names == new_names
    for name in sorted(old_names ^ new_names):
        print(f"{name}: only in {old_dir if name in old_names else new_dir}")
    for name in sorted(old_names & new_names):
        ok = compare_file(old_dir / name, new_dir / name) and ok
    print("agree" if ok else f"DIFFER (tolerance {TOLERANCE:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
