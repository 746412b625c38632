"""Largest move of every numeric CSV column between two output trees.

Usage: python tests/artifact_moves.py OLD_OUT NEW_OUT

Pairs the CSV files under OLD_OUT and NEW_OUT by their relative path and
prints, for every column whose cells differ, the largest absolute move and
that move relative to the column's largest absolute value in OLD_OUT:
`<file> <column> abs <move> rel <move / max|old|>`, then the largest of
both over the file's columns: `<file> largest abs <move> rel <ratio>`.  A
column-scaled ratio, not a per-cell one: a cell near zero would read a
rounding move as a large relative one.  Files present in one tree only, or
whose shape or non-numeric cells changed, are named as such.  Not a
collected test.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_moves(old: Path, new: Path) -> tuple[list[tuple[str, float, float]], list[str]]:
    """
    (column, largest absolute move, that move / max|old|) for every column
    of one pair of CSV files whose numbers differ, and notes on changes
    that are not numeric moves.
    """
    old_head, old_rows = _read(old)
    new_head, new_rows = _read(new)
    if old_head != new_head or [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return [], ["shape or header changed"]
    moves, notes = [], []
    for j, name in enumerate(old_head):
        move = scale = 0.0
        for a, b in ((r[j], s[j]) for r, s in zip(old_rows, new_rows)):
            x, y = _number(a), _number(b)
            if a != b and (x is None or y is None):
                notes.append(f"{name} text changed: {a!r} -> {b!r}")
                break
            if x is not None and math.isfinite(x):
                scale = max(scale, abs(x))
            if a != b:
                move = max(move, abs(y - x))
        if move > 0.0:
            moves.append((name, move, move / scale if scale > 0.0 else math.inf))
    return moves, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_root, new_root = (Path(a) for a in argv)
    old = {p.relative_to(old_root) for p in old_root.rglob("*.csv")}
    new = {p.relative_to(new_root) for p in new_root.rglob("*.csv")}
    for rel in sorted(old ^ new):
        print(f"{rel} only in {'OLD_OUT' if rel in old else 'NEW_OUT'}")
    for rel in sorted(old & new):
        moves, notes = column_moves(old_root / rel, new_root / rel)
        for note in notes:
            print(f"{rel} {note}")
        for name, move, ratio in moves:
            print(f"{rel} {name} abs {move:.3g} rel {ratio:.3g}")
        if moves:
            print(f"{rel} largest abs {max(m[1] for m in moves):.3g} rel {max(m[2] for m in moves):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
