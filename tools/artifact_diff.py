"""Largest relative deviation of each differing artifact between two runs.

    python3 tools/artifact_diff.py A B

``A`` and ``B`` are artifact directories, for instance two ``--keep``
directories of ``tools/deck_hashes.py``.  For every file under both whose
bytes differ, prints its path, the largest relative deviation
``|a - b| / max(|a|, |b|)`` over its numbers, and the largest deviation
scaled by the largest magnitude of the number's CSV column or JSON list
(scalars scale by themselves).  The numbers are the numeric cells of a CSV
file, or the numbers of a JSON document paired by position and key.  The
scaled value tells rounding on a near-zero entry (relative deviation up to
2) from a change in the entries that matter.  A difference that is not
numeric (a text cell, a changed shape, a file under one directory only) is
printed as such.  ``metadata.json`` (it holds a timestamp) and SVG plots are
left out, as ``deck_hashes.py`` leaves them out.  Exits 0 when every
artifact is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """The two artifacts differ in something other than a number."""


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _csv_pairs(a: Path, b: Path):
    rows_a, rows_b = (list(csv.reader(p.read_text(encoding="utf-8").splitlines()))
                      for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise Mismatch("table shape differs")
    for col_a, col_b in zip(zip(*rows_a), zip(*rows_b)):
        numbers = [(_number(x), _number(y)) for x, y in zip(col_a, col_b) if x != y]
        if any(x is None or y is None for x, y in numbers):
            raise Mismatch(f"text cell differs in column {col_a[0]!r}")
        scale = max((abs(v) for v in map(_number, col_a + col_b)
                     if v is not None and math.isfinite(v)), default=0.0)
        yield from ((x, y, scale) for x, y in numbers)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_pairs(a, b, scale=None):
    if _is_number(a) and _is_number(b):
        yield float(a), float(b), scale if scale is not None else max(abs(a), abs(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch("keys differ")
        for k in a:
            yield from _json_pairs(a[k], b[k])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch("list length differs")
        scale = max((abs(v) for v in a + b if _is_number(v) and math.isfinite(v)),
                    default=None)
        for x, y in zip(a, b):
            yield from _json_pairs(x, y, scale)
    elif a != b:
        raise Mismatch(f"{a!r} != {b!r}")


def deviation(a: Path, b: Path) -> tuple[float, float]:
    """Largest relative and largest scaled deviation between two artifacts;
    raises :class:`Mismatch` where they differ in something other than a
    number."""
    if a.suffix == ".csv":
        pairs = _csv_pairs(a, b)
    elif a.suffix == ".json":
        pairs = _json_pairs(*(json.loads(p.read_text(encoding="utf-8")) for p in (a, b)))
    else:
        raise Mismatch("not a CSV or JSON file")
    rel = scaled = 0.0
    for x, y, scale in pairs:
        r = _rel(x, y)
        rel = max(rel, r)
        if r:
            scaled = max(scaled, abs(x - y) / scale if scale and math.isfinite(r)
                         else math.inf)
    return rel, scaled


def _artifacts(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and p.name != "metadata.json" and p.suffix != ".svg"}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (Path(arg) for arg in argv)
    names_a, names_b = _artifacts(a), _artifacts(b)
    differs = False
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}\tonly under {a if name in names_a else b}")
            differs = True
            continue
        if (a / name).read_bytes() == (b / name).read_bytes():
            continue
        differs = True
        try:
            rel, scaled = deviation(a / name, b / name)
            print(f"{name}\t{rel:.3g}\tscaled {scaled:.3g}")
        except Mismatch as err:
            print(f"{name}\tnot numeric: {err}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
