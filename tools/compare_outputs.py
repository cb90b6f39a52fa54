"""Compare two output directories of ``tools/identity_outputs.py``.

A change that alters outputs on purpose, for example in their last bits,
shows with this script what moved and by how much:

    python3 tools/compare_outputs.py OUT_OLD OUT_NEW

For every file it prints whether the bytes match. For a file that differs
it compares the parsed fields:
- surface documents, ``trials.json`` and ``traces.json`` (JSON), field by field;
- the ``project`` and ``study`` tables (CSV), column by column;
- any other file token by token, where a token with a decimal point or an
  exponent that parses as a number counts as a float.

Float fields (``FLOAT_FIELDS``, and the float tokens of other files) are
summarised by their largest relative difference |a - b| / max(|a|, |b|).
Every other field (orders, sizes, iterations, failures, errors, the
``converged`` column, exit codes) must match exactly; the script lists the
first few mismatches of each file. A file whose bytes differ while every
field compares equal also counts as a mismatch.

Exits 1 when a non-float field differs, a file's structure differs, or a
file exists on one side only; otherwise 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

# JSON keys and CSV columns whose values are floats.
FLOAT_FIELDS = frozenset({
    "control", "centroid", "sigma2", "t", "u", "v", "residual", "distance",
    "sigma2_y", "sigma2_tr", "sigma2_te", "mean_sigma2_tr", "mean_sigma2_te",
    "f_before_projection", "f_after_projection", "f_reg_before_solve", "f_reg_after_solve",
})
SHOWN_MISMATCHES = 5


def to_float(value) -> float:
    """A JSON or CSV float value; strings starting with 0x are ``float.hex`` output."""
    if isinstance(value, str) and value.lstrip("+-").startswith("0x"):
        return float.fromhex(value)
    return float(value)


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


class Comparison:
    """Largest relative difference per float field, and non-float mismatches."""

    def __init__(self):
        self.floats: dict[str, float] = {}
        self.mismatches: list[str] = []

    def float_field(self, field: str, where: str, old, new) -> None:
        try:
            d = rel_diff(to_float(old), to_float(new))
        except (TypeError, ValueError):
            self.exact(where, old, new)
            return
        self.floats[field] = max(self.floats.get(field, 0.0), d)

    def exact(self, where: str, old, new) -> None:
        if old != new:
            self.mismatches.append(f"{where}: {old!r} -> {new!r}")


def compare_json(old, new, cmp: Comparison, field: str = "", where: str = "") -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            cmp.mismatches.append(f"{where or 'top'}: keys {list(old)} -> {list(new)}")
            return
        for key in old:
            compare_json(old[key], new[key], cmp, key, f"{where}.{key}" if where else key)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            cmp.mismatches.append(f"{where or 'top'}: length {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            compare_json(a, b, cmp, field, f"{where}[{i}]")
    elif field in FLOAT_FIELDS:
        cmp.float_field(field, where, old, new)
    else:
        cmp.exact(where, old, new)


def compare_csv(old: str, new: str, cmp: Comparison) -> None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        cmp.exact("header", old_rows[:1], new_rows[:1])
        return
    if len(old_rows) != len(new_rows):
        cmp.mismatches.append(f"rows: {len(old_rows) - 1} -> {len(new_rows) - 1}")
        return
    header = old_rows[0]
    for r, (a, b) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        if len(a) != len(header) or len(b) != len(header):
            cmp.exact(f"row {r}", a, b)
            continue
        for name, x, y in zip(header, a, b):
            where = f"row {r} {name}"
            if name in FLOAT_FIELDS:
                cmp.float_field(name, where, x, y)
            else:
                cmp.exact(where, x, y)


def compare_tokens(old: str, new: str, cmp: Comparison) -> None:
    a, b = old.split(), new.split()
    if len(a) != len(b):
        cmp.mismatches.append(f"tokens: {len(a)} -> {len(b)}")
        return
    for i, (x, y) in enumerate(zip(a, b)):
        if any(c in x + y for c in ".eE"):  # float_field falls back to exact
            cmp.float_field("float tokens", f"token {i}", x, y)
        else:
            cmp.exact(f"token {i}", x, y)


def compare_file(old: bytes, new: bytes, suffix: str) -> Comparison:
    cmp = Comparison()
    a = old.decode("utf-8", errors="surrogateescape")
    b = new.decode("utf-8", errors="surrogateescape")
    try:
        if suffix == ".json":
            compare_json(json.loads(a), json.loads(b), cmp)
        elif suffix == ".csv":
            compare_csv(a, b, cmp)
        else:
            compare_tokens(a, b, cmp)
    except ValueError as exc:  # a side that does not parse
        cmp.mismatches.append(f"unreadable: {exc}")
    if not cmp.mismatches and not any(cmp.floats.values()):
        cmp.mismatches.append("bytes differ but every field compares equal")
    return cmp


def files_under(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="output directory of the old code")
    parser.add_argument("new", type=Path, help="output directory of the new code")
    args = parser.parse_args(argv)
    old_files, new_files = files_under(args.old), files_under(args.new)
    counts = {"identical": 0, "floats only": 0, "mismatch": 0, "one side only": 0}
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            side = "OLD" if name in old_files else "NEW"
            print(f"only in {side}  {name}")
            counts["one side only"] += 1
            continue
        old, new = (args.old / name).read_bytes(), (args.new / name).read_bytes()
        if old == new:
            print(f"identical    {name}")
            counts["identical"] += 1
            continue
        cmp = compare_file(old, new, Path(name).suffix)
        status = "mismatch" if cmp.mismatches else "floats only"
        print(f"differs      {name} ({status})")
        counts[status] += 1
        for field, d in sorted(cmp.floats.items()):
            print(f"    {field:<16} max rel diff {d:.2g}")
        for line in cmp.mismatches[:SHOWN_MISMATCHES]:
            print(f"    MISMATCH {line}")
        if len(cmp.mismatches) > SHOWN_MISMATCHES:
            print(f"    ... and {len(cmp.mismatches) - SHOWN_MISMATCHES} more mismatches")
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["mismatch"] or counts["one side only"] else 0


if __name__ == "__main__":
    sys.exit(main())
