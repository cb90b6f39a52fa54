"""Paired verdict on two ``study`` long tables of the same config.

Two runs of one config draw the same datasets for each (cell, trial), so a
change to the fit is judged trial by trial, not by two unpaired means:

    python3 tools/compare_studies.py OLD_long.csv NEW_long.csv

For each cell, over the trials that succeeded on both sides, it prints:
- both sides' mean test sigma2 (``sigma2_te``) and the ratio new / old of
  the means;
- a paired-bootstrap 95 % percentile interval of that ratio: the trials are
  resampled with replacement ``RESAMPLES`` times, the same draw for both
  sides, from a generator seeded with ``SEED`` afresh for each cell;
- the verdict: ``worse`` when the whole interval lies above 1, ``better``
  when it lies below 1, and ``neither`` otherwise;
- the trials in which each side had the lower test sigma2 (ties count for
  neither);
- each side's mean size (control points) and mean outer-iteration count;
- each side's share of trials whose sorted orders equal the latent ones:
  (1, 1) for the plane and (2, 4) for the Rosenbrock sheet;
- for information, not for the verdict: the number of trials whose orders,
  size or iteration count differ between the sides (``moved``), and the
  largest per-trial relative difference |new - old| / old of test sigma2
  (``max rel diff``). A verdict of ``better`` or ``worse`` read from
  differences of 1e-13 is rounding, and these two columns show it.

A ``total`` row sums the pairs and the moved trials over the cells and gives
the largest relative difference of any cell.

The output depends only on the two tables, so two runs print the same
bytes. Trials that failed on either side are left out of the pairs and
counted on the cell's line. Exits 1 when a cell is worse, 2 when the tables
do not hold the same cells and trials, and 0 otherwise. Background: Efron &
Tibshirani, *An Introduction to the Bootstrap*, 1993.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

SEED = 20_190_001
RESAMPLES = 10_000
LATENT_ORDERS = {"plane": (1, 1), "rosenbrock": (2, 4)}
MOVED_FIELDS = ("n_u", "n_v", "size", "iterations")


def read_long(path: Path) -> dict[str, dict[int, dict[str, str]]]:
    """The rows of a ``study`` long table, by cell name, then by trial."""
    cells: dict[str, dict[int, dict[str, str]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault(row["name"], {})[int(row["trial"])] = row
    return cells


def bootstrap_interval(old: np.ndarray, new: np.ndarray) -> tuple[float, float]:
    """Paired-bootstrap 95 % interval of mean(new) / mean(old)."""
    rng = np.random.default_rng(SEED)
    draws = rng.integers(0, old.size, size=(RESAMPLES, old.size))
    ratios = new[draws].mean(axis=1) / old[draws].mean(axis=1)
    lo, hi = np.percentile(ratios, [2.5, 97.5])
    return float(lo), float(hi)


def verdict(lo: float, hi: float) -> str:
    if lo > 1.0:
        return "worse"
    if hi < 1.0:
        return "better"
    return "neither"


def side_means(rows: list[dict[str, str]]) -> tuple[float, float, float]:
    """Mean size, mean iteration count and share of trials at the latent orders."""
    latent = sum(tuple(sorted((int(r["n_u"]), int(r["n_v"]))))
                 == LATENT_ORDERS.get(r["surface"]) for r in rows)
    return (float(np.mean([int(r["size"]) for r in rows])),
            float(np.mean([int(r["iterations"]) for r in rows])),
            latent / len(rows))


def compare_cell(old: dict[int, dict[str, str]], new: dict[int, dict[str, str]]) -> dict:
    """The verdict of one cell; ``failed`` counts trials that failed on either side."""
    trials = [k for k in sorted(old) if not old[k]["error"] and not new[k]["error"]]
    out = {"pairs": len(trials), "failed": len(old) - len(trials)}
    if not trials:
        return out
    a = np.array([float(old[k]["sigma2_te"]) for k in trials])
    b = np.array([float(new[k]["sigma2_te"]) for k in trials])
    lo, hi = bootstrap_interval(a, b)
    out.update(old_mean=float(a.mean()), new_mean=float(b.mean()),
               ratio=float(b.mean() / a.mean()), lo=lo, hi=hi, verdict=verdict(lo, hi),
               old_better=int(np.count_nonzero(a < b)), new_better=int(np.count_nonzero(b < a)),
               old_side=side_means([old[k] for k in trials]),
               new_side=side_means([new[k] for k in trials]),
               moved=sum(any(old[k][f] != new[k][f] for f in MOVED_FIELDS) for k in trials),
               max_rel=max_relative_difference(a, b))
    return out


def max_relative_difference(old: np.ndarray, new: np.ndarray) -> float:
    """The largest |new - old| / |old| over the trials; equal values count 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(new == old, 0.0, np.abs(new - old) / np.abs(old)).max())


# (title, width) of each output column; columns are two spaces apart.
COLUMNS = (("cell", 20), ("pairs", 5), ("mean sigma2_te old -> new", 25), ("ratio", 6),
           ("95% interval", 14), ("verdict", 8), ("better old/new", 14), ("size old/new", 12),
           ("iters old/new", 13), ("latent old/new", 14), ("moved", 5), ("max rel diff", 12))


def table_row(values) -> str:
    return "  ".join(f"{v:<{width}}" for v, (_, width) in zip(values, COLUMNS)).rstrip()


def format_cell(name: str, cell: dict) -> str:
    if not cell["pairs"]:
        return table_row([name, "0", "no trial succeeded on both sides"])
    (s_old, i_old, l_old), (s_new, i_new, l_new) = cell["old_side"], cell["new_side"]
    line = table_row([
        name, str(cell["pairs"]), f"{cell['old_mean']:.4e} -> {cell['new_mean']:.4e}",
        f"{cell['ratio']:.3f}", f"[{cell['lo']:.3f}, {cell['hi']:.3f}]", cell["verdict"],
        f"{cell['old_better']}/{cell['new_better']}", f"{s_old:.1f}/{s_new:.1f}",
        f"{i_old:.2f}/{i_new:.2f}", f"{l_old:.2f}/{l_new:.2f}", str(cell["moved"]),
        f"{cell['max_rel']:.1e}"])
    if cell["failed"]:
        line += f"  ({cell['failed']} trials failed on a side)"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="long table of the old code (study's _long.csv)")
    parser.add_argument("new", type=Path, help="long table of the new code")
    args = parser.parse_args(argv)
    old, new = read_long(args.old), read_long(args.new)
    if list(old) != list(new) or any(sorted(old[c]) != sorted(new[c]) for c in old):
        print("the two tables do not hold the same cells and trials; "
              "run both with the same config, --seed and --trials", file=sys.stderr)
        return 2
    print(table_row(title for title, _ in COLUMNS))
    cells = {name: compare_cell(old[name], new[name]) for name in old}
    for name, cell in cells.items():
        print(format_cell(name, cell))
    paired = [cell for cell in cells.values() if cell["pairs"]]
    print(table_row(["total", str(sum(cell["pairs"] for cell in cells.values()))]
                    + [""] * (len(COLUMNS) - 4)
                    + [str(sum(cell["moved"] for cell in paired)),
                       f"{max((cell['max_rel'] for cell in paired), default=0.0):.1e}"]))
    verdicts = [cell.get("verdict") for cell in cells.values()]
    print(f"{len(cells)} cells: {verdicts.count('worse')} worse, "
          f"{verdicts.count('better')} better, {verdicts.count('neither')} neither")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
