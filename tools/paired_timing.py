"""Time this tree's fits against another tree's, alternating in one process.

Loads the ``patchfit`` of another checkout under the package name
``patchfit_other``, beside this tree's ``patchfit``, and alternates
``fit_surface`` calls of the two in one process, pinned to one CPU with one
BLAS thread, on four workload shapes:

* ``plane-5000``: a rotated noisy plane of 5 000 points (sigma2_y 1e-4), the
  fit of the benchmark's ``fit-plane-large``;
* ``rosenbrock-100``: the 100 training points of a Rosenbrock trial
  (sigma2_y 1e-2), the fit inside the benchmark's ``study-cell``;
* ``select-212``: the 212-point cloud that ``select_points`` grows on a wavy
  40^3 grid at the default growth settings, the size of ``volume-cli``'s fits;
* ``fixed33-100``: the ``rosenbrock-100`` sets fitted at
  ``FitSettings(fixed_orders=(3, 3))``, so that every order search has one
  candidate.

The plane and Rosenbrock pairs cycle through five seeded datasets. Each pair
times one call of each side, and the side that runs first alternates from
pair to pair. For each shape the script prints both sides' median, the
median of the per-pair ratios (this tree / other tree) and the number of
pairs this tree ran faster, and on a second line both sides' medians of the
order-search and foot-point-projection seconds, summed over each fit's
``FitIteration`` trace, so that a change shows which phase moved, and of
the minor page faults per fit (the ``ru_minflt`` delta of
``resource.getrusage(RUSAGE_SELF)`` around the fit; this process only):

    python3 tools/paired_timing.py --src ../before/src
    python3 tools/paired_timing.py --src ../before/src --pairs 200

Both sides share one glibc heap, so one side's allocations move the other
side's page faults and, at 5 000 lanes, its time: one commit's own
``plane-5000`` fits read 656 to 1 167 faults per fit, depending on which
code shared the process. A ``plane-5000`` ratio within about 5 % is a
verdict only when both sides read similar fault counts; otherwise rerun it
beside a run of this tree against itself (``--src src``), whose ratios give
the spread.

On a shared 2-core Xeon, ten separate 8-s benchmark runs of one commit read
``fit-plane-large`` ``fit_p50_s`` from 0.0229 to 0.0271 s, so separate runs
resolve a gain of 10 % only after many runs; within one process both sides
meet the same conditions. The inputs are made with this tree's code, and
both sides fit the same bytes.
A run at the default 50 pairs takes about 10 s (2-core Xeon).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads, as in the benchmark's pins.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

DATASETS = 5
GRID_N = 40


def load_other(src: Path):
    """The ``patchfit`` package under ``src``, imported as ``patchfit_other``."""
    init = src.resolve() / "patchfit" / "__init__.py"
    spec = importlib.util.spec_from_file_location("patchfit_other", init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def select_cloud(patchfit) -> np.ndarray:
    """Points of the 212-point selection on a grid filled below a wavy height."""
    idx = np.arange(GRID_N, dtype=np.float64)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    height = np.floor(GRID_N / 2 + 3.0 * np.sin(i / 4.0) * np.cos(j / 5.0)).astype(int)
    occupied = np.arange(GRID_N)[None, None, :] <= height[:, :, None]
    grid = patchfit.VoxelGrid(occupied.astype(np.int64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    c = 26
    region = patchfit.select_points(grid, (c, c, int(height[c, c])), epsilon=6)
    return patchfit.extract_cloud(region).points


def workloads(patchfit) -> dict[str, tuple[list[np.ndarray], dict]]:
    """Each shape's point sets and ``FitSettings`` keywords; a pair fits set
    ``pair % len(sets)``."""
    def training_points(surface, n, sigma2_y):
        spec = patchfit.ExperimentSpec(surface=surface, n_tr=n, n_te=1, sigma2_y=sigma2_y, seed=4)
        return [patchfit.make_dataset(spec, trial).x_tr for trial in range(DATASETS)]

    rosenbrock = training_points("rosenbrock", 100, 1e-2)
    return {"plane-5000": (training_points("plane", 5000, 1e-4), {}),
            "rosenbrock-100": (rosenbrock, {}),
            "select-212": ([select_cloud(patchfit)], {}),
            "fixed33-100": (rosenbrock, {"fixed_orders": (3, 3)})}


def fit_seconds(patchfit, points: np.ndarray, settings: dict) -> tuple[float, float, float, int]:
    """Wall time of one fit, the search and projection seconds its trace sums,
    and the minor page faults this process took during the fit."""
    cloud = patchfit.PointCloud(points, np.ones(points.shape[0]))
    settings = patchfit.FitSettings(**settings)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = perf_counter()
    _, trace = patchfit.fit_surface(cloud, settings)
    seconds = perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return (seconds, sum(row.search_seconds for row in trace),
            sum(row.projection_seconds for row in trace), faults)


def compare(this, other, sets: list[np.ndarray], settings: dict, pairs: int) -> str:
    for points in sets:  # untimed: first calls fill caches and finish lazy set-up
        fit_seconds(this, points, settings)
        fit_seconds(other, points, settings)
    mine, theirs = [], []
    for pair in range(pairs):
        points = sets[pair % len(sets)]
        if pair % 2:
            theirs.append(fit_seconds(other, points, settings))
            mine.append(fit_seconds(this, points, settings))
        else:
            mine.append(fit_seconds(this, points, settings))
            theirs.append(fit_seconds(other, points, settings))
    ratio = statistics.median(m[0] / t[0] for m, t in zip(mine, theirs))
    wins = sum(m[0] < t[0] for m, t in zip(mine, theirs))

    def median(side, field):
        return statistics.median(times[field] for times in side)

    def ms(side, phase):
        return 1e3 * median(side, phase)

    return (f"this {ms(mine, 0):8.3f} ms  other {ms(theirs, 0):8.3f} ms  "
            f"paired ratio {ratio:.3f}  this faster in {wins}/{pairs}\n"
            f"{'':15s}   search this {ms(mine, 1):7.3f} ms  other {ms(theirs, 1):7.3f} ms  "
            f"projection this {ms(mine, 2):7.3f} ms  other {ms(theirs, 2):7.3f} ms  "
            f"minor faults this {median(mine, 3):g}  other {median(theirs, 3):g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="src directory of the other checkout")
    parser.add_argument("--pairs", type=int, default=50,
                        help="timed pairs per workload shape (default %(default)s)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import patchfit

    other = load_other(args.src)
    print(f"this: {ROOT / 'src'}  other: {args.src.resolve()}  "
          f"numpy {np.__version__}  {args.pairs} pairs per shape")
    for name, (sets, settings) in workloads(patchfit).items():
        print(f"{name:15s} {compare(patchfit, other, sets, settings, args.pairs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
