"""Count the foot-point solver's work over a fixed set of seeded study trials.

Runs ``simulate.run_trial`` on the Rosenbrock sheet (sigma2_y = 1e-2, seed 7,
trials 0-4) at n = 100 and 1 000, and keeps the ``BatchProjection`` of every
``project_all`` call: those of the fit (``pipeline.project_all``) and those of
the test points (``projection.project_all``, reached through
``project_nearest``). For each size and caller it prints the number of
solves, the median, maximum and total ``kernel_calls``, and the median and
maximum of ``iterations.max()`` per solve:

    python3 tools/solver_counts.py
    python3 tools/solver_counts.py --src ../before/src

``--src`` names the ``src`` directory of the checkout to run (default: the
one next to this script), so one copy of this script counts any commit. The
counts are deterministic. A run takes about 1.5 s (2-core Xeon).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SIZES = (100, 1000)
TRIALS = range(5)


def record_solves(pipeline, projection) -> dict[str, list]:
    """Wrap both ``project_all`` bindings so that each keeps its results."""
    solves: dict[str, list] = {"fit": [], "test": []}

    def recording(batches, solve):
        def wrapper(*args, **kwargs):
            batches.append(solve(*args, **kwargs))
            return batches[-1]
        return wrapper

    pipeline.project_all = recording(solves["fit"], pipeline.project_all)
    projection.project_all = recording(solves["test"], projection.project_all)
    return solves


def summary(batches: list) -> str:
    calls = np.array([b.kernel_calls for b in batches])
    iters = np.array([int(b.iterations.max()) for b in batches])
    return (f"{len(batches):3d} solves  kernel_calls median {np.median(calls):5.1f} "
            f"max {calls.max():3d} total {calls.sum():5d}  "
            f"iterations.max() median {np.median(iters):4.1f} max {iters.max():2d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src directory of the checkout to run (default %(default)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from patchfit import ExperimentSpec, pipeline, projection, run_trial

    solves = record_solves(pipeline, projection)
    for n in SIZES:
        spec = ExperimentSpec(surface="rosenbrock", n_tr=n, sigma2_y=1e-2, seed=7)
        for batches in solves.values():
            batches.clear()
        for trial in TRIALS:
            run_trial(spec, trial)
        for caller, batches in solves.items():
            print(f"n={n:<5d} {caller:4s} {summary(batches)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
