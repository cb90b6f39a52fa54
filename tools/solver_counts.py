"""Count the foot-point solver's work over a fixed set of seeded study trials.

Runs ``simulate.run_trial`` on the Rosenbrock sheet (sigma2_y = 1e-2, seed 7,
trials 0-4) at n = 100 and 1 000, and keeps the ``BatchProjection`` of every
``project_all`` call: those of the fit (``pipeline.project_all``) and those of
the test points (``projection.project_all``, reached through
``project_nearest``). For each size and caller it prints the number of
solves, the median, maximum and total ``kernel_calls``, the total of kernel
lanes evaluated (``len(u)`` summed over the calls of
``projection._values_grads_hessians``), the median and maximum of
``iterations.max()`` per solve, and the total of unconverged lanes
(``~converged``, failed lanes included), so that a change to a stop rule
shows its converged counts beside its work, and a change to the kernel's
speed shows that its work is unchanged:

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


def record_solves(pipeline, projection) -> tuple[dict[str, list], dict[str, int]]:
    """Wrap both ``project_all`` bindings so that each keeps its results, and the
    solve's kernel so that each caller sums the lanes that its calls evaluate."""
    solves: dict[str, list] = {"fit": [], "test": []}
    lanes = dict.fromkeys(solves, 0)
    callers: list[str] = []

    def recording(caller, solve):
        def wrapper(*args, **kwargs):
            callers.append(caller)
            try:
                solves[caller].append(solve(*args, **kwargs))
            finally:
                callers.pop()
            return solves[caller][-1]
        return wrapper

    def counting(kernel):
        def wrapper(points, u, v, control):
            lanes[callers[-1]] += len(u)
            return kernel(points, u, v, control)
        return wrapper

    pipeline.project_all = recording("fit", pipeline.project_all)
    projection.project_all = recording("test", projection.project_all)
    projection._values_grads_hessians = counting(projection._values_grads_hessians)
    return solves, lanes


def summary(batches: list, lanes: int) -> str:
    calls = np.array([b.kernel_calls for b in batches])
    iters = np.array([int(b.iterations.max()) for b in batches])
    return (f"{len(batches):3d} solves  kernel_calls median {np.median(calls):5.1f} "
            f"max {calls.max():3d} total {calls.sum():5d}  lanes {lanes:7d}  "
            f"iterations.max() median {np.median(iters):4.1f} max {iters.max():2d}  "
            f"unconverged {sum(int((~b.converged).sum()) for b in batches):3d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src directory of the checkout to run (default %(default)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from patchfit import ExperimentSpec, pipeline, projection, run_trial

    solves, lanes = record_solves(pipeline, projection)
    for n in SIZES:
        spec = ExperimentSpec(surface="rosenbrock", n_tr=n, sigma2_y=1e-2, seed=7)
        for caller, batches in solves.items():
            batches.clear()
            lanes[caller] = 0
        for trial in TRIALS:
            run_trial(spec, trial)
        for caller, batches in solves.items():
            print(f"n={n:<5d} {caller:4s} {summary(batches, lanes[caller])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
