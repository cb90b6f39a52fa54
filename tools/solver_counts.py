"""Count the foot-point solver's work over a fixed set of seeded study trials.

Runs ``simulate.run_trial`` on the Rosenbrock sheet (sigma2_y = 1e-2, seed 7,
trials 0-4) at n = 100 and 1 000, and keeps the ``BatchProjection`` of every
``project_all`` call, in three rows:
- ``loop``: the fit loop's solves (``pipeline.project_all``), one per outer
  iteration, budgeted or not;
- ``final``: the fit's finish, the solve after its loop that finishes the
  last loop solve at the precision floor (none in a checkout without it);
- ``test``: the test points' solves (``projection.project_all``, reached
  through ``project_nearest``).
Each trace row after the first is one solve, and a finish row repeats the
iteration of the row before it, so ``outer_iterations`` of a trace counts the
loop's solves: a fit's first that many solves are the loop's and the rest
its finish. Checkouts that folded the finish into the last row split the
same way. For each size and row it prints the number of solves,
the median, maximum and total ``kernel_calls``, the total of kernel lanes
evaluated (``len(u)`` summed over the calls of
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
ROWS = ("loop", "final", "test")


def record_solves(simulate, pipeline, projection) -> dict[str, list]:
    """Wrap both ``project_all`` bindings so that each keeps its results with the
    kernel lanes that its calls evaluate, and ``simulate``'s ``fit_surface`` so
    that each fit files its solves under ``loop`` and ``final``."""
    solves: dict[str, list] = {row: [] for row in ROWS}
    fit_solves: list = []
    open_lanes: list[int] = []

    def recording(out, solve):
        def wrapper(*args, **kwargs):
            open_lanes.append(0)
            try:
                batch = solve(*args, **kwargs)
            finally:
                lanes = open_lanes.pop()
            out.append((batch, lanes))
            return batch
        return wrapper

    def counting(kernel):
        def wrapper(points, u, v, control):
            open_lanes[-1] += len(u)
            return kernel(points, u, v, control)
        return wrapper

    def fitting(fit):
        def wrapper(*args, **kwargs):
            fit_solves.clear()
            model, trace = fit(*args, **kwargs)
            loop = pipeline.outer_iterations(trace)
            solves["loop"].extend(fit_solves[:loop])
            solves["final"].extend(fit_solves[loop:])
            return model, trace
        return wrapper

    pipeline.project_all = recording(fit_solves, pipeline.project_all)
    projection.project_all = recording(solves["test"], projection.project_all)
    projection._values_grads_hessians = counting(projection._values_grads_hessians)
    simulate.fit_surface = fitting(simulate.fit_surface)
    return solves


def summary(solves: list) -> str:
    if not solves:
        return "  0 solves"
    calls = np.array([b.kernel_calls for b, _ in solves])
    iters = np.array([int(b.iterations.max()) for b, _ in solves])
    return (f"{len(solves):3d} solves  kernel_calls median {np.median(calls):5.1f} "
            f"max {calls.max():3d} total {calls.sum():5d}  lanes {sum(n for _, n in solves):7d}  "
            f"iterations.max() median {np.median(iters):4.1f} max {iters.max():2d}  "
            f"unconverged {sum(int((~b.converged).sum()) for b, _ in solves):3d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src directory of the checkout to run (default %(default)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from patchfit import ExperimentSpec, pipeline, projection, run_trial, simulate

    solves = record_solves(simulate, pipeline, projection)
    for n in SIZES:
        spec = ExperimentSpec(surface="rosenbrock", n_tr=n, sigma2_y=1e-2, seed=7)
        for row in solves.values():
            row.clear()
        for trial in TRIALS:
            run_trial(spec, trial)
        for name, row in solves.items():
            print(f"n={n:<5d} {name:5s} {summary(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
