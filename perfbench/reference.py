"""Reference kernel that tracks the host's current speed.

On a shared host the same op can take twice as long from one minute to the
next. The end-to-end runs time this fixed kernel, which shares no code with
patchfit, next to the ops and scale each op's wall time by
``NOMINAL_S / kernel time``: the result is the op's time at the speed the
kernel has at ``NOMINAL_S``. A change to patchfit moves the op times and not
the kernel, so it shows in full.

The kernel mixes what patchfit's hot loops do: short Python loops and numpy
calls on arrays of about a hundred rows (power tables, einsum contractions,
residual sums).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on the host the bounds were set on (2-core Xeon,
# Python 3.11, numpy 2.4).
NOMINAL_S = 0.032
_REPS = 800


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    rng = np.random.default_rng(0)
    u = rng.uniform(size=100)
    control = rng.normal(size=(4, 4, 3))
    points = rng.normal(size=(100, 3))
    start = perf_counter()
    acc = 0.0
    for _ in range(_REPS):
        powers = np.empty((100, 4))
        powers[:, 0] = 1.0
        for k in range(1, 4):
            powers[:, k] = powers[:, k - 1] * u
        t0 = np.einsum("mi,ijk->mjk", powers, control)
        s = np.einsum("mj,mjk->mk", powers, t0)
        r = points - s
        acc += float((r * r).sum())
        for i in range(50):
            acc += i * 0.5
    elapsed = perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return elapsed
