"""patchfit benchmark: one seeded workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with only the stage spans
installed. Op and stage times are speed-corrected: each is scaled by how fast
the host ran a fixed reference kernel just before it (see reference.py); the
raw seconds are printed beside them. ``--trace 1`` runs each op's inputs
twice, untraced and with every layer span, in alternating order; it reports
the per-layer metrics (raw seconds) and the tracing overhead and checks that
both runs give bit-identical outputs.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A run whose outputs
fail a correctness check exits with code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from pins import PINS, pin_threads

# The reference kernel is timed again before an op once this much time has
# passed since it last ran.
REF_EVERY_S = 0.5

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("study-cell", "fit-plane-large", "volume-cli")
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("fit_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one op always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    return parser.parse_args(argv)


def find_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "patchfit" / "__init__.py").is_file():
        sys.exit(f"error: no patchfit sources at {SRC}")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pins": {k: os.environ.get(k) for k in PINS},
    }


def measure_setup(workload: str, workdir: Path) -> list[float]:
    """Wall seconds of fresh interpreters that import patchfit and make one
    minimal call into the workload's entry point."""
    times = []
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(workdir)]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def timed_op(wl, inputs, i: int, tracer):
    """Run op i, under ``tracer`` unless it is None: (wall seconds, OpResult)."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = perf_counter()
        try:
            with tracer.op(i) if tracer else contextlib.nullcontext():
                out = wl.run(inputs)
        except Exception:
            traceback.print_exc()
            return perf_counter() - start, wl.failed_op(inputs)
        wall = perf_counter() - start
    return wall, wl.evaluate(inputs, out)


@dataclass
class Loop:
    """What one measuring loop recorded, one entry per op."""

    results: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    speed: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    mismatched: list = field(default_factory=list)


def run_ops(wl, seconds: float, tracer, paired: bool) -> Loop:
    """Closed loop: op i+1 starts when op i has returned and been evaluated.

    Unpaired, each op records the host speed factor ``NOMINAL_S / kernel
    seconds`` from the latest reference-kernel run. With ``paired``, each
    op's inputs also run once without the tracer, in alternating order, and
    the two runs' output digests are compared.
    """
    from reference import NOMINAL_S, kernel_seconds

    loop = Loop()
    last_ref, factor = float("-inf"), 1.0
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        inputs = wl.prepare(i)
        if not paired and perf_counter() - last_ref >= REF_EVERY_S:
            factor = NOMINAL_S / kernel_seconds()
            last_ref = perf_counter()
        order = (None, tracer) if i % 2 == 0 else (tracer, None)
        digests = set()
        for side in order if paired else (tracer,):
            wall, res = timed_op(wl, inputs, i, side)
            digests.add(res.digest)
            if side is None:
                loop.plain.append(wall)
            else:
                loop.walls.append(wall)
                loop.speed.append(factor)
                loop.results.append(res)
        if len(digests) > 1:
            loop.mismatched.append(i)
        i += 1
    return loop


def run_workload(args) -> int:
    find_source()
    from layers import (LAYER_TARGETS, PER_LAYER, STAGE_SPANS, STAGE_TARGETS,
                        layer_self_within_walls, per_layer_metrics)
    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        workdir.mkdir()
        setup = measure_setup(args.workload, workdir)
        cls = WORKLOADS[args.workload]
        cls.minimal(workdir)
        wl = cls(args.seed % 2**32, args.size, workdir)
        tracer = Tracer(LAYER_TARGETS if args.trace else STAGE_TARGETS)
        loop = run_ops(wl, args.seconds, tracer, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table = tracer.table()
    results, walls = loop.results, loop.walls

    errors = wl.check(results)
    errors += [f"op {i}: traced outputs differ from untraced" for i in loop.mismatched]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    n = len(walls)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env, "ops": n,
        "setup_runs_s": setup,
    }
    extra = {"fail_ratio": (failed / attempted, "ratio")}
    if args.trace:
        errors += layer_self_within_walls(table)
        values = per_layer_metrics(table, tracer.counts, n)
        pairs = list(zip(walls, loop.plain))
        values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
        values["trace.overhead_ratio"] = sum(walls) / sum(loop.plain) - 1.0
        metrics = {name: values[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        extra["untraced_op_p50_s"] = (statistics.median(loop.plain), "s")
        spans_path = OUT / f"spans-{tag}.csv.gz"
        tracer.write_csv(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        raw = {"op": walls}
        raw.update((stage, table.per_op(span, range(n))) for span, stage in STAGE_SPANS.items())
        fixed = {k: [t * f for t, f in zip(v, loop.speed)] for k, v in raw.items()}
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": n / sum(fixed["op"]),
            "op_p50_s": statistics.median(fixed["op"]),
            "fit_p50_s": statistics.median(fixed["fit"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        for stage in ("eval", "select", "project"):
            if any(raw[stage]):
                extra[f"{stage}_p50_s"] = (statistics.median(fixed[stage]), "s")
        # A percentile is reported only with at least ten samples beyond it.
        if n >= 100:
            p90 = statistics.quantiles(fixed["op"], n=10)[-1]
            beyond = sum(1 for t in fixed["op"] if t > p90)
            if beyond >= 10:
                extra["op_p90_s"] = (p90, "s")
                extra["op_p90_beyond"] = (beyond, "samples")
        extra["raw_ops_per_s"] = (n / sum(walls), "1/s")
        extra["raw_op_p50_s"] = (statistics.median(walls), "s")
        extra["raw_fit_p50_s"] = (statistics.median(raw["fit"]), "s")
        extra["speed_factor_p50"] = (statistics.median(loop.speed), "ratio")
        extra.update(wl.extras(results))
    report["extra"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {n} ops, "
          f"{attempted} units attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, entry in report["extra"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    report["errors"] = errors
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own pinned child process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited with code {proc.returncode} "
                  "without a result", file=sys.stderr)
            return proc.returncode or 1
        code = code or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
