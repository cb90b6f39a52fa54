"""Fast tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from pins import pin_threads

pin_threads()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import LAYER_TARGETS, PER_LAYER, STAGE_TARGETS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, VolumeCli, vox1_bytes, wavy_volume  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_minimal_run_emits_every_metric_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        for name in ("setup_s", "fit_p50_s", "op_p50_s"):
            assert f"  {name} = " in proc.stdout


def test_report_prints_stage_and_quality_metrics():
    proc = _run("--workload", "volume-cli", "--seed", "2", "--seconds", "0.1", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("select_p50_s", "project_p50_s", "probe_rms_mm", "fail_ratio"):
        assert f"  {name} = " in proc.stdout


def test_injected_failing_probe_counts_in_fail_ratio(tmp_path):
    class WithNanProbe(VolumeCli):
        def prepare(self, i):
            inp = super().prepare(i)
            with open(inp["probes"], "a") as fh:
                fh.write("nan,nan,nan,1.0\n")
            return inp

    wl = WithNanProbe(3, "tiny", tmp_path)
    loop = run.run_ops(wl, 0.0, Tracer(STAGE_TARGETS), paired=False)
    assert len(loop.results) == len(loop.walls) == len(loop.speed) == 1
    res = loop.results[0]
    assert res.failed == 1
    assert res.attempted == 3 + wl.probes + 1
    assert wl.check(loop.results) == []


def test_raised_op_counts_every_unit_as_failed(tmp_path):
    class Raises(WORKLOADS["fit-plane-large"]):
        @staticmethod
        def run(dataset):
            raise RuntimeError("injected")

    wl = Raises(3, "tiny", tmp_path)
    results = run.run_ops(wl, 0.0, Tracer(STAGE_TARGETS), paired=False).results
    assert (results[0].attempted, results[0].failed) == (1, 1)
    assert wl.check(results)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_outputs_are_bit_identical(workload, tmp_path):
    wl = WORKLOADS[workload](7, "tiny", tmp_path)
    inputs = wl.prepare(0)
    tracer = Tracer(LAYER_TARGETS)
    _, plain = run.timed_op(wl, inputs, 0, None)
    _, traced = run.timed_op(wl, inputs, 0, tracer)
    assert plain.digest == traced.digest
    assert plain.values.keys() == traced.values.keys()
    table = tracer.table()
    assert table.calls("pipeline.fit_surface") >= 1
    walls, sums = table.op_walls(), table.self_sums()
    assert sums[0] <= walls[0]


def test_wrappers_reach_every_importing_namespace():
    import patchfit
    from patchfit import bezier, cli, pipeline, projection, selection, simulate

    originals = (pipeline.project_all, simulate.project_point, selection.solve_control_points,
                 cli.design_matrix, projection._basis_rows)
    tracer = Tracer(LAYER_TARGETS)
    with tracer.installed():
        bound = set(tracer.bindings())
        assert pipeline.project_all.__wrapped__ is originals[0]
    expected = {
        "patchfit.pipeline.project_all", "patchfit.simulate.project_point",
        "patchfit.cli.project_point", "patchfit.pipeline.solve_control_points",
        "patchfit.selection.solve_control_points", "patchfit.bezier._basis_rows",
        "patchfit.projection._basis_rows", "patchfit.projection._basis_rows_derivs",
    } | {f"patchfit.{m}.design_matrix"
         for m in ("bezier", "control", "selection", "simulate", "cli", "io")}
    assert expected <= bound
    assert (pipeline.project_all, simulate.project_point, selection.solve_control_points,
            cli.design_matrix, projection._basis_rows) == originals
    assert patchfit.design_matrix is bezier.design_matrix


def test_vox1_writer_matches_reader(tmp_path):
    from patchfit.io import read_voxel_grid
    import numpy as np

    occupied, _ = wavy_volume(10, np.random.default_rng(1))
    path = tmp_path / "v.vox"
    path.write_bytes(vox1_bytes(occupied))
    assert np.array_equal(read_voxel_grid(path).data, occupied.astype(np.int64))


def test_benchmark_json_matches_code():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == PER_LAYER
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert list(predictions["per_layer"]) == [name for name, _ in PER_LAYER]
    assert predictions["workloads"] == {w["name"]: w["why"] for w in BENCH["workloads"]}
    for entry in predictions["per_layer"].values():
        moved = {m.split(":")[0] for m in entry["moves"]}
        assert moved.isdisjoint(entry["unchanged_on"])
        assert moved | set(entry["unchanged_on"]) == set(run.WORKLOAD_NAMES)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "study-cell", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
