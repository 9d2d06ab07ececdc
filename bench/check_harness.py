"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/check_harness.py

The file name keeps these out of the package's default test collection; they
run small versions of the workloads and take about ten seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from pabeam import ImageGrid, Method, reconstruct  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Reduced grids over the same scenes, for speed.
SMALL = {
    "compare-3target": (-2e-3, 2e-3, 10e-3, 22e-3, 13, 25),
    "mv-file-2w": (-8e-3, 8e-3, 29e-3, 31e-3, 25, 11),
    "das-fullgrid": (-8e-3, 8e-3, 17e-3, 43e-3, 25, 27),
}
# Per-layer metrics that must be non-zero on the workload that targets them.
EXPECTED_NONZERO = {
    "compare-3target": [
        "delays.build_snapshots.us", "numerics.spd_solve.calls",
        "numerics.check_symmetric.us", "beamformers.msmv_weight.us",
        "beamformers.msmv.iters_mean", "pipeline.reconstruct.msmv.us_px",
        "pipeline.reconstruct.das.us_px", "pipeline.reconstruct.mv.us_px",
        "io.write_rf.ms", "io.write_image.ms", "phantom.simulate_rf.s",
        "io.bytes_written",
    ],
    "mv-file-2w": [
        "covariance.estimate.us", "covariance.apply_dl.us", "beamformers.mv_weight.us",
        "numerics.spd_solve.us", "pipeline.reconstruct.mv.us_px",
        "pipeline.reconstruct.cpu_per_wall", "io.read_rf.ms", "io.write_rf.ms",
        "pipeline.finalize.ms", "metrics.evaluate.ms", "phantom.add_channel_noise.s",
    ],
    "das-fullgrid": [
        "delays.build_snapshots.calls", "beamformers.beamform_output.us",
        "pipeline.reconstruct.das.us_px", "pipeline.finalize.ms",
        "metrics.evaluate.ms", "phantom.simulate_rf.s",
    ],
}


@pytest.fixture(scope="module")
def frame():
    return workloads.simulate(workloads.ACCEPTANCE_DEPTHS, 7)


@pytest.fixture(scope="module")
def planes(frame):
    grid = (-1e-3, 1e-3, 29.5e-3, 30.5e-3, 5, 4)
    out = {}
    for method in ("das", "mv"):
        image = reconstruct(
            frame, ImageGrid(*grid), Method(method),
            L=workloads.L, K=workloads.K, dl_factor=workloads.DL,
        )
        out[method] = image.beamformed
    return grid, out


@pytest.mark.parametrize("method", ["das", "mv"])
def test_reference_matches_library(frame, planes, method):
    grid, plane = planes[0], planes[1][method]
    xs, zs = workloads.grid_axes(grid)
    scale = np.max(np.abs(plane))
    for iz in range(grid[5]):
        for ix in range(grid[4]):
            ref = reference.reference_pixel(
                *workloads.reference_frame(frame), xs[ix], zs[iz], method,
                workloads.L, workloads.K, workloads.DL,
            )
            assert abs(ref - plane[iz, ix]) <= reference.FLOAT64_RTOL * scale


@pytest.mark.parametrize("method", ["das", "mv"])
def test_perturbed_plane_fails_gate(frame, planes, method):
    grid, plane = planes[0], planes[1][method]
    pixels = [(iz, ix) for iz in range(grid[5]) for ix in range(grid[4])]
    args = (workloads.reference_frame(frame), workloads.grid_axes(grid), method, pixels,
            workloads.L, workloads.K, workloads.DL)
    assert reference.check_plane(plane, *args, float32=False) == []
    stored = plane.astype("<f4").astype(np.float64)
    assert reference.check_plane(stored, *args, float32=True) == []
    assert reference.check_plane(stored, *args, float32=False) != []

    peak = np.unravel_index(int(np.argmax(np.abs(plane))), plane.shape)
    bad = plane.copy()
    bad[peak] *= 1.0 + 1e-9
    assert len(reference.check_plane(bad, *args, float32=False)) == 1
    bad32 = stored.copy()
    bad32[peak] *= 1.0 + 1e-6
    assert len(reference.check_plane(bad32, *args, float32=True)) == 1


def test_msmv_gate_properties():
    grid = (-2e-3, 2e-3, 28e-3, 32e-3, 41, 41)
    xs, zs = workloads.grid_axes(grid)
    zz, xx = np.meshgrid(zs - 0.03, xs, indexing="ij")
    # a 5 MHz pulse at the target, narrow laterally
    plane = np.cos(2 * np.pi * zz / 0.3e-3) * np.exp(-(zz / 0.3e-3) ** 2 - (xx / 0.2e-3) ** 2)
    report = {"per_target": [{"fwhm": 2e-4, "peak_sidelobe_db": -30.0}]}
    targets = [(0.0, 0.03)]
    axes = (xs, zs)
    assert reference.check_msmv(plane, axes, targets, 0, report) == []
    assert reference.check_msmv(np.roll(plane, 3, axis=1), axes, targets, 0, report) != []
    assert reference.check_msmv(plane, axes, targets, 2, report) != []
    assert reference.check_msmv(plane, axes, targets, 0, {"per_target": []}) != []
    nan = plane.copy()
    nan[0, 0] = np.nan
    assert reference.check_msmv(nan, axes, targets, 0, report) != []


def test_every_gated_workload_is_defined_and_tested():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, grid=SMALL[name])
    record = harness.measure(workload, tmp_path, seconds=0, trace=True)
    per_layer = record["per_layer"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in per_layer.items()
    }
    for metric in EXPECTED_NONZERO[name]:
        assert per_layer[metric]["value"] > 0, metric
    if name == "das-fullgrid":
        assert per_layer["covariance.estimate.calls"]["value"] == 0
        assert per_layer["numerics.spd_solve.calls"]["value"] == 0
    assert record["attempted"] == 2


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    workload = workloads.WORKLOADS["das-fullgrid"](3, grid=SMALL["das-fullgrid"])
    record = harness.measure(workload, tmp_path, seconds=0, trace=False)
    assert record["correct"], record["failures"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in record["end_to_end"].items()
    }
    assert len(record["setup_s_each"]) == harness.SETUP_REPEATS
    assert all(v["value"] != 0 for v in record["end_to_end"].values())


def test_failed_gate_counts_in_failed(tmp_path):
    workload = workloads.WORKLOADS["das-fullgrid"](3, grid=SMALL["das-fullgrid"])
    op = workload.op

    def perturbed_op(out):
        result = op(out)
        workload.image.beamformed[...] *= 1.0 + 1e-9
        return result

    workload.op = perturbed_op
    record = harness.measure(workload, tmp_path, seconds=0, trace=False)
    assert (record["correct"], record["attempted"], record["failed"]) == (False, 1, 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "das-fullgrid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
