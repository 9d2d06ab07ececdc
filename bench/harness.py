"""Measurement of one workload run: set-up, the closed loop of operations,
the gate on each output and, when tracing, one traced operation.

Load is a closed loop: one client runs operations back to back in this
process until the run's seconds have passed (at least one operation). A
traced run first runs the same untraced loop, so that the tracing overhead
is the traced operation's time minus the untraced median.
"""

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from pabeam import beamformers, cli, io, metrics, numerics, phantom, pipeline
from tracer import Tracer, span_cost_s
from workloads import MSMV_ITERS, OpResult, fresh_dir, quality

SRC = Path(__file__).resolve().parent.parent / "src"
# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 7
IMPORT_CMD = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pabeam.cli"

# Per-layer spans timed per call: (span, unit).
PER_CALL = (
    ("delays.build_snapshots", "us"),
    ("covariance.estimate", "us"),
    ("covariance.apply_dl", "us"),
    ("numerics.spd_solve", "us"),
    ("numerics.check_symmetric", "us"),
    ("beamformers.mv_weight", "us"),
    ("beamformers.msmv_weight", "us"),
    ("beamformers.beamform_output", "us"),
    ("pipeline.finalize", "ms"),
    ("metrics.evaluate", "ms"),
    ("io.read_rf", "ms"),
    ("io.write_rf", "ms"),
    ("io.write_image", "ms"),
    ("phantom.simulate_rf", "s"),
    ("phantom.add_channel_noise", "s"),
)
# Spans whose call count and self time are reported too.
COUNTED = PER_CALL[:8]
SELF_TIMED = ("numerics.spd_solve", "beamformers.msmv_weight")
METHODS = ("das", "mv", "msmv")
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def install_spans(tracer):
    """Wraps every layer boundary the workloads cross, at the name each
    caller looks up."""

    def reconstruct_span(frame, grid, method, *args, **kwargs):
        return f"pipeline.reconstruct.{getattr(method, 'value', method)}"

    def on_image(tr, image, args, kwargs):
        method = getattr(image.method, "value", image.method)
        tr.count(f"pipeline.reconstruct.{method}.px", image.grid.nx * image.grid.nz)
        tr.count("pipeline.fallback_px", image.fallback_pixel_count)

    def on_msmv(tr, weight, args, kwargs):
        iters = getattr(weight, "iterations_run", None)
        if iters is not None:
            tr.count("beamformers.msmv.weights")
            tr.count("beamformers.msmv.iters", iters)
            tr.count("beamformers.msmv.solve_break_px", iters < MSMV_ITERS)

    for attr, span in (
        ("build_snapshots", "delays.build_snapshots"),
        ("estimate", "covariance.estimate"),
        ("apply_dl", "covariance.apply_dl"),
        ("mv_weight", "beamformers.mv_weight"),
        ("beamform_output", "beamformers.beamform_output"),
    ):
        tracer.wrap(pipeline, attr, span)
    tracer.wrap(pipeline, "msmv_weight", "beamformers.msmv_weight", observe=on_msmv)
    tracer.wrap(beamformers, "spd_solve", "numerics.spd_solve")
    tracer.wrap(numerics, "check_symmetric", "numerics.check_symmetric")
    for module in (cli, pipeline):
        tracer.wrap(module, "reconstruct", reconstruct_span, observe=on_image, cpu=True)
    for module in (cli, pipeline, io):
        tracer.wrap(module, "finalize", "pipeline.finalize")
    for module in (cli, metrics):
        tracer.wrap(module, "evaluate", "metrics.evaluate")
    for attr in ("read_rf", "write_rf", "write_image"):
        tracer.wrap(io, attr, f"io.{attr}")
    for module in (cli, phantom):
        tracer.wrap(module, "simulate_rf", "phantom.simulate_rf")
        tracer.wrap(module, "add_channel_noise", "phantom.add_channel_noise")


def layer_metrics(tracer, bytes_written: int, overhead_s: float) -> dict:
    """Per-layer metrics of the traced set-up and operation. A layer that was
    not called reads 0 calls and 0 time."""
    spans, counts = tracer.spans, tracer.counters
    out = {}

    def per_call(span, unit, seconds):
        s = spans.get(span)
        return seconds(s) / s.calls * SCALE[unit] if s and s.calls else 0.0

    for span, unit in PER_CALL:
        out[f"{span}.{unit}"] = (per_call(span, unit, lambda s: s.total_s), unit)
    for span, _ in COUNTED:
        out[f"{span}.calls"] = (spans[span].calls if span in spans else 0, "count")
    for span in SELF_TIMED:
        out[f"{span}.self_us"] = (per_call(span, "us", lambda s: s.self_s), "us")
    weights = counts.get("beamformers.msmv.weights", 0)
    iters = counts.get("beamformers.msmv.iters", 0)
    out["beamformers.msmv.iters_mean"] = (iters / weights if weights else 0.0, "iter")
    out["beamformers.msmv.solve_break_px"] = (
        int(counts.get("beamformers.msmv.solve_break_px", 0)), "px")
    wall = cpu = 0.0
    for method in METHODS:
        s = spans.get(f"pipeline.reconstruct.{method}")
        px = counts.get(f"pipeline.reconstruct.{method}.px", 0)
        out[f"pipeline.reconstruct.{method}.us_px"] = (
            s.total_s / px * 1e6 if s and px else 0.0, "us/px")
        if s:
            wall += s.total_s
            cpu += s.cpu_s
    out["pipeline.reconstruct.cpu_per_wall"] = (cpu / wall if wall else 0.0, "ratio")
    out["pipeline.fallback_px"] = (int(counts.get("pipeline.fallback_px", 0)), "px")
    evaluate = spans.get("metrics.evaluate")
    out["metrics.failed"] = (evaluate.errors if evaluate else 0, "count")
    out["io.bytes_written"] = (bytes_written, "B")
    out["trace.overhead_s"] = (overhead_s, "s")
    n_spans = sum(s.calls for s in spans.values())
    out["trace.overhead_est_s"] = (n_spans * span_cost_s(), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def host_facts() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines,
    }


def timed_setup(workload, work: Path) -> float:
    """Seconds from a fresh interpreter to the first operation ready: a child
    process times the interpreter start and package import, this process
    builds the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CMD], check=True)
    workload.setup(fresh_dir(work))
    return time.perf_counter() - t0


def run_op(workload, out: Path, tracer=None):
    """One operation and its gate. Returns (seconds, OpResult)."""
    fresh_dir(out)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = workload.op(out)
    except Exception:  # a crashing operation is a failed operation
        result = OpResult(failures=[traceback.format_exc()])
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if not result.failures:
        try:
            result.failures = workload.check(out, result)
        except Exception:  # an output the gate cannot read fails it
            result.failures = ["gate: " + traceback.format_exc()]
    return seconds, result


def measure(workload, work: Path, seconds: float, trace: bool) -> dict:
    """Set-up, the closed loop of operations and, when tracing, one traced
    operation. Returns the run's record."""
    setup_s = []
    tracer = None
    if trace:
        tracer = Tracer()
        install_spans(tracer)
        tracer.install()
        try:
            workload.setup(fresh_dir(work / "setup"))
        finally:
            tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            setup_s.append(timed_setup(workload, work / "setup"))

    op_s, failures, qualities = [], [], []

    def run(tracer=None) -> float:
        secs, result = run_op(workload, work / "op", tracer)
        failures.append(result.failures)
        qualities.append({m: quality(r) for m, r in result.reports.items()})
        return secs

    deadline = time.perf_counter() + seconds
    while True:
        op_s.append(run())
        if time.perf_counter() >= deadline:
            break
    per_layer = {}
    if tracer is not None:
        overhead_s = run(tracer) - statistics.median(op_s)
        per_layer = layer_metrics(tracer, dir_bytes(work / "op"), overhead_s)
    scored = [q for q in qualities if q]
    if any(q != scored[0] for q in scored):
        failures[-1] = failures[-1] + ["image quality differs between operations"]

    end_to_end = {
        "op_s": {"value": statistics.median(op_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
    }
    if setup_s:
        end_to_end["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    primary = scored[0].get(workload.primary) if scored else None
    if primary is not None:
        end_to_end["snr_db"] = {"value": primary["snr_db"], "unit": "dB"}
        end_to_end["fwhm_mm"] = {"value": primary["fwhm_mm"], "unit": "mm"}
        end_to_end["sidelobe_margin_db"] = {"value": -primary["psl_db"], "unit": "dB"}
    failed = sum(1 for f in failures if f)
    return {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "op_s_each": op_s,
        "setup_s_each": setup_s,
        "quality_by_method": scored[0] if scored else {},
        "failures": [f for f in failures if f],
    }


