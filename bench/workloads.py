"""The benchmark's workloads: scene, set-up, one operation and its gate.

Every workload drives pabeam through its public entry points only
(``pabeam.cli.main``, ``reconstruct``, ``finalize``, ``evaluate``, and the
simulator to make inputs). Functions are looked up on their modules at call
time so that ``tracer.Tracer`` can wrap them.

Scenes share the acceptance array and settings: M=64 at 0.38 mm pitch,
100 MHz sampling, 5 MHz centre frequency, 77 % bandwidth, L=32, K=2, 50 dB
channel noise whose seed is the workload seed.
"""

import dataclasses
import functools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pabeam import FocalPoint, ImageGrid, Method, TargetSpec, cli, metrics, phantom, pipeline

import reference

GEOMETRY = {
    "n_elements": 64,
    "pitch": 0.38e-3,
    "sound_speed": 1540.0,
    "sampling_rate": 100e6,
    "center_frequency": 5e6,
    "fractional_bandwidth": 0.77,
}
L = 32
K = 2
DL = 1.0 / (100.0 * L)
MSMV_ITERS = 10
NOISE_SNR_DB = 50.0
AMPLITUDES = (10.0, 15.0, 40.0)
ACCEPTANCE_DEPTHS = (0.020, 0.030, 0.040)
# Pixels per plane checked against the reference, besides the target pixels.
GATE_PIXELS = 48


def element_x() -> np.ndarray:
    m = GEOMETRY["n_elements"]
    return (np.arange(m) - (m - 1) / 2.0) * GEOMETRY["pitch"]


def t_max(depths) -> float:
    """Record length: farthest element-to-absorber path plus a 2 us pulse tail."""
    d = max(float(np.max(np.hypot(element_x(), z))) for z in depths)
    return d / GEOMETRY["sound_speed"] + 2e-6


def run_config(depths, grid, seed) -> dict:
    x_min, x_max, z_min, z_max, nx, nz = grid
    return {
        "geometry": GEOMETRY,
        "phantom": {"absorbers": [
            {"x": 0.0, "z": z, "amplitude": a} for z, a in zip(depths, AMPLITUDES)
        ]},
        "grid": {"x_min": x_min, "x_max": x_max, "z_min": z_min, "z_max": z_max,
                 "nx": nx, "nz": nz},
        "L": L,
        "K": K,
        "dl": DL,
        "msmv": {"beta": 1.0, "n_iter": MSMV_ITERS},
        "noise": {"snr_db": NOISE_SNR_DB, "seed": seed},
        "t_max": t_max(depths),
        "workers": 1,
    }


def simulate(depths, seed):
    """The float64 frame the program builds from ``run_config``."""
    geo = phantom.ArrayGeometry(**GEOMETRY)
    ph = phantom.Phantom.from_points(
        [phantom.Absorber(x=0.0, z=z, amplitude=a) for z, a in zip(depths, AMPLITUDES)]
    )
    frame = phantom.simulate_rf(geo, ph, t_max(depths))
    return phantom.add_channel_noise(frame, NOISE_SNR_DB, seed)


def grid_axes(grid):
    x_min, x_max, z_min, z_max, nx, nz = grid
    return np.linspace(x_min, x_max, nx), np.linspace(z_min, z_max, nz)


def quality(report: dict) -> dict:
    """End-to-end image quality of one method's metrics report, as written to
    ``metrics.json``."""
    per = report["per_target"]
    return {
        "snr_db": float(report["snr_db"]),
        "fwhm_mm": max(t["fwhm"] for t in per) * 1e3,
        "psl_db": max(t["peak_sidelobe_db"] for t in per),
    }


def read_plane(base: Path, grid):
    """Raw float32 plane and sidecar written by ``pabeam`` for one image."""
    sidecar = json.loads(base.with_suffix(".json").read_text())
    plane = np.fromfile(base.with_suffix(".bin"), dtype="<f4").astype(np.float64)
    return plane.reshape(grid[5], grid[4]), sidecar


def target_pixels(grid, targets):
    xs, zs = grid_axes(grid)
    return [reference.nearest_pixel(xs, zs, x, z) for x, z in targets]


def gate_plane(plane, frame, grid, method, seed, targets, float32):
    """Reference check of a DAS or MV plane on seeded pixels plus the targets."""
    nz, nx = plane.shape
    pixels = reference.sample_pixels(
        nz, nx, seed, GATE_PIXELS, must=target_pixels(grid, targets)
    )
    return reference.check_plane(
        plane, frame, grid_axes(grid), method, pixels, L, K, DL, float32
    )


def reference_frame(frame):
    """The channel data and geometry the reference needs, from an RfFrame."""
    g = frame.geometry
    return frame.samples, g.element_x, g.sound_speed, g.sampling_rate


@dataclass
class OpResult:
    reports: dict = field(default_factory=dict)  # method -> metrics report
    failures: list = field(default_factory=list)


class Workload:
    name = ""
    primary = ""  # the method whose quality is the end-to-end metric

    def __init__(self, seed: int, grid=None):
        self.seed = seed
        if grid is not None:
            self.grid = grid  # smaller scenes for the harness's own tests

    @property
    def targets(self):
        z_min, z_max = self.grid[2], self.grid[3]
        return [(0.0, z) for z in self.depths if z_min <= z <= z_max]

    def setup(self, work: Path) -> None:
        """Builds the inputs the operations read."""
        raise NotImplementedError

    def op(self, out: Path) -> OpResult:
        """One timed operation writing into the empty directory ``out``."""
        raise NotImplementedError

    def check(self, out: Path, result: OpResult) -> list:
        """The gate on one operation's output; returns failure messages."""
        raise NotImplementedError


class Compare3Target(Workload):
    name = "compare-3target"
    primary = "msmv"
    depths = (0.012, 0.016, 0.020)
    grid = (-2e-3, 2e-3, 10e-3, 22e-3, 61, 121)

    def setup(self, work):
        self.config = work / "config.json"
        self.config.write_text(json.dumps(run_config(self.depths, self.grid, self.seed)))

    def op(self, out):
        res = OpResult()
        rc = cli.main(["compare", "--config", str(self.config), "--out", str(out)])
        if rc != 0:
            res.failures.append(f"pabeam compare exited {rc}")
            return res
        reports = json.loads((out / "metrics.json").read_text())
        res.reports = {r["method"]: r for r in reports}
        return res

    @functools.cached_property
    def frame(self):
        """The float64 frame ``pabeam compare`` simulates internally."""
        return reference_frame(simulate(self.depths, self.seed))

    def check(self, out, result):
        failures = []
        for method in ("das", "mv", "msmv"):
            plane, sidecar = read_plane(out / f"image_{method}", self.grid)
            if method not in result.reports:
                failures.append(f"{method}: metrics did not compute")
            if method == "msmv":
                failures += reference.check_msmv(
                    plane, grid_axes(self.grid), self.targets,
                    sidecar["fallback_pixel_count"], result.reports.get("msmv"),
                )
            else:
                failures += gate_plane(
                    plane, self.frame, self.grid, method, self.seed, self.targets, True
                )
        return failures


class MvFile2W(Workload):
    name = "mv-file-2w"
    primary = "mv"
    depths = ACCEPTANCE_DEPTHS
    grid = (-8e-3, 8e-3, 27e-3, 33e-3, 240, 61)

    def setup(self, work):
        config = work / "config.json"
        config.write_text(json.dumps(run_config(self.depths, self.grid, self.seed)))
        self.rf = work / "rf"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(self.rf)])
        if rc != 0:
            raise RuntimeError(f"pabeam simulate exited {rc}")
        self.target_file = work / "targets.json"
        self.target_file.write_text(json.dumps(
            {"targets": [{"x": x, "z": z} for x, z in self.targets]}
        ))

    def op(self, out):
        res = OpResult()
        x_min, x_max, z_min, z_max, nx, nz = self.grid
        rc = cli.main([
            "beamform", "--rf", str(self.rf), "--method", "mv", "--workers", "2",
            "--L", str(L), "--K", str(K), "--dl", repr(DL), "--profile-depth", "0.03",
            f"--grid={x_min!r},{x_max!r},{z_min!r},{z_max!r},{nx},{nz}",
            "--out", str(out / "image"),
        ])
        if rc == 0:
            rc = cli.main(["metrics", "--image", str(out / "image"), "--targets",
                           str(self.target_file), "--out", str(out / "metrics.json")])
        if rc != 0:
            res.failures.append(f"pabeam beamform/metrics exited {rc}")
            return res
        [report] = json.loads((out / "metrics.json").read_text())
        res.reports = {"mv": report}
        return res

    def check(self, out, result):
        header = json.loads(self.rf.with_suffix(".json").read_text())
        samples = np.fromfile(self.rf.with_suffix(".bin"), dtype="<f4").astype(np.float64)
        frame = (samples.reshape(header["n_elements"], header["n_samples"]),
                 np.asarray(header["element_x"]), header["sound_speed"],
                 header["sampling_rate"])
        plane, sidecar = read_plane(out / "image", self.grid)
        failures = gate_plane(plane, frame, self.grid, "mv", self.seed, self.targets, True)
        if sidecar["fallback_pixel_count"] != 0:
            failures.append(f"mv: {sidecar['fallback_pixel_count']} fallback pixels")
        return failures


class DasFullGrid(Workload):
    name = "das-fullgrid"
    primary = "das"
    depths = ACCEPTANCE_DEPTHS
    grid = (-8e-3, 8e-3, 17e-3, 43e-3, 240, 260)

    def setup(self, work):
        self.frame = simulate(self.depths, self.seed)

    def op(self, out):
        x_min, x_max, z_min, z_max, nx, nz = self.grid
        grid = ImageGrid(x_min, x_max, z_min, z_max, nx, nz)
        image = pipeline.reconstruct(self.frame, grid, Method.DAS, L=L, K=K)
        self.image = pipeline.finalize(image)
        spec = TargetSpec(targets=tuple(FocalPoint(x, z) for x, z in self.targets))
        report = metrics.evaluate(self.image, spec)
        return OpResult(reports={"das": dataclasses.asdict(report)})

    def check(self, out, result):
        return gate_plane(
            self.image.beamformed, reference_frame(self.frame), self.grid, "das",
            self.seed, self.targets, False,
        )


WORKLOADS = {w.name: w for w in (Compare3Target, MvFile2W, DasFullGrid)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
