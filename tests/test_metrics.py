import csv
import json

import numpy as np
import pytest

from pabeam import io as pio
from pabeam.beamformers import Method
from pabeam.delays import FocalPoint
from pabeam.errors import (
    DegenerateImage,
    DepthOutOfGrid,
    NoPeakFound,
    WidthUnbounded,
)
from pabeam.metrics import (
    TargetSpec,
    evaluate,
    fwhm,
    lateral_profile,
    peak_sidelobe,
    snr,
)
from pabeam.pipeline import ImageGrid, PaImage, log_compress


def image_from_envelope(env, grid=None):
    env = np.asarray(env, float)
    if grid is None:
        nz, nx = env.shape
        grid = ImageGrid(-5e-3, 5e-3, 0.01, 0.03, nx, nz)
    peak = env.max()
    env_norm = env / peak if peak > 0 else env
    return PaImage(
        grid=grid,
        beamformed=env,
        method=Method.DAS,
        envelope=env_norm,
        db=log_compress(env, 60.0),
        dynamic_range_db=60.0,
    )


class TestSnr:
    def test_formula(self):
        env = np.array([[0.0, 1.0], [0.5, 0.5]])
        img = image_from_envelope(env)
        expected = 20 * np.log10((1.0 - 0.0) / np.std(img.envelope))
        assert snr(img) == pytest.approx(expected, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateImage):
            snr(image_from_envelope(np.full((4, 4), 0.7)))

    def test_requires_envelope(self):
        img = PaImage(
            grid=ImageGrid(-1e-3, 1e-3, 0.01, 0.02, 4, 4),
            beamformed=np.ones((4, 4)),
            method=Method.DAS,
        )
        with pytest.raises(ValueError):
            snr(img)


class TestLateralProfile:
    def test_row_selection(self):
        env = np.zeros((5, 3))
        env[2, 1] = 1.0
        env += 1e-3
        grid = ImageGrid(-1e-3, 1e-3, 0.01, 0.02, 3, 5)
        img = image_from_envelope(env, grid)
        prof = lateral_profile(img, 0.015)  # middle row
        assert prof.shape == (3, 2)
        np.testing.assert_allclose(prof[:, 0], grid.x_coords)
        assert prof[1, 1] == pytest.approx(0.0)  # the global peak, 0 dB

    def test_depth_out_of_grid(self):
        img = image_from_envelope(np.ones((5, 3)) + np.eye(5, 3))
        with pytest.raises(DepthOutOfGrid):
            lateral_profile(img, 0.5)


class TestFwhm:
    def gaussian_image(self, sigma, nx=801, extent=5e-3):
        grid = ImageGrid(-extent, extent, 0.01, 0.03, nx, 5)
        xs = grid.x_coords
        row = np.exp(-(xs**2) / (2 * sigma**2))
        env = np.tile(row * 1e-6, (5, 1))
        env[2] = row
        return image_from_envelope(env, grid)

    def test_gaussian_width(self):
        # FWHM of a Gaussian is 2 sqrt(2 ln 2) sigma = 2.35482 sigma
        sigma = 0.5e-3
        img = self.gaussian_image(sigma)
        w = fwhm(img, FocalPoint(0.0, 0.02))
        assert w == pytest.approx(2.3548200450309493 * sigma, rel=0.01)

    def test_triangle_width(self):
        # unit triangle of half-base 1 mm: half max at +/- 0.5 mm exactly
        grid = ImageGrid(-2e-3, 2e-3, 0.01, 0.03, 401, 3)
        xs = grid.x_coords
        row = np.maximum(1.0 - np.abs(xs) / 1e-3, 0.0)
        env = np.tile(row * 1e-9, (3, 1))
        env[1] = row
        img = image_from_envelope(env, grid)
        w = fwhm(img, FocalPoint(0.0, 0.02))
        assert w == pytest.approx(1.0e-3, rel=1e-6)

    def test_width_unbounded(self):
        img = image_from_envelope(np.ones((3, 9)) + 0.1 * np.eye(3, 9, 3))
        with pytest.raises(WidthUnbounded):
            fwhm(img, FocalPoint(0.0, 0.02))

    def test_no_peak(self):
        # strictly monotone rows have no interior local maximum
        env = np.tile(np.linspace(0.1, 1.0, 9), (3, 1))
        with pytest.raises(NoPeakFound):
            fwhm(image_from_envelope(env), FocalPoint(0.0, 0.02))

    def test_nearest_peak_chosen(self):
        grid = ImageGrid(-4e-3, 4e-3, 0.01, 0.03, 161, 3)
        xs = grid.x_coords
        row = np.exp(-((xs - 2e-3) ** 2) / (2 * (0.3e-3) ** 2)) + 0.5 * np.exp(
            -((xs + 2e-3) ** 2) / (2 * (0.6e-3) ** 2)
        )
        env = np.tile(row * 1e-9, (3, 1))
        env[1] = row
        img = image_from_envelope(env, grid)
        w = fwhm(img, FocalPoint(-2e-3, 0.02))
        assert w == pytest.approx(2.3548200450309493 * 0.6e-3, rel=0.02)


class TestPeakSidelobe:
    def sidelobe_image(self, level_db=-20.0):
        grid = ImageGrid(-4e-3, 4e-3, 0.01, 0.03, 401, 3)
        xs = grid.x_coords
        main = np.exp(-(xs**2) / (2 * (0.2e-3) ** 2))
        lobe = 10 ** (level_db / 20) * np.exp(
            -((xs - 2.5e-3) ** 2) / (2 * (0.2e-3) ** 2)
        )
        row = main + lobe
        env = np.tile(row * 1e-9, (3, 1))
        env[1] = row
        return image_from_envelope(env, grid)

    def test_known_level(self):
        img = self.sidelobe_image(-20.0)
        psl = peak_sidelobe(img, FocalPoint(0.0, 0.02))
        assert psl == pytest.approx(-20.0, abs=0.2)

    def test_explicit_exclusion(self):
        img = self.sidelobe_image(-13.0)
        psl = peak_sidelobe(img, FocalPoint(0.0, 0.02), mainlobe_exclusion=1.0e-3)
        assert psl == pytest.approx(-13.0, abs=0.2)

    def test_exclusion_covers_row(self):
        img = self.sidelobe_image()
        assert peak_sidelobe(img, FocalPoint(0.0, 0.02), mainlobe_exclusion=1.0) is None


def assert_sidelobes_are_peak_sidelobe(img, spec, report, measured):
    # evaluate's sidelobe is peak_sidelobe outside 3x the target's FWHM,
    # None included
    for target, t in zip(spec.targets, report.per_target, strict=True):
        expected = peak_sidelobe(img, target, 3 * fwhm(img, target))
        assert t.peak_sidelobe_db == expected
        assert (expected is not None) == measured


class TestEvaluate:
    def test_report_structure(self):
        grid = ImageGrid(-4e-3, 4e-3, 0.015, 0.025, 401, 11)
        xs = grid.x_coords
        row = np.exp(-(xs**2) / (2 * (0.3e-3) ** 2))
        env = np.tile(row * 1e-6, (11, 1))
        env[5] = row
        img = image_from_envelope(env, grid)
        spec = TargetSpec(targets=(FocalPoint(0.0, 0.02),))
        report = evaluate(img, spec)
        assert report.method == "das"
        assert len(report.per_target) == 1
        assert report.per_target[0].depth == 0.02
        assert report.per_target[0].fwhm == pytest.approx(
            2.3548200450309493 * 0.3e-3, rel=0.02
        )
        assert_sidelobes_are_peak_sidelobe(img, spec, report, measured=True)

    def test_sidelobe_unmeasurable_keeps_report(self, tmp_path):
        # 3x the FWHM (0.71 mm) covers the whole +-1 mm row: the sidelobe is
        # None, while the SNR and FWHM are reported as for any image
        grid = ImageGrid(-1e-3, 1e-3, 0.015, 0.025, 41, 11)
        row = np.exp(-(grid.x_coords**2) / (2 * (0.3e-3) ** 2))
        env = np.tile(row * 1e-6, (11, 1))
        env[5] = row
        img = image_from_envelope(env, grid)
        target = FocalPoint(0.0, 0.02)
        report = evaluate(img, TargetSpec(targets=(target,)))
        assert report.snr_db == snr(img)
        (t,) = report.per_target
        assert t.fwhm == fwhm(img, target)
        assert t.peak_sidelobe_db is None
        assert peak_sidelobe(img, target) is None
        assert_sidelobes_are_peak_sidelobe(img, TargetSpec(targets=(target,)), report,
                                           measured=False)
        pio.write_metrics_json(tmp_path / "m.json", [report])
        raw = json.loads((tmp_path / "m.json").read_text())
        assert raw[0]["per_target"][0]["peak_sidelobe_db"] is None
        assert pio.read_metrics_json(tmp_path / "m.json") == [report]
        pio.write_metrics_csv(tmp_path / "m.csv", [report])
        with open(tmp_path / "m.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["peak_sidelobe_db"] == ""
        assert float(rows[0]["fwhm_m"]) == t.fwhm
