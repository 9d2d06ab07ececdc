import json
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pabeam import io as pio
from pabeam.beamformers import Method
from pabeam.cli import main
from pabeam.delays import FocalPoint
from pabeam.errors import ConfigError, PabeamError
from pabeam.metrics import MetricsReport, TargetMetrics
from pabeam.phantom import Absorber, ArrayGeometry, Phantom, RfFrame, simulate_rf
from pabeam.pipeline import ImageGrid, PaImage, finalize


def geometry(m=8, fs=40e6):
    return ArrayGeometry(
        n_elements=m, pitch=3e-4, sound_speed=1540.0, sampling_rate=fs,
        center_frequency=5e6, fractional_bandwidth=0.77,
    )


def _nested(path, value):
    """The config dict that sets only the dotted ``path``; a ``[0]`` part
    is the first element of a list of objects."""
    raw = node = {}
    *parents, key = path.split(".")
    for part in parents:
        if part.endswith("[0]"):
            node[part[:-3]] = [{"x": 0.0, "z": 0.02}]
            node = node[part[:-3]][0]
        else:
            node = node.setdefault(part, {})
    node[key] = value
    return raw


HUGE = 10**400  # an integer literal too large for a float


def _id(value):
    return "10**400" if value == HUGE else str(value)


# config values refused with a ConfigError that names their key
BAD_VALUES = [
    ("geometry.pitch", 0.0), ("geometry.pitch", -3e-4),
    ("geometry.pitch", float("nan")), ("geometry.sound_speed", 0.0),
    ("geometry.sound_speed", -1540.0), ("geometry.center_frequency", -5e6),
    ("geometry.sampling_rate", float("nan")), ("noise.snr_db", float("nan")),
    ("t_max", -1e-6), ("t_max", 0.0), ("t_max", float("nan")),
    ("phantom.absorbers[0].z", float("nan")), ("phantom.absorbers[0].x", float("inf")),
    ("phantom.absorbers[0].z", 0.0),
    ("noise.seed", -1), ("K", HUGE),
    *[(path, HUGE) for path in (
        "geometry.pitch", "geometry.sound_speed", "geometry.sampling_rate",
        "geometry.center_frequency", "geometry.fractional_bandwidth", "grid.x_min",
        "grid.x_max", "grid.z_min", "grid.z_max", "dl", "msmv.beta", "noise.snr_db",
        "dynamic_range_db", "t_max", "phantom.absorbers[0].x",
        "phantom.absorbers[0].z", "phantom.absorbers[0].amplitude",
    )],
    # a block that is not an object is refused, not read as absent
    ("grid", "abc"), ("msmv", [1]), ("geometry", 16),
]


@st.composite
def _raw_configs(draw):
    """A valid config that sets any subset of the keys, the phantom, noise
    and an explicit t_max each present or not."""
    floats = st.floats
    raw = draw(st.fixed_dictionaries({}, optional={
        "geometry": st.fixed_dictionaries(
            {"n_elements": st.integers(1, 64)},
            optional={"pitch": floats(1e-5, 1e-3),
                      "sampling_rate": st.sampled_from([20e6, 40e6, 100e6])},
        ),
        "grid": st.builds(
            lambda x0, dx, z0, dz, nx, nz: {"x_min": x0, "x_max": x0 + dx, "z_min": z0,
                                           "z_max": z0 + dz, "nx": nx, "nz": nz},
            floats(-2e-2, 0.0), floats(1e-4, 2e-2), floats(1e-3, 5e-2),
            floats(1e-4, 2e-2), st.integers(1, 300), st.integers(1, 300),
        ),
        "K": st.integers(0, 4),
        "dl": floats(0.0, 1.0),
        "msmv": st.fixed_dictionaries({}, optional={"beta": floats(0.0, 10.0),
                                                    "n_iter": st.integers(0, 20)}),
        "noise": st.fixed_dictionaries({}, optional={"snr_db": floats(-20.0, 80.0),
                                                     "seed": st.integers(0, 2**32)}),
        "dynamic_range_db": floats(1.0, 100.0),
        "t_max": floats(1e-6, 1e-3),
        "workers": st.integers(1, 8),
        "phantom": st.fixed_dictionaries({"absorbers": st.lists(st.fixed_dictionaries(
            {"x": floats(-1e-2, 1e-2), "z": floats(1e-3, 5e-2)},
            optional={"amplitude": floats(0.1, 10.0)},
        ), min_size=1, max_size=3)}),
    }))
    if draw(st.booleans()):
        m = raw.get("geometry", {}).get("n_elements", 128)
        raw["L"] = draw(st.integers(1, m))
    return raw


class TestResolveConfig:
    def test_defaults(self):
        cfg = pio.resolve_config({})
        assert cfg.geometry.n_elements == 128
        assert cfg.geometry.pitch == pytest.approx(0.3e-3)
        assert cfg.geometry.sampling_rate == pytest.approx(20e6)
        assert cfg.L == 64
        assert cfg.K == 2
        assert cfg.dl == pytest.approx(1.0 / 6400.0)
        assert cfg.msmv.beta == 1.0
        assert cfg.msmv.n_iter == 10
        assert cfg.dynamic_range_db == 50.0
        assert cfg.phantom is None

    def test_absorbers(self):
        cfg = pio.resolve_config(
            {"phantom": {"absorbers": [{"x": 0.0, "z": 0.02, "amplitude": 3.0}]}}
        )
        assert len(cfg.phantom.absorbers) == 1
        assert cfg.phantom.absorbers[0].amplitude == 3.0

    def test_error_paths_named(self):
        with pytest.raises(ConfigError, match="phantom.absorbers"):
            pio.resolve_config({"phantom": {"absorbers": []}})
        with pytest.raises(ConfigError, match=r"phantom\.absorbers\[0\]"):
            pio.resolve_config({"phantom": {"absorbers": [{"x": 0.0}]}})
        with pytest.raises(ConfigError, match="L"):
            pio.resolve_config({"L": 500})
        with pytest.raises(ConfigError, match="sampling_rate|geometry"):
            pio.resolve_config({"geometry": {"sampling_rate": 1e6}})
        with pytest.raises(ConfigError, match="dynamic_range_db"):
            pio.resolve_config({"dynamic_range_db": -5})
        with pytest.raises(ConfigError, match=r"msmv\.beta"):
            pio.resolve_config({"msmv": {"beta": float("nan")}})
        with pytest.raises(ConfigError, match="dl"):
            pio.resolve_config({"dl": float("inf")})
        for path, value in BAD_VALUES:
            with pytest.raises(ConfigError) as exc:
                pio.resolve_config(_nested(path, value))
            assert all(part in str(exc.value) for part in path.split("."))

    def test_method_key_ignored(self):
        # no command reads a method from a config (compare forms all three
        # images), so like any key that is never read it changes nothing
        base = pio.config_to_dict(pio.resolve_config({}))
        assert "method" not in base
        for method in ("sc", "bogus", "MV"):
            assert pio.config_to_dict(pio.resolve_config({"method": method})) == base

    def test_retired_msmv_keys(self):
        # older manifests carry these keys at these values; no command reads
        # them
        base = pio.config_to_dict(pio.resolve_config({}))
        old = {"early_stop": False, "early_stop_tol": 1e-6,
               "epsilon_floor_rel": 1e-12, "penalty_window": "full"}
        for msmv in (old, {"early_stop_tol": 0.5}):
            assert pio.config_to_dict(pio.resolve_config({"msmv": msmv})) == base
        assert base["msmv"] == {"beta": 1.0, "n_iter": 10}

    def test_retired_keys_ignored(self, tmp_path):
        # retired msmv keys are ignored at any value, as other unread keys are
        base = pio.config_to_dict(pio.resolve_config({}))
        for key, value in (("early_stop", True), ("early_stop", 0),
                           ("epsilon_floor_rel", 1e-4), ("epsilon_floor_rel", "1e-12"),
                           ("penalty_window", "center")):
            assert pio.config_to_dict(pio.resolve_config({"msmv": {key: value}})) == base
        ab = {"x": 0.0, "z": 0.02, "amplitude": 3.0}
        cfg = pio.resolve_config({"phantom": {"absorbers": [dict(ab, radius=1e-4)]}})
        assert cfg.phantom.absorbers == (Absorber(0.0, 0.02, amplitude=3.0),)
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(
            {"targets": [{"x": 0.0, "z": 0.02}], "depth_tolerance": 5e-4}
        ))
        assert pio.load_targets(path).targets == (FocalPoint(0.0, 0.02),)

    @pytest.mark.parametrize("path, value", [
        ("geometry.n_elements", 16.5), ("grid.nx", 9.5), ("grid.nz", 11.2),
        ("L", 16.5), ("K", 1.5), ("msmv.n_iter", 2.5), ("noise.seed", 5.5),
        ("workers", 1.9),
    ])
    def test_integer_field_rejects_fraction(self, path, value):
        # a fraction used to be truncated, and the manifest recorded the
        # truncated value; an integral float such as 16.0 is still accepted
        with pytest.raises(ConfigError, match=re.escape(f"{path} must be an integer")):
            pio.resolve_config(_nested(path, value))
        whole = float(int(value))
        cfg = pio.config_to_dict(pio.resolve_config(_nested(path, whole)))
        for part in path.split("."):
            cfg = cfg[part]
        assert cfg == whole and type(cfg) is int

    @pytest.mark.parametrize("path", ["L", "grid.x_min", "dynamic_range_db", "workers"])
    def test_null_reads_as_absent(self, path):
        # a JSON null is an absent key: the field takes its default
        got = pio.config_to_dict(pio.resolve_config(_nested(path, None)))
        assert got == pio.config_to_dict(pio.resolve_config({}))

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="geometry.pitch"):
            pio.resolve_config({"geometry": {"pitch": "wide"}})

    def test_one_element_default_L(self):
        # M // 2 is 0 for one element; the default L is at least 1
        assert pio.resolve_config({"geometry": {"n_elements": 1}}).L == 1

    def test_t_max_only_with_phantom(self):
        # t_max sizes the simulated frame: derived from the phantom, never
        # from the grid, and an explicit one is kept without a phantom
        assert pio.resolve_config({}).t_max is None
        assert "phantom" not in pio.config_to_dict(pio.resolve_config({}))
        assert pio.resolve_config({"t_max": 3e-5}).t_max == 3e-5
        cfg = pio.resolve_config({"phantom": {"absorbers": [{"x": 0.0, "z": 0.02}]}})
        far = np.hypot(cfg.geometry.element_x[0], 0.02)
        assert cfg.t_max == far / cfg.geometry.sound_speed + 2e-6

    @settings(max_examples=200, deadline=None)
    @given(raw=_raw_configs())
    @example(raw={
        "geometry": {"n_elements": 16, "sampling_rate": 40e6},
        "phantom": {"absorbers": [{"x": 0.0, "z": 0.02}]},
        "grid": {"x_min": -2e-3, "x_max": 2e-3, "z_min": 0.018,
                 "z_max": 0.022, "nx": 11, "nz": 13},
        "noise": {"snr_db": 50.0, "seed": 42},
    })
    def test_roundtrip_through_dict(self, raw):
        # the manifest is the resolved config: read back, in process or as
        # JSON, it resolves to the same config, and written again it is the
        # same text
        cfg = pio.resolve_config(raw)
        assert pio.resolve_config(pio.config_to_dict(cfg)) == cfg
        text = json.dumps(pio.config_to_dict(cfg), indent=2)
        again = pio.resolve_config(json.loads(text))
        assert again == cfg
        assert json.dumps(pio.config_to_dict(again), indent=2) == text


@pytest.mark.parametrize("base, stem", [
    ("rf", "rf"), ("rf.bin", "rf"), ("rf.json", "rf"), ("out/rf.bin", "out/rf"),
    ("scan_0.5mm", "scan_0.5mm"), ("scan_0.5mm.json", "scan_0.5mm"),
    ("image.pgm", "image.pgm"), ("rf.bin.bin", "rf.bin"),
])
def test_stem(base, stem):
    # only a trailing .bin or .json is dropped; any other dot stays
    assert pio.stem(base) == Path(stem)


class TestRfRoundtrip:
    def test_roundtrip(self, tmp_path):
        geo = geometry()
        frame = simulate_rf(
            geo, Phantom.from_points([Absorber(0.0, 0.02)]), 30e-6
        )
        pio.write_rf(tmp_path / "rf", frame)
        back = pio.read_rf(tmp_path / "rf")
        assert back.geometry.n_elements == 8
        assert np.array_equal(back.geometry.element_x, geo.element_x)
        # float32 storage quantizes the samples
        np.testing.assert_allclose(back.samples, frame.samples, atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 256), pitch=st.floats(1e-5, 2e-3))
    def test_geometry_exact(self, m, pitch):
        # the header's element_x gives back the pitch, and so the geometry;
        # a one-element array records no pitch, and reads as pitch 1.0
        geo = ArrayGeometry(
            n_elements=m, pitch=pitch, sound_speed=1540.0, sampling_rate=40e6,
            center_frequency=5e6, fractional_bandwidth=0.77,
        )
        with tempfile.TemporaryDirectory() as tmp:
            pio.write_rf(Path(tmp) / "rf", RfFrame(geometry=geo, samples=np.zeros((m, 3))))
            back = pio.read_rf(Path(tmp) / "rf")
        assert back.geometry == (geo if m > 1 else replace(geo, pitch=1.0))
        assert np.array_equal(back.geometry.element_x, geo.element_x)

    @pytest.mark.parametrize("m, t", [(8, 0), (8, 1), (1, 0), (1, 1), (1, 7)])
    def test_smallest_records(self, tmp_path, m, t):
        # no samples, one sample per channel, one channel: each read into a
        # record of its own, samples between two guard zeros per channel
        samples = np.arange(m * t, dtype=np.float64).reshape(m, t) - 2.5
        pio.write_rf(tmp_path / "rf", RfFrame(geometry=geometry(m), samples=samples))
        back = pio.read_rf(tmp_path / "rf")
        assert back.samples.shape == (m, t)
        assert back.samples.tobytes() == samples.tobytes()
        padded = np.pad(samples, ((0, 0), (2, 2))).reshape(-1)
        assert back.guarded.tobytes() == padded.tobytes()
        assert t == 0 or np.shares_memory(back.samples, back.guarded)
        # and each beamforms with every method
        for method in ("das", "mv", "msmv"):
            img = tmp_path / f"img_{method}"
            assert main(["beamform", "--rf", str(tmp_path / "rf"), "--method", method,
                         "--grid=-1e-3,1e-3,0.001,0.003,5,7", "--out", str(img)]) == 0
            assert pio.read_image(img).beamformed.shape == (7, 5)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "rf.json").write_text(json.dumps({"magic": "NOPE"}))
        (tmp_path / "rf.bin").write_bytes(b"")
        with pytest.raises(ConfigError):
            pio.read_rf(tmp_path / "rf")

    def test_size_mismatch(self, tmp_path):
        geo = geometry()
        frame = RfFrame(geometry=geo, samples=np.zeros((8, 10)))
        pio.write_rf(tmp_path / "rf", frame)
        (tmp_path / "rf.bin").write_bytes(b"\0" * 16)
        with pytest.raises(ConfigError):
            pio.read_rf(tmp_path / "rf")


class TestImageRoundtrip:
    def make_image(self):
        rng = np.random.default_rng(3)
        grid = ImageGrid(-2e-3, 2e-3, 0.018, 0.022, 7, 9)
        img = PaImage(
            grid=grid,
            beamformed=rng.standard_normal((9, 7)),
            method=Method.MV,
            fallback_pixel_count=2,
        )
        return finalize(img, 45.0)

    def test_roundtrip(self, tmp_path):
        img = self.make_image()
        pio.write_image(tmp_path / "img", img)
        back = pio.read_image(tmp_path / "img")
        assert back.method is Method.MV
        assert back.fallback_pixel_count == 2
        assert back.dynamic_range_db == 45.0
        np.testing.assert_allclose(back.beamformed, img.beamformed, atol=1e-6)
        # envelope/db recomputed from the raw plane, not stored
        np.testing.assert_allclose(back.envelope, img.envelope, atol=1e-5)

    def test_unfinalized_image_writes_nothing(self, tmp_path):
        grid = ImageGrid(-2e-3, 2e-3, 0.018, 0.022, 3, 2)
        image = PaImage(grid=grid, beamformed=np.ones((2, 3)), method=Method.MV)
        with pytest.raises(ConfigError, match="finalize"):
            pio.write_image(tmp_path / "img", image)
        for suffix in (".bin", ".json", ".pgm"):
            assert not (tmp_path / "img").with_suffix(suffix).exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_refused(self, tmp_path, value):
        # by the .bin's name, as a non-finite RF sample is
        _image_with_pixel(tmp_path, value)
        with pytest.raises(ConfigError, match="img.bin holds a NaN or infinite value"):
            pio.read_image(tmp_path / "img")

    def test_pgm_mapping(self, tmp_path):
        path = tmp_path / "view.pgm"
        db = np.array([[0.0, -25.0, -50.0]])
        pio.write_pgm(path, db, 50.0)
        data = path.read_bytes()
        header, pixels = data[: data.index(b"255\n") + 4], data[-3:]
        assert header.startswith(b"P5\n3 1\n")
        assert pixels == bytes([255, 128, 0])


class TestReportsAndTargets:
    def report(self):
        return MetricsReport(
            method="mv",
            snr_db=37.5,
            per_target=(
                TargetMetrics(depth=0.02, fwhm=3e-4, peak_sidelobe_db=-30.0),
            ),
        )

    def test_metrics_json_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.json"
        pio.write_metrics_json(path, [self.report()])
        back = pio.read_metrics_json(path)
        assert back == [self.report()]

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        pio.write_metrics_csv(path, [self.report()])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(pio.METRICS_CSV_COLUMNS)
        assert lines[1].startswith("mv,37.5,0.02,")

    def test_load_targets(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"targets": [{"x": 0.0, "z": 0.02}]}))
        spec = pio.load_targets(path)
        assert spec.targets == (FocalPoint(0.0, 0.02),)
        path.write_text(json.dumps({"targets": []}))
        with pytest.raises(ConfigError):
            pio.load_targets(path)


# The run-manifest.json that `compare` wrote for small_config while the msmv
# block still carried its retired keys and the config a method
OLD_MANIFEST = {
    "geometry": {"n_elements": 16, "pitch": 0.0003, "sound_speed": 1540.0,
                 "sampling_rate": 40000000.0, "center_frequency": 5000000.0,
                 "fractional_bandwidth": 0.77},
    "grid": {"x_min": -0.002, "x_max": 0.002, "z_min": 0.018, "z_max": 0.022,
             "nx": 9, "nz": 11},
    "method": "msmv", "L": 8, "K": 1, "dl": 0.00125,
    "msmv": {"beta": 1.0, "n_iter": 10, "early_stop": False, "early_stop_tol": 1e-06,
             "epsilon_floor_rel": 1e-12, "penalty_window": "full"},
    "noise": {"snr_db": 50.0, "seed": 5}, "dynamic_range_db": 50.0,
    "t_max": 1.5068938027648527e-05, "workers": 1,
    "phantom": {"absorbers": [{"x": 0.0, "z": 0.02, "amplitude": 1.0}]},
}


def _valid_rf(tmp_path):
    pio.write_rf(tmp_path / "rf", RfFrame(geometry=geometry(), samples=np.zeros((8, 10))))
    return tmp_path / "rf.json"


def _valid_image(tmp_path):
    grid = ImageGrid(-2e-3, 2e-3, 0.018, 0.022, 3, 2)
    image = PaImage(grid=grid, beamformed=np.ones((2, 3)), method=Method.MV)
    pio.write_image(tmp_path / "img", finalize(image))
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"targets": [{"x": 0.0, "z": 0.02}]}))
    return tmp_path / "img.json", targets


def _rewrite_json(path, edit):
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))


def _rf_without_element_x(tmp_path):
    header = _valid_rf(tmp_path)
    _rewrite_json(header, lambda raw: raw.pop("element_x"))
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _rf_non_uniform_element_x(tmp_path):
    header = _valid_rf(tmp_path)

    def nudge(raw):  # still increasing, but no longer uniform
        raw["element_x"][2] += 1e-5

    _rewrite_json(header, nudge)
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _rf_element_x_wrong_length(tmp_path):
    header = _valid_rf(tmp_path)
    _rewrite_json(header, lambda raw: raw["element_x"].pop())
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _rf_sample_encoding(tmp_path):
    header = _valid_rf(tmp_path)
    _rewrite_json(header, lambda raw: raw.update(sample_encoding="f64le"))
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _rf_header_not_json(tmp_path):
    header = _valid_rf(tmp_path)
    header.write_text("PARF v1")
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _image_partial_grid(tmp_path):
    sidecar, targets = _valid_image(tmp_path)
    _rewrite_json(sidecar, lambda raw: raw["grid"].pop("nz"))
    return ["metrics", "--image", str(tmp_path / "img"), "--targets", str(targets)], sidecar


def _image_without_dynamic_range(tmp_path):
    sidecar, targets = _valid_image(tmp_path)
    _rewrite_json(sidecar, lambda raw: raw.pop("dynamic_range_db"))
    return ["metrics", "--image", str(tmp_path / "img"), "--targets", str(targets)], sidecar


def _image_plane_encoding(tmp_path):
    sidecar, targets = _valid_image(tmp_path)
    _rewrite_json(sidecar, lambda raw: raw.update(plane_encoding="f64le"))
    return ["metrics", "--image", str(tmp_path / "img"), "--targets", str(targets)], sidecar


def _targets_not_json(tmp_path):
    _, targets = _valid_image(tmp_path)
    targets.write_text("{targets: []")
    return ["metrics", "--image", str(tmp_path / "img"), "--targets", str(targets)], targets


def _rf_element_x_overflows(tmp_path):
    header = _valid_rf(tmp_path)

    def overflow(raw):  # a position no float can hold
        raw["element_x"][0] = HUGE

    _rewrite_json(header, overflow)
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _rf_with_sample(tmp_path, value):
    header = _valid_rf(tmp_path)
    samples = np.fromfile(tmp_path / "rf.bin", dtype="<f4")
    samples[17] = value
    samples.tofile(tmp_path / "rf.bin")
    return ["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv"], header


def _rf_nan_sample(tmp_path):  # the solver would take NaN covariances as definite
    return _rf_with_sample(tmp_path, np.nan)


def _rf_inf_sample(tmp_path):
    return _rf_with_sample(tmp_path, -np.inf)


def _image_with_pixel(tmp_path, value):
    sidecar, targets = _valid_image(tmp_path)
    plane = np.fromfile(tmp_path / "img.bin", dtype="<f4")
    plane[4] = value
    plane.tofile(tmp_path / "img.bin")
    return ["metrics", "--image", str(tmp_path / "img"), "--targets", str(targets)], sidecar


def _image_nan_pixel(tmp_path):  # metrics would take its row for one without a peak
    return _image_with_pixel(tmp_path, np.nan)


def _image_inf_pixel(tmp_path):
    return _image_with_pixel(tmp_path, np.inf)


def _image_neg_inf_pixel(tmp_path):
    return _image_with_pixel(tmp_path, -np.inf)


def _config_not_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("geometry = 16")
    return ["compare", "--config", str(config)], config


def _config_not_object(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[16]")
    return ["compare", "--config", str(config)], config


SMALL_CONFIG = {
    "geometry": {"n_elements": 16, "sampling_rate": 40e6},
    "phantom": {"absorbers": [{"x": 0.0, "z": 0.02}]},
    "grid": {"x_min": -2e-3, "x_max": 2e-3, "z_min": 0.018,
             "z_max": 0.022, "nx": 9, "nz": 11},
    "noise": {"snr_db": 50.0, "seed": 5},
    "K": 1,
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestCli:
    def test_simulate_and_beamform(self, tmp_path, small_config):
        rf = tmp_path / "frame"
        assert main(["simulate", "--config", str(small_config), "--out", str(rf)]) == 0
        assert (tmp_path / "frame.bin").exists()
        assert (tmp_path / "frame.manifest.json").exists()

        img = tmp_path / "img"
        rc = main([
            "beamform", "--rf", str(rf), "--method", "mv", "--out", str(img),
            "--K", "1", "--grid=-2e-3,2e-3,0.018,0.022,9,11",
            "--profile-depth", "0.02",
        ])
        assert rc == 0
        assert (tmp_path / "img.bin").exists()
        assert (tmp_path / "img.pgm").exists()
        assert (tmp_path / "img_profile_20.0mm.csv").exists()

    def test_simulate_manifest_per_pair(self, tmp_path, small_config):
        # two pairs simulated into one directory from different configs keep
        # a manifest each, named after the pair, and a rerun from either
        # writes its own pair and manifest again byte for byte
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**SMALL_CONFIG, "noise": {"snr_db": 20.0, "seed": 3}}))
        runs = {"rf": small_config, "rf2.bin": other}
        for out, config in runs.items():
            assert main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / out)]) == 0
        assert not (tmp_path / "run-manifest.json").exists()
        names = ("rf.bin", "rf.json", "rf.manifest.json",
                 "rf2.bin", "rf2.json", "rf2.manifest.json")
        first = {name: (tmp_path / name).read_bytes() for name in names}
        assert first["rf.manifest.json"] != first["rf2.manifest.json"]
        for out in runs:
            manifest = f"{pio.stem(tmp_path / out)}.manifest.json"
            assert main(["simulate", "--config", manifest,
                         "--out", str(tmp_path / out)]) == 0
            assert {name: (tmp_path / name).read_bytes() for name in names} == first

    def test_msmv_beta_zero_matches_mv(self, tmp_path, small_config):
        rf = tmp_path / "frame"
        main(["simulate", "--config", str(small_config), "--out", str(rf)])
        grid = "--grid=-2e-3,2e-3,0.018,0.022,9,11"
        main(["beamform", "--rf", str(rf), "--method", "mv",
              "--out", str(tmp_path / "mv"), "--K", "1", grid])
        main(["beamform", "--rf", str(rf), "--method", "msmv", "--beta", "0",
              "--out", str(tmp_path / "ms"), "--K", "1", grid])
        mv = pio.read_image(tmp_path / "mv")
        ms = pio.read_image(tmp_path / "ms")
        np.testing.assert_allclose(ms.beamformed, mv.beamformed, atol=1e-6)

    def test_metrics_command(self, tmp_path, small_config):
        rf = tmp_path / "frame"
        main(["simulate", "--config", str(small_config), "--out", str(rf)])
        main(["beamform", "--rf", str(rf), "--method", "mv",
              "--out", str(tmp_path / "img"), "--K", "1",
              "--grid=-4e-3,4e-3,0.018,0.022,81,41"])
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [{"x": 0.0, "z": 0.02}]}))
        out = tmp_path / "metrics.json"
        rc = main(["metrics", "--image", str(tmp_path / "img"),
                   "--targets", str(targets), "--out", str(out)])
        assert rc == 0
        reports = pio.read_metrics_json(out)
        assert reports[0].method == "mv"
        assert len(reports[0].per_target) == 1
        # any other suffix writes CSV
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "--image", str(tmp_path / "img"),
                     "--targets", str(targets), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == ",".join(pio.METRICS_CSV_COLUMNS) and row.startswith("mv,")

    def test_dotted_bases(self, tmp_path, small_config):
        # only a trailing .bin or .json leaves a base, so the dot of a value
        # in a name is kept, and two such names never share a file
        rf = tmp_path / "rf_beta1.5"
        assert main(["simulate", "--config", str(small_config), "--out", str(rf)]) == 0
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"targets": [{"x": 0.0, "z": 0.02}]}))
        for base, method in (("scan_0.5mm", "mv"), ("scan_0.7mm", "msmv")):
            assert main([
                "beamform", "--rf", str(rf), "--method", method,
                "--out", str(tmp_path / base), "--K", "1",
                "--grid=-4e-3,4e-3,0.018,0.022,81,41", "--profile-depth", "0.02",
            ]) == 0
            out = tmp_path / f"metrics_{base}.json"
            assert main(["metrics", "--image", str(tmp_path / base),
                         "--targets", str(targets), "--out", str(out)]) == 0
            assert pio.read_metrics_json(out)[0].method == method
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {
            "config.json", "targets.json",
            "rf_beta1.5.bin", "rf_beta1.5.json", "rf_beta1.5.manifest.json",
            *(f"scan_0.{d}mm{suffix}" for d in (5, 7)
              for suffix in (".bin", ".json", ".pgm", "_profile_20.0mm.csv")),
            "metrics_scan_0.5mm.json", "metrics_scan_0.7mm.json",
        }
        for base in ("rf_beta1.5.bin", "rf_beta1.5.json"):
            frame = pio.read_rf(tmp_path / base)
            assert frame.samples.tobytes() == pio.read_rf(rf).samples.tobytes()

    def test_compare_command(self, tmp_path, small_config):
        outdir = tmp_path / "cmp"
        rc = main(["compare", "--config", str(small_config), "--out", str(outdir)])
        assert rc == 0
        for name in ("run-manifest.json", "rf.bin", "metrics.csv", "metrics.json"):
            assert (outdir / name).exists(), name
        for m in ("das", "mv", "msmv"):
            assert (outdir / f"image_{m}.bin").exists()
            assert (outdir / f"profile_{m}_20.0mm.csv").exists()
        # two workers write every file but the manifest, which records them,
        # byte for byte; the manifest is a valid config for a rerun, which
        # writes every file again, the manifest included
        two = tmp_path / "two.json"
        two.write_text(json.dumps({**SMALL_CONFIG, "workers": 2}))
        for config, out in ((two, "two"), (outdir / "run-manifest.json", "rerun")):
            assert main(["compare", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        files = {d: {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                 for d in ("cmp", "two", "rerun")}
        assert files["rerun"] == files["cmp"]
        assert files["two"].pop("run-manifest.json") != files["cmp"].pop("run-manifest.json")
        assert files["two"] == files["cmp"]

    def test_error_reporting(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"L": 500}))
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "rf")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("bandwidth", [1e-300, 1e-9])
    def test_pulse_longer_than_record_refused(self, tmp_path, capsys, bandwidth):
        # 1e-300 makes the pulse cutoff infinite, 1e-9 a pulse of ~2.6e10
        # samples: both are refused before anything is allocated or written
        config = tmp_path / "config.json"
        geometry = {**SMALL_CONFIG["geometry"], "fractional_bandwidth": bandwidth}
        config.write_text(json.dumps({**SMALL_CONFIG, "geometry": geometry}))
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "rf")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("geometry.fractional_bandwidth: ")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("snr_db", [4000.0, -1000.0, -4000.0])
    def test_extreme_snr_refused(self, tmp_path, capsys, command, snr_db):
        # +4000 dB overflows the power ratio, -4000 dB underflows it to 0 and
        # -1000 dB gives samples beyond float32, the RF file's encoding: each
        # is refused before anything is written
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "noise": {"snr_db": snr_db, "seed": 5}}))
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("noise.snr_db: ")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("amplitude", [1e300, 1.7e308])
    def test_huge_amplitude_refused(self, tmp_path, capsys, command, amplitude):
        # with no noise, 1e300 gives finite float64 samples beyond float32,
        # the RF file's encoding, and 1.7e308 infinite ones (and inf * 0 =
        # NaN): each is refused before anything is written
        config = tmp_path / "config.json"
        raw = {**SMALL_CONFIG, "phantom": {"absorbers": [
            {"x": 0.0, "z": 0.02, "amplitude": amplitude}]}}
        del raw["noise"]
        config.write_text(json.dumps(raw))
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("phantom.absorbers: ")
        assert list(tmp_path.iterdir()) == [config]

    def test_old_manifest_reruns_identically(self, tmp_path, small_config):
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(OLD_MANIFEST))
        for config, out in ((small_config, "new"), (old, "old")):
            assert main(["compare", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        for name in ("run-manifest.json", "image_das.bin", "image_mv.bin", "image_msmv.bin"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    @pytest.mark.parametrize("make_input", [
        _rf_without_element_x, _rf_non_uniform_element_x, _rf_element_x_wrong_length,
        _rf_sample_encoding, _rf_header_not_json, _image_partial_grid,
        _image_without_dynamic_range, _image_plane_encoding, _targets_not_json,
        _config_not_json, _rf_element_x_overflows, _rf_nan_sample, _rf_inf_sample,
        _image_nan_pixel, _image_inf_pixel, _image_neg_inf_pixel, _config_not_object,
    ])
    def test_malformed_input_file(self, tmp_path, capsys, make_input):
        # one line of JSON naming the file and exit code 1, not a traceback
        argv, bad = make_input(tmp_path)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert str(bad) in err["message"]
        assert not list(tmp_path.glob("out*"))

    def test_beamform_rejects_retired_flags(self, tmp_path, capsys):
        # MSMV has no early stop and penalizes every snapshot column
        _valid_rf(tmp_path)
        for flag in (["--early-stop"], ["--penalty-window", "center"]):
            with pytest.raises(SystemExit) as exc:
                main(["beamform", "--rf", str(tmp_path / "rf"), "--method", "msmv",
                      "--out", str(tmp_path / "img"), *flag])
            assert exc.value.code != 0
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.glob("img*"))
        with pytest.raises(SystemExit) as exc:
            main(["beamform", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--early-stop" not in usage and "--penalty-window" not in usage

    def test_beamform_rejects_sc(self, tmp_path, small_config, capsys):
        # sc cannot differ from mv, so it forms no image (it used to run as
        # msmv and write that image under the sc label)
        rf = tmp_path / "frame"
        main(["simulate", "--config", str(small_config), "--out", str(rf)])
        with pytest.raises(SystemExit) as exc:
            main(["beamform", "--rf", str(rf), "--method", "sc",
                  "--out", str(tmp_path / "img"), "--K", "1"])
        assert exc.value.code != 0
        assert "invalid choice" in capsys.readouterr().err
        assert not list(tmp_path.glob("img*"))

    @pytest.mark.parametrize("flags", [
        ["--beta", "-1"], ["--iters", "-2"], ["--dl", "-1"], ["--dr", "0"],
        ["--beta", "nan"], ["--dl", "inf"], ["--dr", "nan"],
        ["--grid=a,b,c,d,1,1"], ["--grid=0,1,2,3,x,1"], ["--grid=-1e308,1e308,0,1,3,2"],
        ["--grid=1,2,3"], ["--grid=-1e-3,1e-3,0.018,0.022,3.5,2"],
    ], ids=lambda flags: "".join(flags))
    def test_beamform_bad_flag_value(self, tmp_path, capsys, flags):
        # one line of JSON and exit code 1, not a traceback (or, for nan and
        # inf, an all-NaN image), and no image written
        _valid_rf(tmp_path)
        rc = main(["beamform", "--rf", str(tmp_path / "rf"), "--method", "msmv",
                   "--grid=-1e-3,1e-3,0.018,0.022,3,2", *flags,
                   "--out", str(tmp_path / "img")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ConfigError"
        assert not list(tmp_path.glob("img*"))

    @pytest.mark.parametrize("seed", [5, 7, 11])
    def test_beamform_matches_compare(self, tmp_path, seed):
        # beamform from the float32 RF that compare writes gives compare's own
        # planes to 1e-6 of the plane maximum, for every method
        cfg = {
            "geometry": {"n_elements": 24, "sampling_rate": 40e6, "pitch": 0.38e-3},
            "phantom": {"absorbers": [{"x": 0.0, "z": 0.02, "amplitude": 10.0},
                                      {"x": 1.5e-3, "z": 0.021, "amplitude": 4.0}]},
            "grid": {"x_min": -3e-3, "x_max": 3e-3, "z_min": 18e-3, "z_max": 22e-3,
                     "nx": 31, "nz": 25},
            "noise": {"snr_db": 50.0, "seed": seed},
        }
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == 0
        run = json.loads((out / "run-manifest.json").read_text())
        g = run["grid"]
        grid = ",".join(repr(g[k]) for k in ("x_min", "x_max", "z_min", "z_max"))
        flags = ["--L", str(run["L"]), "--K", str(run["K"]), "--dl", repr(run["dl"]),
                 "--beta", repr(run["msmv"]["beta"]), "--iters", str(run["msmv"]["n_iter"]),
                 f"--grid={grid},{g['nx']},{g['nz']}"]
        for method in ("das", "mv", "msmv"):
            img = tmp_path / f"bf_{method}"
            assert main(["beamform", "--rf", str(out / "rf"), "--method", method,
                         *flags, "--out", str(img)]) == 0
            ref = pio.read_image(out / f"image_{method}")
            got = pio.read_image(img)
            assert got.fallback_pixel_count == ref.fallback_pixel_count
            scale = np.max(np.abs(ref.beamformed))
            assert np.max(np.abs(got.beamformed - ref.beamformed)) <= 1e-6 * scale

    def test_beamform_defaults_are_config_defaults(self, tmp_path, small_config):
        # with no --grid, beamform images resolve_config's default grid for
        # the file's array; every other unset flag takes its config default
        rf = tmp_path / "frame"
        assert main(["simulate", "--config", str(small_config), "--out", str(rf)]) == 0
        assert main(["beamform", "--rf", str(rf), "--method", "das",
                     "--out", str(tmp_path / "default")]) == 0
        cfg = pio.resolve_config({"geometry": {"n_elements": 16, "sampling_rate": 40e6}})
        image = pio.read_image(tmp_path / "default")
        assert image.grid == cfg.grid
        assert (image.grid.nx, image.grid.nz) == (131, 715)
        assert image.dynamic_range_db == cfg.dynamic_range_db
        grid = "--grid=-2e-3,2e-3,0.018,0.022,9,11"
        explicit = ["--L", str(cfg.L), "--K", str(cfg.K), "--dl", repr(cfg.dl),
                    "--beta", repr(cfg.msmv.beta), "--iters", str(cfg.msmv.n_iter),
                    "--dr", repr(cfg.dynamic_range_db), "--workers", str(cfg.workers)]
        for name, flags in (("unset", []), ("explicit", explicit)):
            assert main(["beamform", "--rf", str(rf), "--method", "msmv", grid,
                         *flags, "--out", str(tmp_path / name)]) == 0
        for ext in (".bin", ".json", ".pgm"):
            unset = (tmp_path / f"unset{ext}").read_bytes()
            assert unset == (tmp_path / f"explicit{ext}").read_bytes()

    def test_beamform_grid_counts_follow_integer_rule(self, tmp_path, small_config,
                                                      capsys):
        # --grid's nx and nz follow a config's integer rule: 3.0 is read as 3,
        # so the same files are written, and 3.5 is refused naming grid.nx
        rf = tmp_path / "frame"
        assert main(["simulate", "--config", str(small_config), "--out", str(rf)]) == 0
        rcs = [main(["beamform", "--rf", str(rf), "--method", "mv", "--profile-depth", "0.02",
                     f"--grid=-1e-3,1e-3,0.018,0.022,{counts}", "--out", str(tmp_path / name)])
               for name, counts in (("int", "3,2"), ("float", "3.0,2"), ("half", "3.5,2"))]
        assert rcs == [0, 0, 1]
        for suffix in (".bin", ".json", ".pgm", "_profile_20.0mm.csv"):
            assert ((tmp_path / f"int{suffix}").read_bytes()
                    == (tmp_path / f"float{suffix}").read_bytes())
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("grid: field grid.nx must be an integer")
        assert not list(tmp_path.glob("half*"))

    @pytest.mark.parametrize("flags, key", [
        (["--L", "99"], "L"), (["--K", "-1"], "K"), (["--dl", "-1"], "dl"),
        (["--workers", "0"], "workers"), (["--dr", "0"], "dynamic_range_db"),
        (["--beta", "-1"], "msmv.beta"), (["--iters", "-1"], "msmv.n_iter"),
        (["--grid=0,1,2,3,0,1"], "grid"),
    ], ids=lambda v: v if isinstance(v, str) else "".join(v))
    def test_beamform_error_names_config_key(self, tmp_path, capsys, monkeypatch,
                                             flags, key):
        # every flag is checked, under its config key, before reconstructing
        _valid_rf(tmp_path)

        def no_reconstruct(*args, **kwargs):
            raise AssertionError("reconstruct called with a bad setting")

        monkeypatch.setattr("pabeam.cli.reconstruct", no_reconstruct)
        rc = main(["beamform", "--rf", str(tmp_path / "rf"), "--method", "msmv",
                   *flags, "--out", str(tmp_path / "img")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{key}: ")

    def test_beamform_profile_depth_outside_grid(self, tmp_path, capsys, monkeypatch):
        # every profile depth is checked against the grid before any work,
        # so a bad one leaves no image and no profile behind
        _valid_rf(tmp_path)

        def no_reconstruct(*args, **kwargs):
            raise AssertionError("reconstruct called with a depth outside the grid")

        monkeypatch.setattr("pabeam.cli.reconstruct", no_reconstruct)
        rc = main(["beamform", "--rf", str(tmp_path / "rf"), "--method", "das",
                   "--grid=-2e-3,2e-3,0.018,0.022,9,11", "--profile-depth", "0.02",
                   "--profile-depth", "0.03", "--out", str(tmp_path / "img")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DepthOutOfGrid"
        assert "0.03" in err["message"]
        assert not list(tmp_path.glob("img*"))

    def test_failed_allocation_reported(self, tmp_path, capsys, monkeypatch):
        # a failed allocation (as a huge --K asks for) is one line of JSON and
        # exit code 1, not a traceback, and no image is written
        _valid_rf(tmp_path)

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr("pabeam.cli.reconstruct", out_of_memory)
        rc = main(["beamform", "--rf", str(tmp_path / "rf"), "--method", "mv",
                   "--out", str(tmp_path / "img")])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError",
                                        "message": "Unable to allocate 14.6 TiB"}
        assert not list(tmp_path.glob("img*"))

    def test_compare_without_phantom_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"geometry": {"n_elements": 16,
                                                   "sampling_rate": 40e6}}))
        outdir = tmp_path / "cmp"
        assert main(["compare", "--config", str(config), "--out", str(outdir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "phantom.absorbers" in err["message"]
        assert not outdir.exists()

    @pytest.mark.parametrize("path, value", BAD_VALUES, ids=_id)
    def test_compare_bad_value_writes_nothing(self, tmp_path, capsys, small_config,
                                              path, value):
        # one line of JSON naming the key and exit code 1, not a traceback
        # or an image of junk
        raw = json.loads(small_config.read_text())
        for key, val in _nested(path, value).items():
            raw[key] = {**raw.get(key, {}), **val} if isinstance(val, dict) else val
        small_config.write_text(json.dumps(raw))
        outdir = tmp_path / "cmp"
        assert main(["compare", "--config", str(small_config), "--out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        err = json.loads(err)
        assert err["error"] == "ConfigError"
        assert all(part in err["message"] for part in path.split("."))
        assert not outdir.exists()

    def test_compare_one_element(self, tmp_path, capsys):
        # a one-element array runs with the default L (1); a single element
        # has little lateral resolution, so 3x each method's FWHM covers the
        # row: every report has no sidelobe reading, and every image is
        # still written
        raw = {
            "geometry": {"n_elements": 1, "sampling_rate": 40e6},
            "phantom": {"absorbers": [{"x": 0.0, "z": 0.02}]},
            "grid": {"x_min": -2e-3, "x_max": 2e-3, "z_min": 0.018,
                     "z_max": 0.022, "nx": 9, "nz": 11},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        outdir = tmp_path / "cmp"
        assert main(["compare", "--config", str(config), "--out", str(outdir)]) == 0
        for m in ("das", "mv", "msmv"):
            for ext in (".bin", ".json", ".pgm"):
                assert (outdir / f"image_{m}{ext}").exists()
        assert json.loads((outdir / "run-manifest.json").read_text())["L"] == 1
        assert capsys.readouterr().err == ""
        reports = pio.read_metrics_json(outdir / "metrics.json")
        assert [r.method for r in reports] == ["das", "mv", "msmv"]
        assert all(r.per_target[0].peak_sidelobe_db is None for r in reports)

    def test_compare_reports_unmeasured_sidelobe(self, tmp_path, capsys):
        # test_12's scene: 3x DAS's FWHM covers the +-3 mm row, so DAS has no
        # sidelobe reading, and its report keeps its SNR and FWHM
        raw = {
            "geometry": {"n_elements": 24, "sampling_rate": 40e6, "pitch": 0.38e-3},
            "phantom": {"absorbers": [{"x": 0.0, "z": 0.02, "amplitude": 10.0}]},
            "grid": {"x_min": -3e-3, "x_max": 3e-3, "z_min": 18e-3, "z_max": 22e-3,
                     "nx": 31, "nz": 25},
            "noise": {"snr_db": 50.0, "seed": 5},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        outdir = tmp_path / "cmp"
        assert main(["compare", "--config", str(config), "--out", str(outdir)]) == 0
        assert capsys.readouterr().err == ""
        reports = pio.read_metrics_json(outdir / "metrics.json")
        assert [r.method for r in reports] == ["das", "mv", "msmv"]
        das = reports[0].per_target[0]
        assert das.peak_sidelobe_db is None and das.fwhm > 0.0
        assert all(r.per_target[0].peak_sidelobe_db is not None for r in reports[1:])
        lines = (outdir / "metrics.csv").read_text().splitlines()
        assert lines[1].startswith("das,") and lines[1].endswith(",")

    def test_compare_absorber_outside_grid(self, tmp_path, capsys):
        # an absorber deeper than the grid has no profile and fails its
        # metrics; every image and the in-grid profiles are still written
        raw = {
            "geometry": {"n_elements": 16, "sampling_rate": 40e6},
            "phantom": {"absorbers": [{"x": 0.0, "z": 0.02}, {"x": 0.0, "z": 0.03}]},
            "grid": {"x_min": -8e-3, "x_max": 8e-3, "z_min": 0.018,
                     "z_max": 0.022, "nx": 81, "nz": 21},
            "K": 1,
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        outdir = tmp_path / "cmp"
        assert main(["compare", "--config", str(config), "--out", str(outdir)]) == 0
        for m in ("das", "mv", "msmv"):
            for ext in (".bin", ".json", ".pgm"):
                assert (outdir / f"image_{m}{ext}").exists()
            assert (outdir / f"profile_{m}_20.0mm.csv").exists()
            assert not (outdir / f"profile_{m}_30.0mm.csv").exists()
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["method"] for e in errors] == ["das", "mv", "msmv"]
        assert {e["error"] for e in errors} == {"DepthOutOfGrid"}
        assert pio.read_metrics_json(outdir / "metrics.json") == []

    def test_missing_rf(self, tmp_path):
        rc = main(["beamform", "--rf", str(tmp_path / "nope"), "--method", "mv",
                   "--out", str(tmp_path / "img")])
        assert rc == 1


# MSMV of a small frame on its default grid, run by the command and by a
# program that calls reconstruct itself: the statement between the two
# minor-fault counts, after the frame is read and the grid resolved
FAULT_RUNS = {
    "cli": "assert main(['beamform', '--rf', rf, '--method', 'msmv', '--out', img]) == 0",
    "reconstruct": "reconstruct(frame, grid, Method.MSMV)",
}


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the fault bound holds for glibc's allocator on Linux")
@pytest.mark.parametrize("entry", FAULT_RUNS)
def test_tile_pages_fault_in_once(tmp_path, entry):
    # The frame's frees are too small to raise glibc's heap thresholds, so a
    # tile that allocated its snapshot-sized arrays afresh would fault their
    # pages in every time (about 21,000 minor faults on this 16-element
    # frame, against about 1,300 when each run reuses one set). A fresh
    # interpreter, so that what other tests freed does not count.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "geometry": {"n_elements": 16, "sampling_rate": 40e6},
        "phantom": {"absorbers": [{"x": 0.0, "z": 0.02}]},
    }))
    rf = tmp_path / "rf"
    assert main(["simulate", "--config", str(config), "--out", str(rf)]) == 0
    code = (
        "import resource, sys\n"
        "from dataclasses import asdict\n"
        "from pabeam import Method, reconstruct, io\n"
        "from pabeam.cli import main\n"
        "rf, img = sys.argv[1:]\n"
        "frame = io.read_rf(rf)\n"
        "grid = io.resolve_config({'geometry': asdict(frame.geometry)}).grid\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"{FAULT_RUNS[entry]}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(rf), str(tmp_path / "img")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(run.stdout.split()[-1]) < 5000


# Each kind of file main reads: the file of a valid small compare run that is
# edited, and the command that reads it (its --out is added)
FILE_KINDS = {
    "config": ("run-manifest.json", ["compare", "--config", "{dir}/run-manifest.json"]),
    "rf": ("rf.json", ["beamform", "--rf", "{dir}/rf", "--method", "mv", "--K", "1",
                       "--grid=-2e-3,2e-3,0.018,0.022,9,11"]),
    "image": ("image_mv.json", ["metrics", "--image", "{dir}/image_mv",
                                "--targets", "{dir}/targets.json"]),
    "targets": ("targets.json", ["metrics", "--image", "{dir}/image_mv",
                                 "--targets", "{dir}/targets.json"]),
}
ERROR_NAMES = {PabeamError.__name__} | {c.__name__ for c in PabeamError.__subclasses__()}


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """A compare run of SMALL_CONFIG (M=16, 9x11 px) and a targets file: one
    valid file of each kind main reads."""
    root = tmp_path_factory.mktemp("valid")
    (root / "config.json").write_text(json.dumps(SMALL_CONFIG))
    assert main(["compare", "--config", str(root / "config.json"),
                 "--out", str(root / "run")]) == 0
    (root / "run" / "targets.json").write_text(
        json.dumps({"targets": [{"x": 0.0, "z": 0.02}]})
    )
    return root / "run"


def _fields(node, prefix=""):
    """(path, value) of every field of a parsed JSON file, lists included;
    of a list's items only the first, as ``key[0]``."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        yield path, value
        if isinstance(value, dict):
            yield from _fields(value, f"{path}.")
        elif isinstance(value, list):
            yield f"{path}[0]", value[0]
            if isinstance(value[0], dict):
                yield from _fields(value[0], f"{path}[0].")


def _replace(raw, path, value):
    """Sets the field at ``path`` (as ``_fields`` names it) to ``value``."""
    *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"[^.[\]]+", path)]
    for part in parents:
        raw = raw[part]
    raw[last] = value


def _run_edited(run, workdir, kind, path, value):
    """main on a copy of ``run`` whose ``kind`` file has ``value`` at
    ``path``: its exit code, its stderr lines, and whether it wrote output."""
    for name in ("run-manifest.json", "rf.json", "rf.bin", "image_mv.json",
                 "image_mv.bin", "targets.json"):
        shutil.copy(run / name, workdir / name)
    name, argv = FILE_KINDS[kind]
    _rewrite_json(workdir / name, lambda raw: _replace(raw, path, value))
    out = workdir / ("out.json" if argv[0] == "metrics" else "out")
    err = StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        rc = main([a.format(dir=workdir) for a in argv] + ["--out", str(out)])
    return rc, err.getvalue().splitlines(), bool(list(workdir.glob("out*")))


@pytest.mark.parametrize("kind, path, value", [
    *[("rf", key, HUGE) for key in (
        "version", "n_elements", "n_samples", "sampling_rate", "sound_speed",
        "center_frequency", "fractional_bandwidth", "channel_snr_db", "element_x[0]",
    )],
    ("rf", "n_elements", float("inf")), ("rf", "n_samples", float("inf")),
    *[("rf", "channel_snr_db", v) for v in (
        "high", [1], {}, True, float("nan"), float("inf"), -float("inf"),
    )],
    ("rf", "sound_speed", "128"), ("rf", "sound_speed", True),
    ("rf", "center_frequency", "128"), ("rf", "center_frequency", True),
    ("rf", "version", True), ("rf", "fractional_bandwidth", -1.0),
    ("image", "fallback_pixel_count", float("inf")), ("image", "dynamic_range_db", HUGE),
    ("image", "fallback_pixel_count", -7), ("image", "fallback_pixel_count", 10**9),
    ("image", "grid", {"x_min": "-0.002", "x_max": "0.002", "z_min": "0.018",
                       "z_max": "0.022", "nx": 9, "nz": 11}),
    ("targets", "targets[0].x", HUGE), ("targets", "targets[0].z", HUGE),
    # read from a file, a bandwidth outside (0, 1] is a ConfigError too
    ("config", "geometry.fractional_bandwidth", 2.0),
], ids=_id)
def test_malformed_field_refused(tmp_path, valid_run, kind, path, value):
    # one JSON ConfigError line naming the file and exit code 1, with nothing
    # written, not a traceback, another error or a run on a misread value
    rc, err, wrote = _run_edited(valid_run, tmp_path, kind, path, value)
    assert rc == 1 and len(err) == 1
    err = json.loads(err[0])
    assert err["error"] == "ConfigError"
    assert str(tmp_path / FILE_KINDS[kind][0]) in err["message"]
    assert not wrote


# JSON values that are not a valid number wherever a number is read: no large
# positive finite number, which is a valid request for real (and possibly
# very large) work. A negative number stays small, because a far-off absorber
# or target is valid and its distance sets the length of the RF frame.
SMALL_JSON = st.one_of(st.none(), st.booleans(), st.integers(-4, 4), st.text(max_size=3))
MALFORMED = st.one_of(
    st.text(max_size=8), st.booleans(), st.none(),
    st.lists(SMALL_JSON, max_size=3),
    st.dictionaries(st.sampled_from(["x", "z", "a"]), SMALL_JSON, max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.integers(10**309, 10**400).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-4, -1), st.floats(-4.0, -1.0),
)
FRACTIONS = st.floats(-100.0, 100.0).filter(lambda v: not v.is_integer())


@pytest.mark.parametrize("kind", FILE_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_malformed_field_fails_cleanly(valid_run, kind, data):
    # one field of a valid file holds a drawn value: the command succeeds, or
    # exits 1 with one JSON line naming a pabeam error and writes nothing
    raw = json.loads((valid_run / FILE_KINDS[kind][0]).read_text())
    path, valid = data.draw(st.sampled_from(list(_fields(raw))), label="field")
    integer = isinstance(valid, int) and not isinstance(valid, bool)
    value = data.draw(st.one_of(MALFORMED, FRACTIONS) if integer else MALFORMED,
                      label="value")
    with tempfile.TemporaryDirectory() as tmp:
        rc, err, wrote = _run_edited(valid_run, Path(tmp), kind, path, value)
    assert rc in (0, 1)
    if rc == 1:
        assert len(err) == 1
        assert json.loads(err[0])["error"] in ERROR_NAMES
        assert not wrote
