from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabeam.errors import ConfigError, InvalidBandwidth, TargetOutOfRange, ZeroSignal
from pabeam.phantom import (
    PULSE_TRUNCATION,
    Absorber,
    ArrayGeometry,
    Phantom,
    add_channel_noise,
    simulate_rf,
    synth_pulse,
)


def small_geometry(m=8, pitch=3e-4, fs=20e6):
    return ArrayGeometry(
        n_elements=m,
        pitch=pitch,
        sound_speed=1540.0,
        sampling_rate=fs,
        center_frequency=5e6,
        fractional_bandwidth=0.77,
    )


def minus6db_band(pulse, fs):
    """Oracle: -6 dB band edges of the pulse's FFT magnitude."""
    n = 16384
    spec = np.abs(np.fft.rfft(pulse, n))
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    peak = spec.max()
    above = np.nonzero(spec >= peak / 2.0)[0]
    return freqs[above[0]], freqs[above[-1]]


class TestArrayGeometry:
    SETTINGS = dict(n_elements=8, pitch=3e-4, sound_speed=1540.0, sampling_rate=20e6,
                    center_frequency=5e6, fractional_bandwidth=0.77)

    def test_value_semantics(self):
        # the element positions are derived from the pitch, not a setting
        a, b = ArrayGeometry(**self.SETTINGS), ArrayGeometry(**self.SETTINGS)
        assert a == b and hash(a) == hash(b)
        assert asdict(a) == self.SETTINGS
        assert np.array_equal(a.element_x, (np.arange(8) - 3.5) * 3e-4)
        with pytest.raises(TypeError):
            ArrayGeometry(**self.SETTINGS, element_x=a.element_x)

    @pytest.mark.parametrize("name, value", [
        ("pitch", 0.0), ("pitch", -3e-4), ("pitch", float("nan")), ("pitch", float("inf")),
        ("sound_speed", 0.0), ("sound_speed", -1540.0), ("center_frequency", -5e6),
        ("center_frequency", 0.0), ("sampling_rate", float("nan")), ("n_elements", 0),
    ])
    def test_rejects_non_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            ArrayGeometry(**{**self.SETTINGS, name: value})


class TestSynthPulse:
    def test_band_edges(self):
        pulse = synth_pulse(5e6, 0.77, 20e6)
        lo, hi = minus6db_band(pulse, 20e6)
        assert lo == pytest.approx(5e6 * (1 - 0.77 / 2), rel=0.05)
        assert hi == pytest.approx(5e6 * (1 + 0.77 / 2), rel=0.05)
        bw = (hi - lo) / 5e6
        assert bw == pytest.approx(0.77, rel=0.05)

    def test_shape(self):
        pulse = synth_pulse(5e6, 0.77, 20e6)
        assert np.sum(pulse**2) > 0
        assert pulse.max() == pytest.approx(1.0, abs=1e-12)
        assert abs(pulse[0]) < 1e-3  # truncated at 1e-4 of peak envelope

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidBandwidth):
            synth_pulse(5e6, 0.0, 20e6)
        with pytest.raises(InvalidBandwidth):
            synth_pulse(5e6, 1.5, 20e6)

    @pytest.mark.parametrize("f0, fs, name", [
        (-5e6, 20e6, "f0"), (0.0, 20e6, "f0"), (float("nan"), 20e6, "f0"),
        (float("inf"), 20e6, "f0"), (5e6, 0.0, "fs"), (5e6, -20e6, "fs"),
        (5e6, float("nan"), "fs"), (5e6, float("inf"), "fs"),
    ])
    def test_rejects_non_positive(self, f0, fs, name):
        # f0 enters squared and inside a cosine, so a negative one would
        # otherwise give a valid-looking pulse
        with pytest.raises(ConfigError, match=f"^{name} "):
            synth_pulse(f0, 0.77, fs)

    @settings(max_examples=40, deadline=None)
    @given(f0=st.floats(1e3, 1e9), bandwidth=st.floats(1e-3, 1.0),
           oversampling=st.floats(1.0, 50.0))
    def test_equals_scipy_gausspulse(self, f0, bandwidth, oversampling):
        # the same cutoff and samples as gausspulse, bit for bit; the pulse
        # has about 3.2 fs / (f0 B) samples, so B stays above 1e-3
        from scipy.signal import gausspulse

        fs = 2.0 * f0 * oversampling
        tpr_db = 20.0 * np.log10(PULSE_TRUNCATION)
        t_cut = gausspulse("cutoff", fc=f0, bw=bandwidth, bwr=-6, tpr=tpr_db)
        half = int(np.ceil(t_cut * fs))
        t = np.arange(-half, half + 1) / fs
        assert np.array_equal(synth_pulse(f0, bandwidth, fs),
                              gausspulse(t, fc=f0, bw=bandwidth, bwr=-6))

    @pytest.mark.parametrize("bandwidth", [1e-12, 1e-150])
    def test_unallocatable_pulse_is_config_error(self, bandwidth):
        # ~2.6e13 samples (187 TiB) and more than an array can index: both
        # are refused before any memory is touched
        with pytest.raises(ConfigError, match=f"^fractional bandwidth {bandwidth} "):
            synth_pulse(5e6, bandwidth, 40e6)


def per_element_rf(geometry, phantom, t_max):
    """``simulate_rf``'s samples from a loop over the elements: each
    absorber's pulse is split between the two samples around its arrival,
    channel by channel, low neighbours first."""
    fs = geometry.sampling_rate
    n_t = int(np.ceil(t_max * fs))
    samples = np.zeros((geometry.n_elements, n_t))
    pulse = synth_pulse(geometry.center_frequency, geometry.fractional_bandwidth, fs)
    center = (len(pulse) - 1) // 2
    idx = np.arange(len(pulse))
    for ab in phantom.absorbers:
        d = np.hypot(geometry.element_x - ab.x, ab.z)
        tau = d / geometry.sound_speed * fs
        for m in range(geometry.n_elements):
            pos = tau[m] + idx - center
            k = np.floor(pos).astype(np.int64)
            frac = pos - k
            lo_ok = (k >= 0) & (k < n_t)
            hi_ok = (k + 1 >= 0) & (k + 1 < n_t)
            contrib = (ab.amplitude / d[m]) * pulse
            np.add.at(samples[m], k[lo_ok], (1.0 - frac[lo_ok]) * contrib[lo_ok])
            np.add.at(samples[m], k[hi_ok] + 1, frac[hi_ok] * contrib[hi_ok])
    return samples


class TestSimulateRf:
    @pytest.mark.parametrize("points", [
        [(0.0, 0.02, 1.0)],
        # overlapping echoes, off axis
        [(1.2e-3, 0.018, 2.0), (-0.4e-3, 0.0181, 0.5), (0.0, 0.025, 40.0)],
        # pulses cut by the start and by the end of the 400-sample record
        [(0.0, 1e-4, 1.0), (0.3e-3, 0.0306, 3.0)],
    ], ids=["one", "overlapping", "cut by the record"])
    def test_equals_per_element_loop(self, points):
        geo = small_geometry()
        phantom = Phantom.from_points([Absorber(x, z, a) for x, z, a in points])
        frame = simulate_rf(geo, phantom, 20e-6)
        assert frame.samples.tobytes() == per_element_rf(geo, phantom, 20e-6).tobytes()

    def test_arrival_sample(self):
        # d/c*fs = 0.03/1540 * 2e7 = 389.61
        geo = ArrayGeometry(
            n_elements=1, pitch=3e-4, sound_speed=1540.0, sampling_rate=20e6,
            center_frequency=5e6, fractional_bandwidth=0.77,
        )
        frame = simulate_rf(geo, Phantom.from_points([Absorber(0.0, 0.03)]), 25e-6)
        peak = np.argmax(np.abs(frame.samples[0]))
        assert abs(peak - 389.61) < 1.5

    def test_linearity(self):
        geo = small_geometry()
        p1 = Phantom.from_points([Absorber(1e-3, 0.02, amplitude=1.0)])
        p2 = Phantom.from_points([Absorber(1e-3, 0.02, amplitude=2.0)])
        f1 = simulate_rf(geo, p1, 20e-6)
        f2 = simulate_rf(geo, p2, 20e-6)
        np.testing.assert_allclose(f2.samples, 2.0 * f1.samples, rtol=1e-12)

    def test_empty_phantom(self):
        frame = simulate_rf(small_geometry(), Phantom(absorbers=()), 20e-6)
        assert not np.any(frame.samples)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            simulate_rf(
                small_geometry(), Phantom.from_points([Absorber(0.0, 0.05)]), 1e-6
            )

    def test_mirror_reciprocity(self):
        geo = small_geometry()
        phantom = Phantom.from_points(
            [Absorber(1.2e-3, 0.018), Absorber(-0.4e-3, 0.025, amplitude=0.5)]
        )
        mirrored = Phantom.from_points(
            [Absorber(-1.2e-3, 0.018), Absorber(0.4e-3, 0.025, amplitude=0.5)]
        )
        f = simulate_rf(geo, phantom, 25e-6)
        fm = simulate_rf(geo, mirrored, 25e-6)
        np.testing.assert_allclose(fm.samples, f.samples[::-1], atol=1e-12)

    def test_inverse_distance_decay(self):
        # odd element count puts one element exactly at x=0 (broadside); a
        # high sampling rate keeps fractional-delay interpolation from
        # shaving the sampled peak
        geo = small_geometry(m=9, fs=200e6)
        near = simulate_rf(geo, Phantom.from_points([Absorber(0.0, 0.015)]), 40e-6)
        far = simulate_rf(geo, Phantom.from_points([Absorber(0.0, 0.030)]), 40e-6)
        mid = 4  # broadside element
        ratio = np.max(np.abs(far.samples[mid])) / np.max(np.abs(near.samples[mid]))
        assert ratio == pytest.approx(0.5, rel=0.02)


class TestChannelNoise:
    def frame(self, m=128, t=2000):
        geo = small_geometry(m=m)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((m, t))
        from pabeam.phantom import RfFrame

        return RfFrame(geometry=geo, samples=samples)

    def test_vanishing_noise(self):
        frame = self.frame(m=8, t=200)
        out = add_channel_noise(frame, 300.0, 1)
        np.testing.assert_allclose(out.samples, frame.samples, rtol=1e-10)

    def test_empirical_snr(self):
        frame = self.frame()
        out = add_channel_noise(frame, 10.0, 99)
        noise = out.samples - frame.samples
        measured = 10 * np.log10(np.mean(frame.samples**2) / np.mean(noise**2))
        assert measured == pytest.approx(10.0, abs=0.5)

    def test_deterministic(self):
        frame = self.frame(m=8, t=200)
        a = add_channel_noise(frame, 20.0, 7)
        b = add_channel_noise(frame, 20.0, 7)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_signal(self):
        from pabeam.phantom import RfFrame

        frame = RfFrame(geometry=small_geometry(), samples=np.zeros((8, 100)))
        with pytest.raises(ZeroSignal):
            add_channel_noise(frame, 10.0, 0)
