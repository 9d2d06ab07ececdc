import copy
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabeam import io as pio
from pabeam.covariance import loaded_covariance
from pabeam.delays import _delays, gather_delayed, subarray_snapshots
from pabeam.phantom import (
    Absorber,
    ArrayGeometry,
    Phantom,
    RfFrame,
    add_channel_noise,
    simulate_rf,
)


def geometry(m=4, pitch=3e-4):
    return ArrayGeometry(
        n_elements=m, pitch=pitch, sound_speed=1540.0, sampling_rate=20e6,
        center_frequency=5e6, fractional_bandwidth=0.77,
    )


def frame_from(samples, m=4):
    return RfFrame(geometry=geometry(m=m), samples=np.asarray(samples, float))


def test_delay_hand_value():
    geo = ArrayGeometry(
        n_elements=1, pitch=3e-4, sound_speed=1540.0, sampling_rate=20e6,
        center_frequency=5e6, fractional_bandwidth=0.77,
    )
    tau = _delays(geo, 0.0, 0.03)
    assert tau[0] == pytest.approx(0.03 / 1540.0 * 20e6, rel=1e-12)  # 389.610...


def test_delay_minimum_above_element():
    geo = geometry(m=5)
    tau = _delays(geo, np.array([[geo.element_x[2]], [geo.element_x[4]]]), 0.02)
    np.testing.assert_array_equal(np.argmin(tau, axis=-1), [2, 4])


def test_delay_symmetry():
    geo = geometry(m=4)
    tau = _delays(geo, 0.0, 0.025)  # midway between elements 1 and 2
    assert abs(tau[1] - tau[2]) < 1e-9
    assert abs(tau[0] - tau[3]) < 1e-9


@settings(max_examples=200, deadline=None)
@given(xs_mm=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5),
       z_mm=st.floats(0.1, 100.0))
def test_delays_match_hypot(xs_mm, z_mm):
    # against the earlier formula, kept here as the reference, on a 24 mm
    # aperture so that x reaches points off either end of it. The in-place
    # sqrt(dx^2 + z^2) rounds differently from np.hypot: by up to 4.4e-16
    # relative over 25.6 M random delays
    geo = ArrayGeometry(
        n_elements=64, pitch=3.8e-4, sound_speed=1540.0, sampling_rate=100e6,
        center_frequency=5e6, fractional_bandwidth=0.77,
    )
    xs, z = np.array(xs_mm) * 1e-3, z_mm * 1e-3
    tau = _delays(geo, xs[:, None, None], z)
    ref = np.stack([np.hypot(geo.element_x - x, z) / geo.sound_speed * geo.sampling_rate
                    for x in xs])[:, None, :]
    assert tau.shape == ref.shape
    assert np.max(np.abs(tau - ref) / ref) <= 4.5e-16


def test_extract_impulse_frame():
    # channel m holds ones at samples floor(tau_m) and floor(tau_m) + 1, so
    # the interpolated read at tau_m is exactly 1 whatever its fraction
    geo = geometry()
    tau = _delays(geo, 0.0, 0.03)
    k = np.floor(tau).astype(int)
    samples = np.zeros((4, 900))
    for m in range(4):
        samples[m, k[m]:k[m] + 2] = 1.0
    frame = RfFrame(geometry=geo, samples=samples)
    out = gather_delayed(frame, np.array([0.0]), 0.03, np.zeros(1))
    np.testing.assert_allclose(out, np.ones((1, 1, 4)), atol=1e-12)


def test_extract_beyond_record():
    frame = frame_from(np.ones((4, 50)))
    out = gather_delayed(frame, np.array([-1e-3, 0.0, 2e-3]), 0.03,
                         np.array([-10_000, 10_000]))
    assert out.shape == (3, 2, 4)
    assert not np.any(out)


def test_extract_constant_channels():
    frame = frame_from(np.full((4, 900), 2.5))
    out = gather_delayed(frame, np.array([-1e-3, 0.0, 2e-3]), 0.03, np.arange(-2, 3))
    np.testing.assert_allclose(out, 2.5)


def test_extract_linearity():
    rng = np.random.default_rng(5)
    s1 = rng.standard_normal((4, 900))
    s2 = rng.standard_normal((4, 900))
    xs, z, offsets = np.array([0.5e-3, -1e-3]), 0.022, np.arange(-2, 3)
    a = 2.75

    def gather(samples):
        return gather_delayed(frame_from(samples), xs, z, offsets)

    np.testing.assert_allclose(
        gather(a * s1 + s2), a * gather(s1) + gather(s2), rtol=1e-12, atol=1e-12
    )


def snapshot_rows(frame, x, z, L, K):
    """Snapshot rows (N, L) of the one-point tile (x, z)."""
    delayed = gather_delayed(frame, np.array([x]), z, np.arange(-K, K + 1))
    return subarray_snapshots(delayed, L)[0]


class TestBuildSnapshots:
    def delayed_frame(self, values):
        """Frame of constant channels so the delayed vector equals ``values``."""
        values = np.asarray(values, float)
        samples = np.repeat(values[:, None], 900, axis=1)
        return RfFrame(geometry=geometry(m=len(values)), samples=samples)

    def test_degenerate_full_aperture(self):
        frame = self.delayed_frame([1.0, 2.0, 3.0, 4.0])
        rows = snapshot_rows(frame, 0.0, 0.03, L=4, K=0)
        assert rows.shape == (1, 4)
        np.testing.assert_allclose(rows[0], [1, 2, 3, 4])

    def test_sliding_window(self):
        frame = self.delayed_frame([1.0, 2.0, 3.0, 4.0])
        rows = snapshot_rows(frame, 0.0, 0.03, L=2, K=0)
        np.testing.assert_allclose(rows, [[1, 2], [2, 3], [3, 4]])

    def test_temporal_window_count(self):
        frame = self.delayed_frame([1.0, 2.0, 3.0, 4.0])
        rows = snapshot_rows(frame, 0.0, 0.03, L=2, K=1)
        assert rows.shape == (9, 2)
        # offset-major: the centre block (offset 0) is rows K n_sub..(K+1) n_sub
        n_sub = 3
        np.testing.assert_allclose(rows[n_sub:2 * n_sub], [[1, 2], [2, 3], [3, 4]])

    def test_covariance_consistency(self):
        # (1/N) X X^T must equal the covariance estimator exactly
        rng = np.random.default_rng(11)
        frame = frame_from(rng.standard_normal((4, 900)))
        rows = snapshot_rows(frame, 0.3e-3, 0.021, L=2, K=2)
        x = rows.T
        direct = x @ x.T / x.shape[1]
        r = loaded_covariance(rows[None], 0.0)[0]
        np.testing.assert_allclose(r, direct, atol=1e-12)


def interp_reference(samples, tau):
    """The gather's earlier per-channel fancy-index form, kept as its
    reference: linear interpolation of each channel at its own fractional
    index, with indices outside [0, T-1] reading as 0."""
    n_t = samples.shape[1]
    k = np.floor(tau).astype(np.int64)
    frac = tau - k
    rows = np.arange(samples.shape[0])
    lo = np.where((k >= 0) & (k <= n_t - 1), samples[rows, np.clip(k, 0, n_t - 1)], 0.0)
    hi = np.where(
        (k + 1 >= 0) & (k + 1 <= n_t - 1), samples[rows, np.clip(k + 1, 0, n_t - 1)], 0.0
    )
    return (1.0 - frac) * lo + frac * hi


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n_t=st.integers(2, 30),
       xs_mm=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
       z_mm=st.floats(0.5, 5.0))
def test_gather_matches_reference_bitwise(seed, m, n_t, xs_mm, z_mm):
    # low sampling rate: delays of 1-17 samples; channels hold signed zeros,
    # so a read that differed only in its sign bit would show
    geo = ArrayGeometry(
        n_elements=m, pitch=3e-4, sound_speed=1540.0, sampling_rate=5e6,
        center_frequency=1e6, fractional_bandwidth=0.77,
    )
    xs, z = np.array(xs_mm) * 1e-3, z_mm * 1e-3
    rng = np.random.default_rng(seed)
    tau0 = np.stack([_delays(geo, x, z) for x in xs])[:, None, :]
    k0 = np.floor(tau0).astype(np.int64)

    def check(n_samples, offsets):
        samples = rng.standard_normal((m, n_samples))
        samples[rng.random(samples.shape) < 0.2] = -0.0
        samples[rng.random(samples.shape) < 0.1] = 0.0
        frame = RfFrame(geometry=geo, samples=samples)
        tau = tau0 + offsets[:, None]
        out = gather_delayed(frame, xs, z, offsets)
        assert out.shape == tau.shape
        assert out.tobytes() == interp_reference(samples, tau).tobytes()
        return set(np.floor(tau).astype(np.int64).ravel())

    # offsets -K..K sweep every channel's reads across the whole record and
    # past both ends, where they land on the guard zeros
    big_k = max(k0.max() + 2, n_t - k0.min()) + 1
    reads = check(n_t, np.arange(-big_k, big_k + 1))
    assert {-1, 0, n_t - 2, n_t - 1} <= reads
    assert min(reads) <= -2 and max(reads) >= n_t
    # reads spanning exactly [0, T-2], whose interpolation partners are all
    # in the record, and one sample more at either end, where the first or
    # last read takes one partner from a guard
    n_long = int(k0.max() - k0.min()) + n_t
    for first, last in ((0, n_long - 2), (-1, n_long - 2), (0, n_long - 1)):
        reads = check(n_long, np.arange(first - k0.min(), last - k0.max() + 1))
        assert (min(reads), max(reads)) == (first, last)


def test_guard_follows_its_frame():
    # each frame reads its own record: a frame made by ``replace`` (as
    # add_channel_noise makes one) reads its own samples, not those of the
    # frame it came from
    rng = np.random.default_rng(3)
    frame = frame_from(rng.standard_normal((4, 900)))
    xs, z, offsets = np.array([-1e-3, 0.0, 2e-3]), 0.03, np.arange(-2, 3)
    tau = _delays(frame.geometry, xs[:, None, None], z) + offsets[:, None]
    assert gather_delayed(frame, xs, z, offsets).tobytes() == (
        interp_reference(frame.samples, tau).tobytes())
    noisy = add_channel_noise(frame, 10.0, 4)
    assert gather_delayed(noisy, xs, z, offsets).tobytes() == (
        interp_reference(noisy.samples, tau).tobytes())


def gather_case(frame):
    """Reads of ``frame`` at z = 30 mm (delays of about 390 samples) at
    offsets that sweep its first 520 samples and 150 samples past either
    end, with the reference ``interp_reference`` gives for them."""
    xs, z, offsets = np.array([-1e-3, 0.0, 2e-3]), 0.03, np.arange(-545, 285)
    tau = _delays(frame.geometry, xs[:, None, None], z) + offsets[:, None]
    return gather_delayed(frame, xs, z, offsets), interp_reference(frame.samples, tau)


def test_frames_live_in_their_record(tmp_path):
    # every frame the package makes is the interior of its guarded record,
    # which is stored, so reading it allocates nothing
    sim = simulate_rf(geometry(m=8), Phantom.from_points([Absorber(0.0, 0.02)]), 30e-6)
    noisy = add_channel_noise(sim, 20.0, 1)
    pio.write_rf(tmp_path / "rf", noisy)
    frames = {
        "simulate_rf": sim,
        "add_channel_noise": noisy,
        "read_rf": pio.read_rf(tmp_path / "rf"),
        "replace": replace(noisy, channel_snr_db=None),
        "deepcopy": copy.deepcopy(noisy),
        "pickle": pickle.loads(pickle.dumps(noisy)),
    }
    for name, frame in frames.items():
        tracemalloc.start()
        try:
            record = frame.guarded
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated == 0, name
        assert np.shares_memory(frame.samples, record), name
        padded = np.pad(frame.samples, ((0, 0), (2, 2))).reshape(-1)
        assert record.tobytes() == padded.tobytes(), name
    # replace adopts the record it is given; a copy gets its own
    assert np.shares_memory(frames["replace"].samples, noisy.samples)
    assert not np.shares_memory(frames["deepcopy"].samples, noisy.samples)


@pytest.mark.parametrize("layout", ["slice", "F"])
def test_frame_of_a_slice_reads_zeros_past_its_end(layout):
    # a frame of the first 520 samples of another frame's record, or of a
    # Fortran-ordered array, gathers as the reference: zeros past its own
    # end, not the samples that follow in the memory it was cut from
    rng = np.random.default_rng(7)
    full = frame_from(rng.standard_normal((4, 900)))
    part = {"slice": full.samples[:, :520],
            "F": np.asfortranarray(full.samples[:, :520])}[layout]
    frame = RfFrame(geometry=full.geometry, samples=part)
    assert frame.n_samples == 520
    out, ref = gather_case(frame)
    assert out.tobytes() == ref.tobytes()
    assert not np.array_equal(out, gather_case(full)[0])


def test_record_adopted_only_when_exact():
    # the interior of a zero-guarded record is adopted as it is; a view of
    # its shape at another offset or with other strides, or the interior of
    # a record with a nonzero guard, is copied into a record of its own
    record = np.zeros((4, 904))
    record[:, 2:-2] = np.random.default_rng(8).standard_normal((4, 900))
    adopted = RfFrame(geometry=geometry(), samples=record[:, 2:-2])
    assert np.shares_memory(adopted.guarded, record)
    guard_set = record.copy()
    guard_set[1, -1] = 1.0
    for samples in (record[:, :-4], record.reshape(-1)[2:3602].reshape(4, 900),
                    guard_set[:, 2:-2]):
        frame = RfFrame(geometry=geometry(), samples=samples)
        assert not np.shares_memory(frame.samples, samples.base)
        out, ref = gather_case(frame)
        assert out.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="samples must be"):
        RfFrame(geometry=geometry(), samples=record.reshape(-1))


def test_editing_samples_changes_the_next_gather():
    frame = frame_from(np.random.default_rng(9).standard_normal((4, 900)))
    before, _ = gather_case(frame)
    frame.samples[:] *= 2.0
    after, ref = gather_case(frame)
    assert after.tobytes() == ref.tobytes() == (2.0 * before).tobytes()
