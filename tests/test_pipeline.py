import functools
import gc
import itertools
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pabeam import io as pio
from pabeam import numerics, pipeline
from pabeam.beamformers import (
    Method,
    MsmvConfig,
    beamform_outputs,
    das_taps,
    das_weight,
    msmv_weight,
    mv_weight,
)
from pabeam.covariance import default_dl_factor, loaded_covariance
from pabeam.delays import (
    FocalPoint,
    SnapshotMatrix,
    _delays,
    gather_delayed,
    subarray_snapshots,
)
from pabeam.errors import ConfigError, NotPositiveDefinite
from pabeam.phantom import (
    Absorber,
    ArrayGeometry,
    Phantom,
    RfFrame,
    add_channel_noise,
    simulate_rf,
)
from pabeam.pipeline import (
    ImageGrid,
    PaImage,
    envelope_detect,
    finalize,
    log_compress,
    reconstruct,
    reconstruct_methods,
    span_pixels,
    tile_pixels,
)
from test_delays import interp_reference


def geometry(m=16, fs=40e6):
    return ArrayGeometry(
        n_elements=m, pitch=3e-4, sound_speed=1540.0, sampling_rate=fs,
        center_frequency=5e6, fractional_bandwidth=0.77,
    )


def point_frame(m=16, fs=40e6, x=0.0, z=0.02, amplitude=1.0):
    geo = geometry(m, fs)
    phantom = Phantom.from_points([Absorber(x, z, amplitude=amplitude)])
    return simulate_rf(geo, phantom, 40e-6)


SMALL_GRID = ImageGrid(-2e-3, 2e-3, 18e-3, 22e-3, 21, 41)


class TestImageGrid:
    def test_coords(self):
        g = ImageGrid(-1e-3, 1e-3, 0.01, 0.02, 3, 5)
        np.testing.assert_allclose(g.x_coords, [-1e-3, 0.0, 1e-3])
        assert len(g.z_coords) == 5

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            ImageGrid(1e-3, -1e-3, 0.01, 0.02, 3, 5)
        with pytest.raises(ConfigError):
            ImageGrid(-1e-3, 1e-3, 0.01, 0.02, 0, 5)


@pytest.mark.parametrize("cls, args, error", [
    (Absorber, (0.0, np.nan), ValueError),
    (Absorber, (0.0, 0.02, np.nan), ValueError),
    (Absorber, (-np.inf, 0.02), ValueError),
    (Absorber, (0.0, 0.02, np.inf), ValueError),
    (FocalPoint, (np.nan, 0.02), ValueError),
    (FocalPoint, (0.0, np.inf), ValueError),
    (ImageGrid, (-np.inf, 0.0, 0.01, 0.02, 3, 5), ConfigError),
    (ImageGrid, (-1e-3, 1e-3, 0.01, np.inf, 3, 5), ConfigError),
    # finite bounds whose span overflows give non-finite coordinates too
    (ImageGrid, (-1e308, 1e308, 0.01, 0.02, 3, 5), ConfigError),
])
def test_non_finite_refused(cls, args, error):
    # a config file's numbers are finite already; these are direct calls
    with pytest.raises(error, match="finite"):
        cls(*args)


class TestEnvelope:
    def test_tone_envelope(self):
        # in-band tone: analytic-signal magnitude ~= 1 away from the edges
        n = 512
        t = np.arange(n)
        col = np.cos(2 * np.pi * (61.0 / n) * t)
        env = envelope_detect(col[:, None])[:, 0]
        core = env[32:-32]
        assert np.all(np.abs(core - 1.0) < 0.02)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        env = envelope_detect(rng.standard_normal((64, 5)))
        assert np.all(env >= 0)

    def test_zero_plane(self):
        env = envelope_detect(np.zeros((8, 4)))
        assert not np.any(env)

    def test_column_independence(self):
        rng = np.random.default_rng(2)
        plane = rng.standard_normal((128, 3))
        env = envelope_detect(plane)
        for j in range(3):
            np.testing.assert_allclose(
                env[:, j], envelope_detect(plane[:, [j]])[:, 0], atol=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(nz=st.integers(1, 300), nx=st.integers(1, 240),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-12, 1e12),
           layout=st.sampled_from(("C", "F", "every other column")))
    @example(nz=1, nx=1, seed=0, scale=1.0, layout="C")
    @example(nz=2, nx=3, seed=0, scale=1.0, layout="F")
    @example(nz=3, nx=16, seed=1, scale=1.0, layout="every other column")
    # the benchmark's planes: compare-3target, mv-file-2w, das-fullgrid
    @example(nz=121, nx=61, seed=2, scale=1.0, layout="C")
    @example(nz=61, nx=240, seed=3, scale=1.0, layout="F")
    @example(nz=260, nx=240, seed=4, scale=1.0, layout="every other column")
    # envelope blocks of 94 columns at this depth: two and a one-column rest
    @example(nz=260, nx=189, seed=5, scale=1.0, layout="C")
    @example(nz=260, nx=189, seed=6, scale=1.0, layout="F")
    def test_equals_scipy_hilbert(self, nz, nx, seed, scale, layout):
        # the FFT mask is scipy.signal.hilbert's, for odd and even depths,
        # and numpy's rfft has scipy.fft's bits on the bins it keeps, in
        # any memory layout and however the columns fall into blocks
        from scipy.signal import hilbert

        wide = scale * np.random.default_rng(seed).standard_normal((nz, 2 * nx))
        plane = {"C": np.ascontiguousarray(wide[:, :nx]),
                 "F": np.asfortranarray(wide[:, :nx]),
                 "every other column": wide[:, ::2]}[layout]
        assert np.array_equal(envelope_detect(plane), np.abs(hilbert(plane, axis=0)))


class TestLogCompress:
    def test_decades(self):
        env = np.array([[1.0, 0.1, 0.01, 0.001]])
        db = log_compress(env, 50.0)
        np.testing.assert_allclose(db, [[0.0, -20.0, -40.0, -50.0]], atol=1e-10)

    def test_peak_normalized(self):
        env = np.array([[4.0, 2.0]])
        db = log_compress(env, 60.0)
        np.testing.assert_allclose(db, [[0.0, -20.0 * np.log10(2.0)]], atol=1e-10)

    def test_zero_plane(self):
        db = log_compress(np.zeros((2, 2)), 40.0)
        np.testing.assert_allclose(db, -40.0)

    def test_invalid_range(self):
        for dr in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="^dynamic_range_db: "):
                log_compress(np.ones((2, 2)), dr)


class TestReconstruct:
    def test_point_target_peak_location(self):
        frame = point_frame()
        for method in (Method.DAS, Method.MV):
            img = finalize(reconstruct(frame, SMALL_GRID, method, K=1))
            iz, ix = np.unravel_index(np.argmax(img.envelope), img.envelope.shape)
            assert abs(SMALL_GRID.x_coords[ix] - 0.0) <= 2.1e-4
            assert abs(SMALL_GRID.z_coords[iz] - 0.02) <= 2.1e-4

    def test_constant_frame_das_equals_mv(self):
        # constant channels: the covariance has the all-ones eigenvector, so
        # the adaptive weight is exactly uniform and MV reproduces DAS
        frame = RfFrame(geometry=geometry(), samples=np.full((16, 1600), 3.0))
        grid = ImageGrid(-1e-3, 1e-3, 18e-3, 20e-3, 5, 7)
        das = reconstruct(frame, grid, Method.DAS, K=1)
        mv = reconstruct(frame, grid, Method.MV, K=1)
        scale = np.max(np.abs(das.beamformed))
        assert np.max(np.abs(das.beamformed - mv.beamformed)) <= 1e-6 * scale

    def test_zero_frame_fallback(self):
        frame = RfFrame(geometry=geometry(), samples=np.zeros((16, 1600)))
        grid = ImageGrid(-1e-3, 1e-3, 18e-3, 20e-3, 4, 3)
        img = reconstruct(frame, grid, Method.MV, K=1)
        assert img.fallback_pixel_count == 12
        assert not np.any(img.beamformed)

    def test_sample_dtype_irrelevant(self):
        # int, float32 and float64 copies of the same integer-valued samples
        # make one float64 frame, so their images are byte-identical
        integers = np.rint(1e4 * point_frame().samples).astype(np.int64)
        planes = [
            [image.beamformed.tobytes() for image in reconstruct_methods(
                RfFrame(geometry=geometry(), samples=integers.astype(dtype)),
                SMALL_GRID, (Method.DAS, Method.MV), K=1)]
            for dtype in (np.int64, np.float32, np.float64)
        ]
        assert planes[0] == planes[1] == planes[2]

    def test_worker_count_invariance(self):
        frame = point_frame()
        grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 9, 11)
        base = reconstruct(frame, grid, Method.MSMV, K=1, workers=1)
        for workers in (2, 5):
            again = reconstruct(frame, grid, Method.MSMV, K=1, workers=workers)
            assert np.array_equal(base.beamformed, again.beamformed)

    def test_linearity_das_mv(self):
        # DAS is linear in the data; MV weights are scale-invariant so its
        # output scales linearly too (the sparse method does not share this)
        frame = point_frame()
        scaled = RfFrame(geometry=frame.geometry, samples=4.0 * frame.samples)
        grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 5, 7)
        for method in (Method.DAS, Method.MV):
            a = reconstruct(frame, grid, method, K=1).beamformed
            b = reconstruct(scaled, grid, method, K=1).beamformed
            np.testing.assert_allclose(b, 4.0 * a, rtol=1e-8, atol=1e-12)

    def test_msmv_beta_zero_matches_mv(self):
        frame = point_frame()
        grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 5, 7)
        mv = reconstruct(frame, grid, Method.MV, K=1).beamformed
        ms = reconstruct(
            frame, grid, Method.MSMV, K=1, msmv=MsmvConfig(beta=0.0)
        ).beamformed
        np.testing.assert_allclose(ms, mv, atol=1e-12)

    def test_parameter_validation(self):
        # each message names the config key, as resolve_config's do
        frame = point_frame(m=8)
        with pytest.raises(ConfigError, match=r"^L: 9 outside \[1, 8\]"):
            reconstruct(frame, SMALL_GRID, Method.DAS, L=9)
        with pytest.raises(ConfigError, match="^K: "):
            reconstruct(frame, SMALL_GRID, Method.DAS, K=-1)
        with pytest.raises(ConfigError, match="^workers: "):
            reconstruct(frame, SMALL_GRID, Method.DAS, workers=0)
        with pytest.raises(ConfigError, match="^dl: "):
            reconstruct(frame, SMALL_GRID, Method.MV, dl_factor=-1e-3)

    def test_finalize_planes(self):
        frame = point_frame()
        img = finalize(reconstruct(frame, SMALL_GRID, Method.DAS, K=1), 40.0)
        assert img.envelope.max() == pytest.approx(1.0)
        assert img.db.max() == pytest.approx(0.0)
        assert img.db.min() >= -40.0
        assert img.dynamic_range_db == 40.0

    def test_finalize_default_is_config_default(self):
        image = reconstruct(point_frame(), SMALL_GRID, Method.DAS, K=1)
        assert image.dynamic_range_db is None
        cfg = pio.resolve_config({})
        assert finalize(image).dynamic_range_db == cfg.dynamic_range_db
        explicit = finalize(image, cfg.dynamic_range_db)
        assert np.array_equal(finalize(image).db, explicit.db)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_unset_settings_are_config_defaults(self, method):
        # reconstruct holds no default of its own: with no setting it gives
        # the image of resolve_config's L, K, dl and workers for the array
        frame = point_frame()
        grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 5, 7)
        cfg = pio.resolve_config({"geometry": {"n_elements": 16, "sampling_rate": 40e6}})
        explicit = reconstruct(frame, grid, method, L=cfg.L, K=cfg.K,
                               dl_factor=cfg.dl, workers=cfg.workers)
        unset = reconstruct(frame, grid, method)
        assert np.array_equal(unset.beamformed, explicit.beamformed)
        assert unset.fallback_pixel_count == explicit.fallback_pixel_count

    def test_sc_forms_no_image(self):
        # sc_weight cannot differ from MV, so Method has no sc member
        assert [m.value for m in Method] == ["das", "mv", "msmv"]
        with pytest.raises(ConfigError, match="sc"):
            reconstruct(point_frame(), SMALL_GRID, "sc")

    def test_unknown_method_is_config_error(self):
        with pytest.raises(ConfigError, match="^method: 'bogus'.*das, mv, msmv"):
            reconstruct(point_frame(), SMALL_GRID, "bogus")


def traced(call):
    """``call()``, the bytes of numpy array data it leaves allocated, and its
    peak of all allocations, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        arrays = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    return result, sum(trace.size for trace in arrays.traces), peak


class TestPlaneBudgets:
    """Everything after the kernel scales with the grid, so it is held to a
    budget in planes: P bytes, one float64 plane of the grid."""

    GRID = ImageGrid(-4e-3, 4e-3, 15e-3, 25e-3, 120, 130)
    P = 130 * 120 * 8

    @pytest.fixture(scope="class")
    def frame(self):
        return point_frame()

    def test_each_image_owns_one_plane(self, frame):
        # each call runs once untraced, so first-use caches are not counted
        das = functools.partial(reconstruct, frame, self.GRID, Method.DAS, K=1)
        das()
        image, held, _ = traced(das)
        assert image.beamformed.base is None
        assert held <= 1.1 * self.P
        every = functools.partial(reconstruct_methods, frame, self.GRID, tuple(Method),
                                  K=1, msmv=MsmvConfig(n_iter=1))
        every()
        images, held, _ = traced(every)
        assert all(image.beamformed.base is None for image in images)
        assert held <= 3.1 * self.P

    def test_das_peak_with_gather_plan(self, frame):
        # a DAS reconstruct of the 240 x 260 grid peaks at 1.51P plus its
        # gather plan's lateral term (nx x M float64), and neither the plan
        # nor the workspace grows with nz: doubling the rows adds only the
        # grid's own arrays, the plane and the row depths (8 B a pixel, 8 a
        # row)
        nx, m = 240, frame.geometry.n_elements
        extra = []
        for nz in (260, 520):
            grid = ImageGrid(-8e-3, 8e-3, 17e-3, 43e-3, nx, nz)
            das = functools.partial(reconstruct, frame, grid, Method.DAS)
            das()
            _, _, peak = traced(das)
            extra.append(peak - nz * (8 * nx + 8))
            if nz == 260:
                assert peak <= 1.51 * nz * nx * 8 + nx * m * 8
        assert extra[1] <= extra[0] + 1024

    def test_finalize_peak(self, frame):
        image = reconstruct(frame, self.GRID, Method.DAS, K=1)
        before = image.beamformed.tobytes()
        finalize(image)  # untraced first: numpy loads numpy.fft on first use
        done, _, peak = traced(lambda: finalize(image))
        assert peak <= 3.1 * self.P
        assert image.beamformed.tobytes() == before
        assert done.beamformed is image.beamformed

    def test_finalize_peak_over_envelope_blocks(self):
        # das-fullgrid's 260 x 240 plane is three envelope blocks of 94, 94
        # and 52 columns: finalize never holds a complex plane, so it peaks
        # at the envelope and dB planes it returns
        nz, nx = 260, 240
        assert -(-nx // (pipeline.TILE_BYTES // (16 * nz))) == 3
        grid = ImageGrid(-8e-3, 8e-3, 17e-3, 43e-3, nx, nz)
        plane = np.random.default_rng(0).standard_normal((nz, nx))
        image = PaImage(grid=grid, beamformed=plane, method=Method.DAS)
        finalize(image)
        _, _, peak = traced(lambda: finalize(image))
        assert peak <= 2.1 * nz * nx * 8

    def test_log_compress_and_write_pgm_keep_their_input(self, frame, tmp_path):
        done = finalize(reconstruct(frame, self.GRID, Method.DAS, K=1))
        env, db = done.envelope.tobytes(), done.db.tobytes()
        assert log_compress(done.envelope, 50.0).tobytes() == db
        assert done.envelope.tobytes() == env
        _, _, peak = traced(lambda: pio.write_pgm(tmp_path / "image.pgm", done.db, 50.0))
        assert peak <= 1.2 * self.P
        assert done.db.tobytes() == db


# A 64-element array with L=32, K=2 gives tiles of a few dozen pixels, so
# small grids already span several tiles per row.
TILE_L, TILE_K, TILE_DL = 32, 2, 1.0 / 3200.0
# Tiled MSMV agrees with its one-pixel case only to roundoff amplified by
# the ill-conditioned reweighted systems (see CHANGES.md).
MSMV_RTOL = 1e-4


@functools.cache
def noisy_frame():
    geo = geometry(m=64)
    phantom = Phantom.from_points([Absorber(0.0, 0.01, amplitude=5.0),
                                   Absorber(1e-3, 0.02, amplitude=2.0)])
    return add_channel_noise(simulate_rf(geo, phantom, 40e-6), 40.0, 11)


def per_pixel_plane(frame, grid, method, dl=TILE_DL):
    """The per-pixel definition: each point on its own through gather ->
    snapshots -> loaded covariance -> one-pixel weights -> subarray-averaged
    output, falling back to the uniform DAS weights on a failed solve.
    Returns (plane, fallback count)."""
    n_sub = frame.geometry.n_elements - TILE_L + 1
    offsets = np.arange(-TILE_K, TILE_K + 1)
    plane = np.zeros((grid.nz, grid.nx))
    fallbacks = 0
    for iz, z in enumerate(grid.z_coords):
        for ix, x in enumerate(grid.x_coords):
            delayed = gather_delayed(frame, np.array([x]), z, offsets)
            snaps = subarray_snapshots(delayed, TILE_L)
            w = das_weight(TILE_L).values
            if method is not Method.DAS:
                r = loaded_covariance(snaps, dl)[0]
                try:
                    if method is Method.MV:
                        w = mv_weight(r).values
                    else:
                        # msmv_weight iterates on columns.T, so this view gives
                        # it the tile's own C-ordered rows: MSMV's bits depend
                        # on that layout
                        columns = SnapshotMatrix(
                            columns=snaps[0].T, subarray_len=TILE_L,
                            n_subarrays=n_sub, temporal_half_window=TILE_K,
                        )
                        w = msmv_weight(r, columns).values
                except NotPositiveDefinite:
                    fallbacks += 1
            center = snaps[:, TILE_K * n_sub:(TILE_K + 1) * n_sub]
            plane[iz, ix] = beamform_outputs(center, w[None])[0]
    return plane, fallbacks


def assert_matches_per_pixel(frame, grid, method, dl=TILE_DL):
    image = reconstruct(frame, grid, method, L=TILE_L, K=TILE_K, dl_factor=dl)
    plane, fallbacks = per_pixel_plane(frame, grid, method, dl)
    assert image.fallback_pixel_count == fallbacks
    rtol = MSMV_RTOL if method is Method.MSMV else 1e-12
    scale = np.max(np.abs(plane))
    assert np.max(np.abs(image.beamformed - plane)) <= rtol * scale
    return image, plane


class TestTiles:
    @pytest.mark.parametrize("method", tuple(Method))
    @pytest.mark.parametrize("shape", ["nx=1", "nz=1", "tile+1", "ragged"])
    def test_matches_per_pixel_definition(self, method, shape):
        tile = tile_pixels(64, TILE_L, TILE_K)
        nx, nz = {"nx=1": (1, 3), "nz=1": (5, 1), "tile+1": (tile + 1, 2),
                  "ragged": (2 * tile + 5, 1)}[shape]
        grid = ImageGrid(-3e-3, 3e-3, 9e-3, 11e-3, nx, nz)
        assert_matches_per_pixel(noisy_frame(), grid, method)

    def test_tile_size(self):
        # the snapshot tensor of one tile stays within TILE_BYTES (384 KiB)
        assert tile_pixels(64, 32, 2) == 9
        assert tile_pixels(4096, 2048, 8) == 1
        # a span's gathered block stays within TILE_BYTES too, in whole tiles
        assert span_pixels(9, 5, 64) == 153  # 17 tiles of 9 px x 5 x 64 x 8 B
        assert span_pixels(1, 1, 64) == 768  # DAS alone: no tiles, P x M x 8 B
        assert span_pixels(7, 3, 16) == 1022
        assert span_pixels(1, 17, 4096) == 1

    @pytest.mark.parametrize("method", tuple(Method))
    def test_mixed_tile_fallback(self, method):
        # the record ends at 20 mm of travel: on the 10 mm row, pixels past
        # x = 27 mm read only zeros and fall back, the rest carry signal
        full = noisy_frame()
        frame = RfFrame(geometry=full.geometry, samples=full.samples[:, :520])
        grid = ImageGrid(0.0, 36e-3, 10e-3, 11e-3, 19, 1)
        image, plane = assert_matches_per_pixel(frame, grid, method)
        if method is not Method.DAS:
            assert image.fallback_pixel_count == 5
        assert np.all(plane[0, -5:] == 0.0) and np.all(plane[0, :-5] != 0.0)

    @pytest.mark.parametrize("method", [Method.MV, Method.MSMV])
    def test_unloaded_fallback_takes_das_value(self, method):
        # without loading, pixels that see only part of the aperture have a
        # singular covariance: they fall back to DAS with nonzero values
        full = noisy_frame()
        frame = RfFrame(geometry=full.geometry, samples=full.samples[:, :520])
        grid = ImageGrid(0.0, 36e-3, 10e-3, 11e-3, 19, 1)
        image, plane = assert_matches_per_pixel(frame, grid, method, dl=0.0)
        das = reconstruct(frame, grid, Method.DAS, L=TILE_L).beamformed
        assert image.fallback_pixel_count == 10
        np.testing.assert_allclose(image.beamformed[0, 9:], das[0, 9:], rtol=1e-12)
        assert np.count_nonzero(das[0, 9:]) == 5


def independent_pixel(frame, x, z, method):
    """One pixel from nothing but the channel data: np.hypot delays, each
    channel interpolated on its own, ``das_taps`` on the centre time for DAS,
    and for MV the loaded covariance of the subarray snapshots and a Capon
    weight from ``np.linalg.solve``."""
    geo, samples = frame.geometry, frame.samples
    m, n_t = samples.shape
    tau0 = np.hypot(geo.element_x - x, z) / geo.sound_speed * geo.sampling_rate

    def read(offset):
        out = np.zeros(m)
        for ch in range(m):
            t = tau0[ch] + offset
            k = int(np.floor(t))
            lo = samples[ch, k] if 0 <= k < n_t else 0.0
            hi = samples[ch, k + 1] if 0 <= k + 1 < n_t else 0.0
            out[ch] = (1.0 - (t - k)) * lo + (t - k) * hi
        return out

    if method is Method.DAS:
        return read(0) @ das_taps(m, TILE_L)
    blocks = [np.stack([d[i:i + TILE_L] for i in range(m - TILE_L + 1)], axis=1)
              for d in map(read, range(-TILE_K, TILE_K + 1))]
    snaps = np.concatenate(blocks, axis=1)  # (L, (2K+1)(M-L+1))
    r = snaps @ snaps.T / snaps.shape[1]
    r += TILE_DL * np.trace(r) * np.eye(TILE_L)
    v = np.linalg.solve(r, np.ones(TILE_L))
    return np.mean((v / v.sum()) @ blocks[TILE_K])


@pytest.mark.parametrize("method", [Method.DAS, Method.MV])
def test_das_mv_match_independent_reference(method):
    # the "same images" line: DAS and MV planes stay within 1e-12 of the
    # plane maximum of a reference that shares no code with the kernel
    frame = noisy_frame()
    grid = ImageGrid(-3e-3, 3e-3, 9e-3, 21e-3, 7, 13)
    image = reconstruct(frame, grid, method, L=TILE_L, K=TILE_K, dl_factor=TILE_DL)
    ref = np.array([[independent_pixel(frame, x, z, method) for x in grid.x_coords]
                    for z in grid.z_coords])
    assert image.fallback_pixel_count == 0
    assert np.max(np.abs(image.beamformed - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("scene", ["noisy", "truncated"])
def test_fused_pass_matches_single_methods(scene):
    # one pass for several methods gives each method's one-method image bit
    # for bit, DAS (gathered alone at one offset, in longer spans) included;
    # the truncated record is test_mixed_tile_fallback's, with 5 fallback
    # pixels.
    # The one-method MSMV image is also held to the per-pixel definition.
    frame = noisy_frame()
    grid = ImageGrid(-3e-3, 3e-3, 9e-3, 11e-3, 13, 3)
    if scene == "truncated":
        frame = RfFrame(geometry=frame.geometry, samples=frame.samples[:, :520])
        grid = ImageGrid(0.0, 36e-3, 10e-3, 11e-3, 19, 1)
    kw = dict(L=TILE_L, K=TILE_K)
    single = {m: reconstruct(frame, grid, m, **kw) for m in Method}
    plane, fallbacks = per_pixel_plane(frame, grid, Method.MSMV)
    assert single[Method.MSMV].fallback_pixel_count == fallbacks
    diff = np.max(np.abs(single[Method.MSMV].beamformed - plane))
    assert diff <= MSMV_RTOL * np.max(np.abs(plane))
    for methods in (tuple(Method), (Method.MSMV, Method.DAS)):
        for workers in (1, 2):
            fused = reconstruct_methods(frame, grid, methods, workers=workers, **kw)
            assert [image.method for image in fused] == list(methods)
            # each image owns its plane
            assert not any(np.shares_memory(a.beamformed, b.beamformed)
                           for a, b in itertools.combinations(fused, 2))
            for image in fused:
                ref = single[image.method]
                assert image.fallback_pixel_count == ref.fallback_pixel_count
                assert np.array_equal(image.beamformed, ref.beamformed)
    if scene == "truncated":
        assert single[Method.MV].fallback_pixel_count == 5


@pytest.mark.parametrize("K", [0, 1, 2])
def test_tile_msmv_is_one_pixel_msmv_weight(K):
    # each pixel of a tile's MSMV values is msmv_weight's on that pixel's
    # snapshots, byte for byte, at K = 0 as at K >= 1 (the snapshot rows are
    # C-ordered for any K); reused buffers of more pixels, filled with NaN
    # beforehand, give the same bytes as a tile that makes its own
    L, m, cfg = 16, 32, MsmvConfig()
    n_sub, dl = m - L + 1, default_dl_factor(L)
    gathered = np.random.default_rng(40 + K).standard_normal((9, 2 * K + 1, m))
    das = np.zeros(len(gathered))
    values, ok = pipeline._beamform_tile(gathered, das, (Method.MSMV,), L, dl, cfg)
    assert ok.all()
    for p in range(len(gathered)):
        snaps = subarray_snapshots(gathered[p:p + 1], L)
        columns = SnapshotMatrix(columns=snaps[0].T, subarray_len=L,
                                 n_subarrays=n_sub, temporal_half_window=K)
        w = msmv_weight(loaded_covariance(snaps, dl)[0], columns, cfg).values
        center = snaps[:, K * n_sub:(K + 1) * n_sub]
        assert values[Method.MSMV][p] == beamform_outputs(center, w[None])[0]
    buffers = pipeline._tile_buffers(len(gathered) + 3, 2 * K + 1, m, L)
    for buffer in buffers:
        buffer.fill(np.nan)
    again, _ = pipeline._beamform_tile(gathered, das, (Method.MSMV,), L, dl, cfg, buffers)
    assert again[Method.MSMV].tobytes() == values[Method.MSMV].tobytes()


def per_tile_block(frame, grid, methods, L, K, msmv, gather=gather_delayed):
    """The kernel's planes for ``methods`` and its fallback mask, as one block
    (method, row, column), with each MV/MSMV-sized tile gathered on its own
    by ``gather`` (``gather_delayed``'s arguments), its DAS taper summed on
    its own and, with an adaptive method, its MV and MSMV values from
    ``_beamform_tile``: the row loop without spans, gather plans or skipped
    spans."""
    m = frame.geometry.n_elements
    tile, taps = tile_pixels(m, L, K), das_taps(m, L)
    adaptive = set(methods) != {Method.DAS}
    offsets = np.arange(-K, K + 1) if adaptive else np.zeros(1)
    kw = dict(L=L, dl_factor=default_dl_factor(L), msmv=msmv)
    xs = grid.x_coords

    def block(z, i):
        gathered = gather(frame, xs[i:i + tile], z, offsets)
        das = np.einsum("pm,m->p", gathered[:, len(offsets) // 2], taps)
        values, ok = {}, np.zeros(len(das), dtype=bool)
        if adaptive:
            values, ok = pipeline._beamform_tile(gathered, das, methods, **kw)
        values[Method.DAS] = das
        return np.stack([values[method] for method in methods] + [~ok])

    return np.stack([
        np.concatenate([block(z, i) for i in range(0, grid.nx, tile)], axis=1)
        for z in grid.z_coords
    ], axis=1)


@functools.cache
def truncated_frame():
    # the record ends at 20 mm of travel
    full = noisy_frame()
    return RfFrame(geometry=full.geometry, samples=full.samples[:, :520])


@settings(max_examples=8, deadline=None)
@given(methods=st.sampled_from([tuple(Method), (Method.MV,), (Method.DAS,),
                                (Method.MSMV, Method.DAS)]),
       nx=st.integers(1, 400), x_min=st.floats(-10e-3, 0.0),
       x_max=st.floats(1e-3, 40e-3), z_min=st.floats(4e-3, 24e-3),
       nz=st.integers(1, 3), workers=st.sampled_from([1, 2]))
# rows inside the record, straddling its end and wholly past it, with
# ragged last spans (153-px spans of 9-px tiles)
@example(methods=tuple(Method), nx=161, x_min=-4e-3, x_max=4e-3, z_min=5e-3,
         nz=1, workers=1)
@example(methods=tuple(Method), nx=400, x_min=0.0, x_max=36e-3, z_min=10e-3,
         nz=2, workers=2)
@example(methods=(Method.MV,), nx=307, x_min=-10e-3, x_max=36e-3, z_min=19e-3,
         nz=3, workers=1)
def test_spans_match_per_tile_gathers(methods, nx, x_min, x_max, z_min, nz, workers):
    # gathering a span at once and skipping spans that gather only zeros
    # change no bit of any plane or fallback count
    frame, msmv = truncated_frame(), MsmvConfig(n_iter=2)
    grid = ImageGrid(x_min, x_max, z_min, z_min + 2e-3, nx, nz)
    images = reconstruct_methods(frame, grid, methods, L=TILE_L, K=TILE_K,
                                 msmv=msmv, workers=workers)
    *planes, fallback = per_tile_block(frame, grid, methods, TILE_L, TILE_K, msmv)
    for image, plane in zip(images, planes):
        assert np.array_equal(image.beamformed, plane)
        expected = 0 if image.method is Method.DAS else int(fallback.sum())
        assert image.fallback_pixel_count == expected


def reference_gather(frame, xs, z, offsets):
    """The gather's definition: ``interp_reference`` of the frame's samples
    at ``_delays`` plus each offset."""
    tau = _delays(frame.geometry, xs[:, None, None], z) + offsets[:, None]
    return interp_reference(frame.samples, tau)


@settings(max_examples=12, deadline=None)
@given(methods=st.sampled_from([(Method.DAS,), (Method.MV,), (Method.DAS, Method.MV)]),
       nx=st.integers(1, 800), x_min=st.floats(-12e-3, 0.0),
       x_max=st.floats(1e-3, 30e-3), z_min=st.floats(4e-3, 24e-3),
       nz=st.integers(1, 2), K=st.integers(0, 2), workers=st.sampled_from([1, 2]))
# two 768-px DAS spans per row, the second ragged; rows past the record
@example(methods=(Method.DAS,), nx=800, x_min=-8e-3, x_max=8e-3, z_min=17e-3,
         nz=2, K=2, workers=2)
@example(methods=(Method.DAS, Method.MV), nx=161, x_min=-4e-3, x_max=12e-3,
         z_min=19e-3, nz=2, K=0, workers=1)
@example(methods=(Method.DAS, Method.MV), nx=1, x_min=-1e-3, x_max=1e-3,
         z_min=18e-3, nz=2, K=2, workers=2)
def test_planes_match_reference_gather(methods, nx, x_min, x_max, z_min, nz, K, workers):
    # the gather plan, the DAS rows' taper sums written into their planes
    # and the worker split give every DAS and MV plane the bits of a row
    # by row reference gathered without a plan
    frame = truncated_frame()
    grid = ImageGrid(x_min, x_max, z_min, z_min + 2e-3, nx, nz)
    images = reconstruct_methods(frame, grid, methods, L=TILE_L, K=K, workers=workers)
    *planes, fallback = per_tile_block(frame, grid, methods, TILE_L, K, MsmvConfig(),
                                       gather=reference_gather)
    for image, plane in zip(images, planes):
        assert image.beamformed.tobytes() == plane.tobytes()
        expected = 0 if image.method is Method.DAS else int(fallback.sum())
        assert image.fallback_pixel_count == expected


def test_reconstruct_methods_validation():
    for methods in ((), (Method.DAS, "sc")):
        with pytest.raises(ConfigError):
            reconstruct_methods(point_frame(), SMALL_GRID, methods)
    # a method asked for twice is refused by name
    for method in (Method.MV, Method.DAS):
        with pytest.raises(ConfigError, match=f"method: {method.value} "):
            reconstruct_methods(point_frame(), SMALL_GRID, (method, method))


@settings(max_examples=6, deadline=None)
@given(method=st.sampled_from(Method), nx=st.integers(1, 40),
       nz=st.integers(1, 3))
def test_workers_bit_identical(method, nx, nz):
    grid = ImageGrid(-3e-3, 3e-3, 9e-3, 11e-3, nx, nz)
    base = reconstruct(noisy_frame(), grid, method, L=TILE_L, K=TILE_K).beamformed
    for workers in (2, 3):
        again = reconstruct(noisy_frame(), grid, method, L=TILE_L, K=TILE_K,
                            workers=workers).beamformed
        assert np.array_equal(base, again)


def test_worker_processes_capped_at_usable_cpus(monkeypatch, tmp_path):
    # six blocks of one row on two usable CPUs: two processes run them all,
    # and the image is the one-worker image
    frame = point_frame()
    grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 5, 6)
    base = reconstruct(frame, grid, Method.MV, K=1)
    tile, pids = pipeline._beamform_tile, tmp_path / "pids"

    def recording_tile(*args, **kwargs):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return tile(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pipeline, "_beamform_tile", recording_tile)
    again = reconstruct(frame, grid, Method.MV, K=1, workers=6)
    assert np.array_equal(base.beamformed, again.beamformed)
    used = set(pids.read_text().split())
    assert str(os.getpid()) not in used and 1 <= len(used) <= 2


def test_forked_run_caller_holds_no_workspace(monkeypatch):
    # the gather and tile arrays of a forked run are made in the workers:
    # the calling process holds the plan and the planes, not a span's
    # gathered block (153 px x 5 offsets x 64 channels, 4 arrays, 1.5 MiB)
    frame = noisy_frame()
    grid = ImageGrid(-3e-3, 3e-3, 9e-3, 11e-3, 240, 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run = functools.partial(reconstruct, frame, grid, Method.MV, L=32, K=2, workers=2)
    run()  # untraced first, so the process pool's first imports are not counted
    _, _, peak = traced(run)
    assert peak < 1 << 20


class TileFailure(Exception):
    pass


def test_worker_processes_end_with_the_call(monkeypatch):
    frame = point_frame()
    grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 5, 6)
    base = reconstruct(frame, grid, Method.MV, K=1)

    # the frame reaches the workers through the fork: pickling it would fail
    def no_pickle(self, protocol):
        raise TypeError("RfFrame pickled")

    monkeypatch.setattr(RfFrame, "__reduce_ex__", no_pickle)
    again = reconstruct(frame, grid, Method.MV, K=1, workers=2)
    assert np.array_equal(base.beamformed, again.beamformed)
    assert multiprocessing.active_children() == []

    # a gather that raises in a worker: the fork inherits the patched kernel
    gather = pipeline.gather_span
    last_row = grid.z_coords[-1]

    def failing_gather(plan, start, stop, z, out):
        if z == last_row:
            raise TileFailure(f"tile at z={z}")
        return gather(plan, start, stop, z, out)

    monkeypatch.setattr(pipeline, "gather_span", failing_gather)
    with pytest.raises(TileFailure, match="^tile at z="):
        reconstruct(frame, grid, Method.MV, K=1, workers=2)
    assert multiprocessing.active_children() == []


# whether dposv comes from numpy's own LAPACK rather than SciPy's
NUMPY_LAPACK = numerics._numpy_posv() is not None


# a fresh interpreter's frame of one point target, M=16
FRESH_FRAME = (
    "from pabeam import Absorber, ArrayGeometry, ImageGrid, Method, Phantom\n"
    "from pabeam import finalize, reconstruct, reconstruct_methods, simulate_rf\n"
    "geo = ArrayGeometry(n_elements=16, pitch=3e-4, sound_speed=1540.0,\n"
    "                    sampling_rate=40e6, center_frequency=5e6,\n"
    "                    fractional_bandwidth=0.77)\n"
    "frame = simulate_rf(geo, Phantom.from_points([Absorber(0.0, 0.02)]), 40e-6)\n"
)
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


@functools.cache
def fresh_run_modules():
    """Modules a fresh interpreter has loaded after importing the CLI and
    running every method through reconstruct and finalize with one worker.
    When dposv comes from numpy's LAPACK, SciPy cannot be imported there, so
    the run also shows that it does not need SciPy."""
    # a fresh interpreter, so that what other tests imported does not count
    code = (
        "import sys\n"
        + ("sys.modules['scipy'] = None\n" if NUMPY_LAPACK else "")
        + "import pabeam.cli\n"
        + FRESH_FRAME
        + "grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 3, 2)\n"
        "for method in Method:\n"
        "    finalize(reconstruct(frame, grid, method, K=1, workers=1))\n"
        # the blocked scipy entry is None: list only the modules loaded
        "print('\\n'.join(m for m, mod in sys.modules.items() if mod is not None))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.split()


def test_one_worker_loads_no_process_pool():
    assert [m for m in fresh_run_modules() if m.startswith(POOL_MODULES)] == []


@pytest.mark.parametrize("pin, workers, nz", [(True, 3, 4), (False, 2, 1)],
                         ids=["pinned", "one-row"])
def test_one_process_runs_in_the_caller(pin, workers, nz):
    # pinned to one CPU, or with one row to run, a call for more workers
    # starts no pool and gives the one-worker planes bit for bit
    cpu = min(os.sched_getaffinity(0))
    code = (
        f"import os, sys\nif {pin}: os.sched_setaffinity(0, {{{cpu}}})\n" + FRESH_FRAME
        + f"grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, 5, {nz})\n"
        "runs = [reconstruct_methods(frame, grid, tuple(Method), K=1, workers=w)\n"
        f"        for w in ({workers}, 1)]\n"
        "print(all(a.beamformed.tobytes() == b.beamformed.tobytes()\n"
        "          for a, b in zip(*runs)))\n"
        f"print(*(m for m in sys.modules if m.startswith({POOL_MODULES})))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    same, pool_modules, _ = run.stdout.split("\n")
    assert same == "True" and pool_modules == ""


def test_run_loads_no_scipy():
    # envelope and pulse are computed in place, the envelope with numpy.fft,
    # and dposv is called from numpy's own LAPACK, so no SciPy module is
    # loaded; a numpy whose LAPACK exports no dposv loads scipy.linalg's,
    # still not scipy.signal, scipy.fft or scipy.special, each of which costs
    # more than a small run
    loaded = [m for m in fresh_run_modules() if m.startswith("scipy")]
    if NUMPY_LAPACK:
        assert loaded == []
    assert [m for m in loaded
            if m.startswith(("scipy.signal", "scipy.fft", "scipy.special"))] == []


@settings(max_examples=10, deadline=None)
@given(method=st.sampled_from((Method.DAS, Method.MV)),
       scale=st.floats(1e-3, 1e3), nx=st.integers(1, 8), nz=st.integers(1, 4))
def test_das_mv_linear_in_amplitude(method, scale, nx, nz):
    # any scale to roundoff; a power of two, which scales every float
    # exactly, bit for bit
    frame = point_frame()
    grid = ImageGrid(-1e-3, 1e-3, 19e-3, 21e-3, nx, nz)

    def image(scale):
        scaled = RfFrame(geometry=frame.geometry, samples=scale * frame.samples)
        return reconstruct(scaled, grid, method, K=1).beamformed

    a = image(1.0)
    assert np.max(np.abs(image(scale) - scale * a)) <= 1e-9 * scale * np.max(np.abs(a))
    for power in (2.0**-20, 2.0**-3, 2.0, 2.0**7, 2.0**30):
        assert np.array_equal(image(power), power * a)
