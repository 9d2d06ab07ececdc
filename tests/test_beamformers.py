from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pabeam import beamformers
from pabeam.beamformers import (
    EPSILON_FLOOR_REL,
    MsmvConfig,
    _reweight,
    beamform_outputs,
    das_taps,
    das_weight,
    msmv_objective,
    msmv_weight,
    msmv_weights,
    mv_weight,
    sc_weight,
)
from pabeam.covariance import apply_dl, default_dl_factor, loaded_covariance
from pabeam.delays import SnapshotMatrix
from pabeam.errors import ConfigError, DimensionMismatch, NotPositiveDefinite


def snaps_from(columns, K=0):
    columns = np.asarray(columns, float)
    n_sub = columns.shape[1] // (2 * K + 1)
    return SnapshotMatrix(
        columns=columns,
        subarray_len=columns.shape[0],
        n_subarrays=n_sub,
        temporal_half_window=K,
    )


def random_spd(rng, dim):
    g = rng.standard_normal((dim, dim))
    return g @ g.T + dim * np.eye(dim)


class TestDas:
    def test_uniform(self):
        w = das_weight(4)
        np.testing.assert_allclose(w.values, 0.25)

    def test_invalid(self):
        with pytest.raises(ValueError):
            das_weight(0)


class TestMv:
    def test_identity_gives_uniform(self):
        w = mv_weight(np.eye(8))
        np.testing.assert_allclose(w.values, 1.0 / 8, atol=1e-12)

    def test_2x2_closed_form(self):
        # R^-1 1 = [0.4, 0.2], normalized -> [2/3, 1/3]
        w = mv_weight(np.array([[2.0, 1.0], [1.0, 3.0]]))
        np.testing.assert_allclose(w.values, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_unit_sum_random(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            dim = int(rng.integers(2, 16))
            w = mv_weight(random_spd(rng, dim))
            assert abs(w.values.sum() - 1.0) <= 1e-9

    def test_scale_invariant(self):
        rng = np.random.default_rng(8)
        r = random_spd(rng, 6)
        np.testing.assert_allclose(
            mv_weight(7.5 * r).values, mv_weight(r).values, rtol=1e-10
        )

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            mv_weight(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSparseCapon:
    def test_matches_mv(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            dim = int(rng.integers(2, 12))
            r = random_spd(rng, dim)
            for alpha in (0.1, 1.0, 10.0):
                wsc = sc_weight(r, alpha, n_iter=10)
                wmv = mv_weight(r)
                assert np.max(np.abs(wsc.values - wmv.values)) <= 1e-8

    def test_steer_count_irrelevant(self):
        rng = np.random.default_rng(2)
        r = random_spd(rng, 5)
        a = sc_weight(r, 1.0, 10, n_steer=1).values
        b = sc_weight(r, 1.0, 10, n_steer=16).values
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_alpha_zero(self):
        r = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(
            sc_weight(r, 0.0, 10).values, mv_weight(r).values, atol=1e-14
        )
        with pytest.raises(ValueError, match="alpha"):
            sc_weight(r, -1.0, 10)


class TestReweightDiagonal:
    # _reweight takes snapshot rows (P, N, L): row n of a pixel is column n
    # of its snapshot matrix

    def test_hand_value(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        w = np.array([0.5, 0.5])
        d = _reweight(x.T[None], w[None], 2.5)
        np.testing.assert_allclose(d, [[5.0, 2.5]])  # outputs 0.5 and 1.0

    def test_clamp_floor(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        w = np.array([1.0, 0.0])
        d = _reweight(x.T[None], w[None], 1.0)[0]
        assert d[0] == 1.0
        assert d[1] == 1.0 / EPSILON_FLOOR_REL  # clamped at eps * peak

    def test_all_zero_marker(self):
        # a pixel whose outputs are all zero gets an all-zero diagonal (its
        # penalty drops out) without disturbing its neighbor in the tile
        x = np.zeros((2, 3, 2))
        x[1, 0] = [1.0, 2.0]
        d = _reweight(x, np.array([[0.3, 0.7], [0.3, 0.7]]), 1.0)
        np.testing.assert_array_equal(d[0], 0.0)
        assert d[1, 0] == pytest.approx(1.0 / 1.7)
        np.testing.assert_array_equal(d[1, 1:], 1.0 / (1.7 * EPSILON_FLOOR_REL))


class TestMsmv:
    def test_single_column_one_step(self):
        # R = I, x = e1, beta = 1: start [0.5, 0.5]; D = 1/|0.5| = 2,
        # A = I + 2 e1 e1^T = diag(3, 1), A^-1 1 = [1/3, 1] -> [0.25, 0.75]
        r = np.eye(2)
        snaps = snaps_from([[1.0], [0.0]])
        w = msmv_weight(r, snaps, MsmvConfig(beta=1.0, n_iter=1))
        np.testing.assert_allclose(w.values, [0.25, 0.75], rtol=0, atol=1e-12)
        assert w.iterations_run == 1

    def test_single_column_two_steps(self):
        # second step: D = 1/0.25 = 4, A = diag(5, 1) -> [1/6, 5/6]
        r = np.eye(2)
        snaps = snaps_from([[1.0], [0.0]])
        w = msmv_weight(r, snaps, MsmvConfig(beta=1.0, n_iter=2))
        np.testing.assert_allclose(w.values, [1.0 / 6.0, 5.0 / 6.0], rtol=0, atol=1e-12)

    def test_beta_zero_is_mv(self):
        rng = np.random.default_rng(31)
        r = random_spd(rng, 6)
        snaps = snaps_from(rng.standard_normal((6, 10)))
        w = msmv_weight(r, snaps, MsmvConfig(beta=0.0, n_iter=10))
        np.testing.assert_allclose(w.values, mv_weight(r).values, atol=1e-12)
        assert w.iterations_run == 0

    def test_zero_snapshots_is_mv(self):
        rng = np.random.default_rng(32)
        r = random_spd(rng, 4)
        snaps = snaps_from(np.zeros((4, 5)))
        w = msmv_weight(r, snaps, MsmvConfig(beta=1.0, n_iter=3))
        np.testing.assert_allclose(w.values, mv_weight(r).values, atol=1e-12)

    def test_unit_sum_every_iterate(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            dim = int(rng.integers(2, 10))
            r = random_spd(rng, dim)
            snaps = snaps_from(rng.standard_normal((dim, 12)))
            for n_iter in range(11):
                w = msmv_weight(r, snaps, MsmvConfig(n_iter=n_iter))
                assert abs(w.values.sum() - 1.0) <= 1e-9

    def test_objective_non_increase(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            dim = int(rng.integers(2, 10))
            r = random_spd(rng, dim)
            snaps = snaps_from(rng.standard_normal((dim, 15)))
            w0 = mv_weight(r).values
            w = msmv_weight(r, snaps, MsmvConfig(beta=1.0, n_iter=10)).values
            f0 = msmv_objective(r, snaps, w0, 1.0)
            f = msmv_objective(r, snaps, w, 1.0)
            assert f <= f0 + 1e-9

    def test_two_beta_objective_non_increase_every_step(self):
        # the reweighting at beta majorizes w'Rw + 2 beta ||X'w||_1, so on
        # test_05's draws no step raises that objective (the one at beta
        # itself rises on hundreds of these steps). Not every draw holds it:
        # at L = N = 17 and beta = 10 (17 standard-normal snapshot columns
        # from default_rng(1413) and their loaded covariance), step 8, whose
        # matrix has a condition number near 1e17, takes it from 12.67 to
        # 16.05 (ROADMAP item 18)
        rng = np.random.default_rng(105)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            r = random_spd(rng, dim)
            snaps = snaps_from(rng.standard_normal((dim, 2 * dim)))
            f = [msmv_objective(r, snaps, msmv_weight(r, snaps, MsmvConfig(n_iter=k)).values, 2.0)
                 for k in range(11)]
            assert all(after <= before + 1e-9 for before, after in zip(f, f[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            msmv_weight(np.eye(3), snaps_from(np.ones((2, 4))))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match=r"msmv\.beta"):
            MsmvConfig(beta=-1.0)
        with pytest.raises(ConfigError, match=r"msmv\.n_iter"):
            MsmvConfig(n_iter=-1)

    def test_two_settings(self):
        assert [f.name for f in fields(MsmvConfig)] == ["beta", "n_iter"]


class TestBeamformOutput:
    def test_hand_value(self):
        # one pixel, snapshot rows [1, 2] and [3, 4]: column outputs 1.5 and
        # 3.5, mean 2.5
        center = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = beamform_outputs(center, das_weight(2).values[None])
        assert out.shape == (1,)
        assert out[0] == pytest.approx(2.5)

    def test_center_block_only(self):
        # K=1: columns [off -1 | off 0 | off +1], one subarray each; the
        # output reads only the offset-0 block of the offset-major rows
        snaps = snaps_from([[10.0, 1.0, 10.0], [10.0, 3.0, 10.0]], K=1)
        k, n_sub = snaps.temporal_half_window, snaps.n_subarrays
        center = snaps.columns.T[None, k * n_sub:(k + 1) * n_sub]
        out = beamform_outputs(center, das_weight(2).values[None])
        assert out[0] == pytest.approx(2.0)


M_AND_L = st.integers(2, 96).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m)))


@settings(max_examples=40, deadline=None)
@given(ml=M_AND_L, seed=st.integers(0, 2**32 - 1))
@example(ml=(64, 1), seed=0)
@example(ml=(64, 64), seed=0)
def test_das_taps_match_subarray_average(ml, seed):
    # the taper on the centre-time samples is the subarray-averaged output
    # of the uniform 1/L weight, for a few random gathered pixels
    M, L = ml
    c = das_taps(M, L)
    assert c.shape == (M,)
    assert abs(c.sum() - 1.0) <= 1e-12
    gathered = np.random.default_rng(seed).standard_normal((3, M))
    windows = np.stack([gathered[:, i:i + L] for i in range(M - L + 1)], axis=1)
    ref = beamform_outputs(windows, np.tile(das_weight(L).values, (3, 1)))
    assert np.max(np.abs(gathered @ c - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_das_taps_invalid():
    for M, L in ((4, 0), (4, 5)):
        with pytest.raises(ValueError):
            das_taps(M, L)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pix=st.integers(1, 9), L=st.integers(2, 12),
       n_iter=st.sampled_from((0, 1, 3)), zero_pixel=st.booleans())
def test_msmv_tile_unit_gain_every_iterate(seed, n_pix, L, n_iter, zero_pixel):
    # a seeded random tile; an all-zero pixel has no positive-definite
    # covariance and must come back not ok (NaN) without disturbing the rest
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_pix, 3 * L, L))
    if zero_pixel:
        x[0] = 0.0
    w, ok, iterations = msmv_weights(
        loaded_covariance(x, default_dl_factor(L)), x, MsmvConfig(n_iter=n_iter)
    )
    assert ok.sum() == n_pix - zero_pixel
    assert np.isnan(w[~ok]).all()
    np.testing.assert_allclose(w[ok].sum(axis=-1), 1.0, rtol=0, atol=1e-10)
    assert np.all(iterations <= n_iter)


def test_msmv_tile_matches_one_pixel():
    # a tile of random pixels, a pixel of equal snapshots (the iterate stays
    # uniform), a pixel whose outputs are all zero (the penalty drops out),
    # an all-zero pixel and an indefinite one (both not positive definite);
    # every positive-definite pixel runs all n_iter steps, and each must come
    # out of the tile exactly as it comes out of a one-pixel run
    L, K, n_sub, n_iter = 6, 1, 5, 12
    cfg = MsmvConfig(n_iter=n_iter)
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((12, L, (2 * K + 1) * n_sub))
    cols[8] = 1.5
    cols[9:] = 0.0
    r = loaded_covariance(np.swapaxes(cols, 1, 2), default_dl_factor(L))
    r[9] = random_spd(rng, L)
    r[11] = -np.eye(L)
    snaps = [snaps_from(c, K=K) for c in cols]
    x = np.ascontiguousarray(np.swapaxes(cols, 1, 2))  # the kernel's layout
    w, ok, iterations = msmv_weights(r, x, cfg)
    np.testing.assert_array_equal(ok, [True] * 10 + [False] * 2)
    np.testing.assert_array_equal(iterations, [n_iter] * 10 + [0] * 2)
    np.testing.assert_allclose(w[8], 1.0 / L, rtol=1e-12)
    assert w[9].tobytes() == mv_weight(r[9]).values.tobytes()
    for p in range(len(cols)):
        w_p, ok_p, it_p = msmv_weights(r[p:p + 1], x[p:p + 1], cfg)
        assert w[p].tobytes() == w_p[0].tobytes()
        assert (ok[p], iterations[p]) == (ok_p[0], it_p[0])
        if ok[p]:
            one = msmv_weight(r[p], snaps[p], cfg)
            assert w[p].tobytes() == one.values.tobytes()
            assert iterations[p] == one.iterations_run
        else:
            with pytest.raises(NotPositiveDefinite):
                msmv_weight(r[p], snaps[p], cfg)


def test_msmv_weight_independent_of_layout():
    # the same snapshot values held C- or Fortran-ordered give the same bits,
    # those of the kernel's C-contiguous snapshot rows; the reweighting
    # amplifies any roundoff a layout-dependent matmul would add
    L, n_iter = 16, 12
    cfg = MsmvConfig(n_iter=n_iter)
    rng = np.random.default_rng(11)
    for _ in range(8):
        cols = rng.standard_normal((L, 85))
        r = loaded_covariance(np.ascontiguousarray(cols.T)[None], default_dl_factor(L))[0]
        kernel, _, _ = msmv_weights(r[None], np.ascontiguousarray(cols.T)[None], cfg)
        for layout in (np.ascontiguousarray(cols), np.asfortranarray(cols)):
            w = msmv_weight(r, snaps_from(layout), cfg)
            assert w.values.tobytes() == kernel[0].tobytes()


@pytest.mark.parametrize("j", [1, 4, 8])
def test_msmv_step_failure_keeps_last_iterate(monkeypatch, j):
    # the solver is stubbed so that one pixel's step matrix is not positive
    # definite from step j on, as a real failure is at every later step; the
    # pixel is marked by a value in its strict upper triangle, which the
    # solver never reads. It must end at its step-(j-1) iterate after j-1
    # steps, and the other pixels (an MV-failed one among them) must come out
    # as in an unstubbed run, byte for byte.
    L, n_iter, marked, mark = 6, 8, 2, 1e300
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 15, L))
    r = loaded_covariance(x, default_dl_factor(L))
    r[4] = -np.eye(L)
    r[marked, 0, -1] = mark
    clean = msmv_weights(r, x, MsmvConfig(n_iter=n_iter))
    before = msmv_weights(r, x, MsmvConfig(n_iter=j - 1))
    real = beamformers._spd_solve_in_place
    calls = []

    def fails_from_step_j(a, b):  # the step solve; call k-1 is step k
        x, ok = real(a, b)
        if len(calls) >= j - 1:
            hit = a[:, 0, -1] == mark
            x[hit], ok[hit] = np.nan, False
        calls.append(len(a))
        return x, ok

    monkeypatch.setattr(beamformers, "_spd_solve_in_place", fails_from_step_j)
    w, ok, iterations = msmv_weights(r, x, MsmvConfig(n_iter=n_iter))
    assert len(calls) == n_iter
    np.testing.assert_array_equal(ok, [True] * 4 + [False, True])
    assert w[marked].tobytes() == before[0][marked].tobytes()
    assert iterations[marked] == before[2][marked] == j - 1
    others = np.arange(6) != marked
    assert w[others].tobytes() == clean[0][others].tobytes()
    np.testing.assert_array_equal(iterations[others], clean[2][others])
    np.testing.assert_array_equal(clean[2], [n_iter] * 4 + [0, n_iter])
