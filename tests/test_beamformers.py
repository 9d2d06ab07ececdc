from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pabeam import beamformers
from pabeam.beamformers import (
    MsmvConfig,
    beamform_outputs,
    das_taps,
    das_weight,
    msmv_objective,
    msmv_weight,
    msmv_weights,
    mv_weight,
    offset_sums,
    sc_weight,
)
from pabeam.covariance import apply_dl, default_dl_factor, loaded_covariance
from pabeam.delays import SnapshotMatrix, subarray_snapshots
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


def capture_steps(monkeypatch):
    """The list that every step matrix ``msmv_weights`` factors is copied
    into, as it is passed to the solver: a step solve has one right-hand
    side per matrix, ``msmv_start``'s solve of R has 2K+2."""
    real, steps = beamformers._spd_solve_both_in_place, []

    def solve(a, x):
        if x.ndim == 2:
            steps.append(a.copy())
        return real(a, x)

    monkeypatch.setattr(beamformers, "_spd_solve_both_in_place", solve)
    return steps


class TestReweightDiagonal:
    # a step factors B + diag(|y| / beta), B = S R^-1 S^T, for the outputs
    # y = S w of the last iterate: the diagonal carries the reweighting

    def test_hand_value(self, monkeypatch):
        # R = I and one subarray per offset, sums [1, 0], [0, 2] and [1, 1]:
        # MV is [0.5, 0.5], so y = [0.5, 1, 1], B = S S^T has diagonal
        # [1, 4, 2], and beta = 2.5 adds [0.2, 0.4, 0.4]
        s = np.array([[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]])
        steps = capture_steps(monkeypatch)
        msmv_weights(np.eye(2)[None], s, MsmvConfig(beta=2.5, n_iter=1))
        np.testing.assert_allclose(np.diagonal(steps[0][0]), [1.2, 4.4, 2.4], rtol=1e-15)
        lower = np.tril_indices(3, -1)
        assert steps[0][0][lower].tolist() == (s[0] @ s[0].T)[lower].tolist()

    def test_all_zero_marker(self, monkeypatch):
        # rule 1: an offset whose sums are all zero (one past the record, say)
        # has output 0 for every w. It gets a unit diagonal entry and no other
        # entry, so its c is 0 and the step is the one without that offset:
        # the pixel still takes every step off MV, where without the rule
        # every step matrix would be singular. Its neighbour in the tile
        # comes out as it does alone.
        L, n_iter = 4, 5
        cfg = MsmvConfig(n_iter=n_iter)
        x = np.random.default_rng(5).standard_normal((2, 3 * L, L))
        x[0, :L] = 0.0  # pixel 0's first offset, of L subarrays
        r = loaded_covariance(x, default_dl_factor(L))
        s = offset_sums(x, 3)
        steps = capture_steps(monkeypatch)
        w, ok, iterations = msmv_weights(r, s, cfg)
        assert len(steps) == n_iter
        for step in steps:
            assert step[0, 0].tolist() == [1.0, 0.0, 0.0]
            assert step[0, :, 0].tolist() == [1.0, 0.0, 0.0]
        np.testing.assert_array_equal(iterations, [n_iter, n_iter])
        w_mv = mv_weight(r[0]).values
        assert np.max(np.abs(w[0] - w_mv)) > 1e-3 * np.max(np.abs(w_mv))
        without, _, _ = msmv_weights(r[:1], s[:1, 1:], cfg)
        np.testing.assert_allclose(w[0], without[0], rtol=1e-12)
        alone, _, _ = msmv_weights(r[1:], s[1:], cfg)
        assert w[1].tobytes() == alone[0].tobytes()


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
        # the reweighting at beta majorizes w'Rw + 2 beta ||S w||_1, so no
        # step raises that objective (the one at beta itself may rise): on
        # test_05's draws, on draws of five offsets, and on 17 standard-normal
        # snapshot columns from default_rng(1413) with their loaded
        # covariance at beta = 10, where the L x L steps of the former
        # per-column penalty took it from 12.67 to 16.05 at step 8, on a
        # matrix of condition number near 1e17
        rng = np.random.default_rng(105)
        draws = []
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            columns = rng.standard_normal((dim, 2 * dim))
            draws.append((random_spd(rng, dim), snaps_from(columns), 1.0))
        rng = np.random.default_rng(106)
        for _ in range(30):
            dim = int(rng.integers(2, 17))
            columns = rng.standard_normal((dim, 5 * dim))
            draws.append((random_spd(rng, dim), snaps_from(columns, K=2), 1.0))
        columns = np.random.default_rng(1413).standard_normal((17, 17))
        r = loaded_covariance(np.ascontiguousarray(columns.T)[None], default_dl_factor(17))[0]
        draws.append((r, snaps_from(columns), 10.0))
        for r, snaps, beta in draws:
            cfgs = [MsmvConfig(beta=beta, n_iter=k) for k in range(11)]
            f = [msmv_objective(r, snaps, msmv_weight(r, snaps, cfg).values, 2 * beta)
                 for cfg in cfgs]
            assert all(after <= before + 1e-9 for before, after in zip(f, f[1:]))

    def test_singular_step_keeps_previous_c(self):
        # rule 2: R = 2I and every offset sum a multiple of [1, -1], so MV's
        # [0.5, 0.5] has outputs exactly 0 and the step matrix is B = S S^T / 2,
        # rank 1 with entries +-1: its Cholesky factorization meets an exact
        # zero pivot. The pixel keeps c = 0, that is MV, the objective's
        # minimizer here (its penalty is 0), and nothing is raised; the other
        # pixel of the tile steps as it does alone
        s = np.array([[[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],
                      [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]])
        r = np.stack([2.0 * np.eye(2)] * 2)
        cfg = MsmvConfig(n_iter=4)
        w, ok, iterations = msmv_weights(r, s, cfg)
        assert ok.all()
        assert w[0].tolist() == [0.5, 0.5]
        alone = msmv_weights(r[1:], s[1:], cfg)
        assert w[1].tobytes() == alone[0][0].tobytes()
        np.testing.assert_array_equal(iterations, [0, 4])
        assert alone[2][0] == 4

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


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_offset_sums_centre_row_is_centre_block_sum(K):
    # S holds the per-offset sums of the kernel's snapshot rows, and its
    # centre row has the bits of the centre offset's block summed alone,
    # through the pixel-strided view an MV-only tile passes: so a fused
    # run's MV plane is the MV-only run's, bit for bit
    rng = np.random.default_rng(60 + K)
    n_offsets = 2 * K + 1
    for P in (1, 2, 9, 61):
        for M, L in ((2, 1), (8, 4), (16, 16), (33, 7), (64, 1), (64, 32), (96, 48)):
            n_sub = M - L + 1
            x = subarray_snapshots(rng.standard_normal((P, n_offsets, M)), L)
            s = offset_sums(x, n_offsets)
            assert s.shape == (P, n_offsets, L)
            blocks = x.reshape(P, n_offsets, n_sub, L).astype(np.longdouble)
            exact = blocks.sum(axis=2)
            assert np.max(np.abs(s - exact)) <= 1e-14 * np.max(np.abs(exact))
            centre = offset_sums(x[:, K * n_sub:(K + 1) * n_sub], 1)
            assert centre[:, 0].tobytes() == s[:, K].tobytes()


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
    # a seeded random tile of three offsets; an all-zero pixel has no
    # positive-definite covariance and must come back not ok (NaN) without
    # disturbing the rest
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_pix, 3 * L, L))
    if zero_pixel:
        x[0] = 0.0
    w, ok, iterations = msmv_weights(
        loaded_covariance(x, default_dl_factor(L)), offset_sums(x, 3), MsmvConfig(n_iter=n_iter)
    )
    assert ok.sum() == n_pix - zero_pixel
    assert np.isnan(w[~ok]).all()
    np.testing.assert_allclose(w[ok].sum(axis=-1), 1.0, rtol=0, atol=1e-10)
    assert np.all(iterations <= n_iter)


def test_msmv_weights_leave_their_covariances():
    # msmv_start factors its stack in place, so msmv_weights hands it a copy
    x = np.random.default_rng(9).standard_normal((3, 15, 6))
    r = loaded_covariance(x, default_dl_factor(6))
    before = r.tobytes()
    msmv_weights(r, offset_sums(x, 3), MsmvConfig(n_iter=2))
    assert r.tobytes() == before


def test_msmv_tile_matches_one_pixel():
    # a tile of random pixels, a pixel of equal snapshots (the iterate stays
    # uniform), a pixel whose sums are all zero (every step keeps MV),
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
    # the sums of the kernel's C-ordered snapshot rows
    s = offset_sums(np.ascontiguousarray(np.swapaxes(cols, 1, 2)), 2 * K + 1)
    w, ok, iterations = msmv_weights(r, s, cfg)
    np.testing.assert_array_equal(ok, [True] * 10 + [False] * 2)
    np.testing.assert_array_equal(iterations, [n_iter] * 10 + [0] * 2)
    np.testing.assert_allclose(w[8], 1.0 / L, rtol=1e-12)
    assert w[9].tobytes() == mv_weight(r[9]).values.tobytes()
    for p in range(len(cols)):
        w_p, ok_p, it_p = msmv_weights(r[p:p + 1], s[p:p + 1], cfg)
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
    # those of the kernel's C-contiguous snapshot rows, whose sums' bits
    # depend on their layout
    L, n_iter = 16, 12
    cfg = MsmvConfig(n_iter=n_iter)
    rng = np.random.default_rng(11)
    for _ in range(8):
        cols = rng.standard_normal((L, 85))
        r = loaded_covariance(np.ascontiguousarray(cols.T)[None], default_dl_factor(L))[0]
        sums = offset_sums(np.ascontiguousarray(cols.T)[None], 1)
        kernel, _, _ = msmv_weights(r[None], sums, cfg)
        for layout in (np.ascontiguousarray(cols), np.asfortranarray(cols)):
            w = msmv_weight(r, snaps_from(layout), cfg)
            assert w.values.tobytes() == kernel[0].tobytes()


@pytest.mark.parametrize("j", [1, 4, 8])
def test_msmv_step_failure_keeps_last_iterate(monkeypatch, j):
    # rule 2, with the solver stubbed so that one pixel's step matrix is not
    # positive definite from step j on, as a real failure is at every later
    # step (the pixel's outputs, and so its matrix, no longer change). It
    # must end at its step-(j-1) iterate after j-1 steps, and the other
    # pixels (an MV-failed one among them) must come out as in an unstubbed
    # run, byte for byte.
    L, n_iter, marked = 6, 8, 2
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 15, L))
    r = loaded_covariance(x, default_dl_factor(L))
    r[4] = -np.eye(L)
    s = offset_sums(x, 3)
    clean = msmv_weights(r, s, MsmvConfig(n_iter=n_iter))
    before = msmv_weights(r, s, MsmvConfig(n_iter=j - 1))
    real = beamformers._spd_solve_both_in_place
    calls = []

    def fails_from_step_j(a, x):  # a step solve (one rhs each); call k-1 is step k
        ok = real(a, x)
        if x.ndim == 2:
            if len(calls) >= j - 1:
                x[marked], ok[marked] = np.nan, False
            calls.append(len(a))
        return ok

    monkeypatch.setattr(beamformers, "_spd_solve_both_in_place", fails_from_step_j)
    w, ok, iterations = msmv_weights(r, s, MsmvConfig(n_iter=n_iter))
    assert len(calls) == n_iter
    np.testing.assert_array_equal(ok, [True] * 4 + [False, True])
    assert w[marked].tobytes() == before[0][marked].tobytes()
    assert iterations[marked] == before[2][marked] == j - 1
    others = np.arange(6) != marked
    assert w[others].tobytes() == clean[0][others].tobytes()
    np.testing.assert_array_equal(iterations[others], clean[2][others])
    np.testing.assert_array_equal(clean[2], [n_iter] * 4 + [0, n_iter])
