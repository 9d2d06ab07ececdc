import numpy as np
import pytest

from pabeam.covariance import apply_dl, default_dl_factor, loaded_covariance


def cov(columns):
    """Unloaded covariance of one pixel whose snapshot columns are ``columns``
    (L, N): a tile of one with zero loading."""
    return loaded_covariance(np.asarray(columns, float).T[None], 0.0)[0]


def test_single_column_outer_product():
    x = np.array([[1.0], [2.0]])
    r = cov(x)
    np.testing.assert_allclose(r, [[1.0, 2.0], [2.0, 4.0]])


def test_mean_over_columns():
    # columns e1 and e2: covariance is I/2
    x = np.eye(2)
    np.testing.assert_allclose(cov(x), np.eye(2) / 2.0)


def test_symmetric_psd():
    rng = np.random.default_rng(21)
    for _ in range(200):
        L = int(rng.integers(2, 10))
        n = int(rng.integers(1, 30))
        x = rng.standard_normal((L, n))
        r = cov(x)
        assert np.array_equal(r, r.T)
        eig = np.linalg.eigvalsh(r)
        assert eig.min() >= -1e-10 * max(eig.max(), 1.0)


def test_scaling_quadratic():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 9))
    r = cov(x)
    r3 = cov(3.0 * x)
    np.testing.assert_allclose(r3, 9.0 * r, rtol=1e-12)


def test_default_dl_factor():
    assert default_dl_factor(32) == pytest.approx(1.0 / 3200.0, rel=1e-15)
    assert default_dl_factor(1) == pytest.approx(0.01, rel=1e-15)


def test_apply_dl_hand_value():
    r = np.array([[2.0, 1.0], [1.0, 3.0]])  # trace 5
    loaded = apply_dl(r, 0.1)
    np.testing.assert_allclose(loaded, [[2.5, 1.0], [1.0, 3.5]])


def test_apply_dl_matches_identity_formula():
    # loading the diagonal in place gives the bits of R + load * I and
    # leaves the caller's R untouched
    rng = np.random.default_rng(4)
    for shape in ((2, 2), (9, 32, 32), (3, 2, 5, 5)):
        r = rng.standard_normal(shape)
        before = r.copy()
        load = 0.013 * np.trace(r, axis1=-2, axis2=-1)
        expected = r + np.asarray(load)[..., None, None] * np.eye(shape[-1])
        assert np.array_equal(apply_dl(r, 0.013), expected)
        assert np.array_equal(r, before)


def test_apply_dl_zero_noop():
    r = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(apply_dl(r, 0.0), r)


def test_apply_dl_negative_rejected():
    with pytest.raises(ValueError):
        apply_dl(np.eye(2), -0.1)


def test_apply_dl_restores_definiteness():
    # rank-1 covariance becomes positive definite after loading
    x = np.array([[1.0], [1.0], [1.0]])
    loaded = loaded_covariance(x.T[None], default_dl_factor(3))[0]
    np.testing.assert_array_equal(loaded, apply_dl(cov(x), default_dl_factor(3)))
    assert np.linalg.eigvalsh(loaded).min() > 0
