import numpy as np
import pytest

from pabeam.errors import DimensionMismatch
from pabeam.numerics import check_symmetric, spd_solve_stack


def solve_one(a, b):
    """A stack of one matrix: (solution, positive-definite verdict)."""
    x, ok = spd_solve_stack(np.asarray(a, float)[None], np.asarray(b, float))
    return x[0], ok[0]


def test_identity_solve():
    x, ok = solve_one(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert ok
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-14)


def test_2x2_closed_form():
    # oracle: A^-1 = (1/5) [[3,-1],[-1,2]], so A^-1 [1,1] = [0.4, 0.2]
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x, ok = solve_one(a, np.array([1.0, 1.0]))
    assert ok
    np.testing.assert_allclose(x, [0.4, 0.2], atol=1e-12)


def test_indefinite_fails():
    # eigenvalues {3, -1}
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    x, ok = solve_one(a, np.array([1.0, 1.0]))
    assert not ok
    assert np.isnan(x).all()


def test_asymmetric_rejected():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        check_symmetric(a)


def test_random_spd_residuals():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        dim = rng.integers(2, 12)
        g = rng.uniform(-1.0, 1.0, (dim, dim))
        a = g.T @ g + dim * np.eye(dim)
        b = rng.uniform(-1.0, 1.0, dim)
        x, ok = solve_one(a, b)
        assert ok
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-8 * max(np.max(np.abs(b)), 1e-30)


def test_scaling_property():
    rng = np.random.default_rng(3)
    g = rng.uniform(-1.0, 1.0, (5, 5))
    a = g.T @ g + 5 * np.eye(5)
    b = rng.uniform(-1.0, 1.0, 5)
    for c in (0.25, 3.0, 1e4):
        np.testing.assert_allclose(
            solve_one(c * a, b)[0], solve_one(a, b)[0] / c, rtol=1e-10
        )


def test_check_symmetric_tolerance():
    a = np.eye(4)
    a[0, 1] = 1e-13  # below 1e-12 * max entry
    a2 = check_symmetric(a)
    assert a2.shape == (4, 4)


def _cholesky_ok(a):
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def test_solve_stack_mixed():
    # SPD, indefinite, all-zero and singular PSD (exact zero pivots) matrices
    rng = np.random.default_rng(8)
    dim = 6
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    g = rng.standard_normal((dim, dim))
    singular = np.eye(dim)
    singular[-1, -1] = 0.0
    a = np.stack([
        g @ g.T + dim * np.eye(dim),
        (q * np.array([3.0, 2.0, 1.0, 1.0, 0.5, -1.0])) @ q.T,
        np.zeros((dim, dim)),
        np.ones((dim, dim)),
        g.T @ g + 0.1 * np.eye(dim),
        singular,
    ])
    b = rng.standard_normal(dim)
    before = a.copy()
    x, ok = spd_solve_stack(a, b)
    np.testing.assert_array_equal(a, before)
    np.testing.assert_array_equal(ok, [_cholesky_ok(m) for m in a])
    np.testing.assert_array_equal(ok, [True, False, False, False, True, False])
    assert np.isnan(x[~ok]).all()
    np.testing.assert_allclose(x[ok], np.linalg.solve(a[ok], b), rtol=1e-12, atol=0)
    # only the lower triangle is read: garbage above the diagonal changes nothing
    upper = np.triu_indices(dim, 1)
    a[:, upper[0], upper[1]] = rng.uniform(-1e3, 1e3, (len(a), len(upper[0])))
    x2, ok2 = spd_solve_stack(a, b)
    np.testing.assert_array_equal(ok2, ok)
    np.testing.assert_array_equal(x2, x)
