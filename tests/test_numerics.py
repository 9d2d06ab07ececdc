import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabeam import numerics
from pabeam.errors import DimensionMismatch
from pabeam.numerics import check_symmetric, spd_solve_stack

# the two dposv paths: numpy's own LAPACK (None on a numpy whose LAPACK
# does not export numerics.DPOSV_SYMBOL) and SciPy's wrapper
NUMPY_POSV = numerics._numpy_posv()
SCIPY_POSV = numerics._scipy_posv()


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
    for bad in (a, np.ones((2, 3))):  # asymmetric, not square
        with pytest.raises(DimensionMismatch):
            check_symmetric(bad)


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
    # one right-hand side per matrix, or several, each a row
    for rhs in (rng.standard_normal((len(a), dim)), rng.standard_normal((len(a), 3, dim))):
        x_r, ok_r = spd_solve_stack(a, rhs)
        assert x_r.shape == rhs.shape
        np.testing.assert_array_equal(ok_r, ok)
        assert np.isnan(x_r[~ok]).all()
        rows = rhs.reshape(len(a), -1, dim)[ok]
        expected = np.linalg.solve(a[ok], rows.swapaxes(1, 2)).swapaxes(1, 2)
        np.testing.assert_allclose(x_r[ok], expected.reshape(x_r[ok].shape), rtol=1e-12, atol=0)
    # only the lower triangle is read: garbage above the diagonal changes nothing
    upper = np.triu_indices(dim, 1)
    a[:, upper[0], upper[1]] = rng.uniform(-1e3, 1e3, (len(a), len(upper[0])))
    x2, ok2 = spd_solve_stack(a, b)
    np.testing.assert_array_equal(ok2, ok)
    np.testing.assert_array_equal(x2, x)


def solve_with(posv, a, b):
    """spd_solve_stack through one dposv path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_posv", posv)
        return spd_solve_stack(a, b)


@st.composite
def stacks(draw):
    """A stack of symmetric matrices, some not positive definite, and
    right-hand sides: one for all, one per matrix or several per matrix. The
    strict upper triangle may hold junk."""
    n = draw(st.integers(1, 33))
    # per matrix: the shift of g g^T / n (-0.5 is indefinite for most g),
    # or an all-zero matrix
    kinds = draw(st.lists(st.sampled_from((1.0, 1e-3, 0.0, -0.5, "zero")), max_size=6))
    scale = draw(st.sampled_from((1e-150, 1.0, 1e150)))
    junk = draw(st.sampled_from((None, 1e300, -7.0, np.nan)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((len(kinds), n, n))
    a = np.matmul(g, np.swapaxes(g, 1, 2)) / n
    for mat, kind in zip(a, kinds):
        if kind == "zero":
            mat[...] = 0.0
        else:
            mat += kind * np.eye(n)
    a *= scale
    if junk is not None:
        upper = np.triu_indices(n, 1)
        a[:, upper[0], upper[1]] = junk
    rhs = draw(st.sampled_from(((n,), (len(a), n), (len(a), 3, n))))
    return a, rng.standard_normal(rhs)


@pytest.mark.skipif(NUMPY_POSV is None, reason="numpy's LAPACK exports no dposv")
@settings(max_examples=150, deadline=None)
@given(stack=stacks())
def test_numpy_and_scipy_dposv_agree_bit_for_bit(stack):
    a, b = stack
    before = a.tobytes()
    x_np, ok_np = solve_with(NUMPY_POSV, a, b)
    assert a.tobytes() == before
    x_sp, ok_sp = solve_with(SCIPY_POSV, a, b)
    assert a.tobytes() == before
    assert x_np.shape == x_sp.shape == (b.shape if b.ndim > 1 else a.shape[:-1])
    assert x_np.tobytes() == x_sp.tobytes()
    np.testing.assert_array_equal(ok_np, ok_sp)
    assert np.isnan(x_np[~ok_np]).all()


@settings(max_examples=60, deadline=None)
@given(stack=stacks())
def test_in_place_solve_matches_copying_solve(stack):
    # MSMV's step solve factors its own matrix in place; it must give the
    # bits of the copying spd_solve_stack, and write only lower triangles
    a, b = stack
    x, ok = spd_solve_stack(a, b)
    scratch, x_in = a.copy(), np.empty(x.shape)
    x_in[...] = b
    ok_in = numerics._spd_solve_both_in_place(scratch, x_in)
    assert x_in.tobytes() == x.tobytes()
    np.testing.assert_array_equal(ok_in, ok)
    upper = np.triu_indices(a.shape[-1], 1)
    assert scratch[:, upper[0], upper[1]].tobytes() == a[:, upper[0], upper[1]].tobytes()


@pytest.mark.skipif(NUMPY_POSV is None, reason="numpy's LAPACK exports no dposv")
def test_numpy_dposv_prints_nothing(capfd):
    # OpenBLAS reports an illegal argument on stdout, which would corrupt the
    # CLI's output; every argument the solver passes is legal, n = 1 and
    # failing matrices included
    for n in (1, 2, 9, 33):
        a = np.stack([np.eye(n), -np.eye(n), np.zeros((n, n))])
        x, ok = solve_with(NUMPY_POSV, a, np.ones(n))
        np.testing.assert_array_equal(ok, [True, False, False])
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("posv", [SCIPY_POSV, NUMPY_POSV], ids=["scipy", "numpy"])
def test_illegal_argument_raises(monkeypatch, posv):
    # a negative info is a bug in the call, never a fallback pixel
    if posv is None:
        pytest.skip("numpy's LAPACK exports no dposv")

    def illegal(a, x):
        return {**posv(a, x), 1: -4}

    monkeypatch.setattr(numerics, "_posv", illegal)
    with pytest.raises(RuntimeError, match="argument 4"):
        spd_solve_stack(np.stack([np.eye(2), np.eye(2), -np.eye(2)]), np.ones(2))


def test_stack_shapes_checked():
    # the solver walks raw memory, so every shape is checked first
    stack = np.ones((2, 3, 3))
    for a, b in ((np.ones((2, 3, 4)), np.ones(4)), (stack, np.ones(4)), (np.eye(3), np.ones(3)),
                 (stack, np.ones((1, 3))), (stack, np.ones((2, 4))), (stack, np.ones((3, 2, 3))),
                 (stack, np.ones((2, 2, 4))), (stack, np.ones((2, 1, 1, 3)))):
        with pytest.raises(DimensionMismatch):
            spd_solve_stack(a, b)
    # and the in-place solve passes its stack's own memory, so its layout
    for a in (np.eye(2, dtype=np.float32)[None], np.eye(4)[None, ::2, ::2]):
        with pytest.raises(ValueError):
            numerics._spd_solve_both_in_place(a, np.ones((1, 2)))


def test_empty_stack():
    x, ok = spd_solve_stack(np.zeros((0, 4, 4)), np.ones(4))
    assert x.shape == (0, 4) and ok.shape == (0,)
