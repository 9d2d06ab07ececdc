"""Small dense symmetric positive-definite linear algebra.

Every matrix solved (loaded covariances, MSMV's (2K+1)-dimensional step
matrices) is real symmetric, and a failing Cholesky factorization reports
one that is not positive definite: a pixel for the caller to handle, not an
error. The solver works on a stack of matrices, one per pixel of a tile, each with
one or several right-hand sides: one LAPACK ``dposv`` per matrix both decides
positive definiteness and solves.
``dposv`` is called through ``ctypes`` from the LAPACK that numpy's
``linalg`` already loads, so no run imports SciPy; a numpy whose LAPACK does
not export ``DPOSV_SYMBOL`` falls back to SciPy's wrapper, imported only then.
"""

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch

SYMMETRY_ATOL_REL = 1e-12

# dposv in the OpenBLAS numpy's wheels bundle: numpy's prefix, and the 64_
# suffix of its ILP64 interface, whose integer arguments are 64-bit. Other
# names are not looked up, as a name alone does not tell their width
DPOSV_SYMBOL = "scipy_dposv_64_"


def _pointer(arr: np.ndarray) -> ctypes.c_void_p:
    """A pointer to a writable C-contiguous array's first byte, made without
    ``arr.ctypes``, which costs several times more."""
    return ctypes.c_void_p(ctypes.addressof(ctypes.c_char.from_buffer(arr)))


def _numpy_posv():
    """A stack solver over the ``dposv`` of the LAPACK that numpy's linalg
    links, or None when that library and its dependencies do not export
    ``DPOSV_SYMBOL``.

    The solver overwrites a C-ordered (P, n, n) stack with its factors and a
    C-ordered (P, n) or (P, r, n) block of right-hand sides, r per matrix,
    with the solutions, and returns {p: info} for the matrices whose
    ``info`` is not 0.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    fn = getattr(lib, DPOSV_SYMBOL, None)
    if fn is None:
        return None
    c_int = ctypes.c_int64
    # no argtypes, which would check or convert every argument on every call
    # (1-2 us of a 6 us solve at n = 32): each argument is made once as the
    # ctypes object dposv takes
    fn.restype = None
    uplo, uplo_len = ctypes.c_char_p(b"U"), ctypes.c_size_t(1)

    def posv(a, x):
        if not x.size:  # nothing to solve, and from_buffer refuses 0 bytes
            return {}
        count, n = len(a), a.shape[-1]
        # a C-ordered (r, n) block read as Fortran is n x r: r right-hand
        # sides, each a row; n >= 1 here, so n is also lda = ldb = max(1, n)
        nrhs = ctypes.byref(c_int(x[0].size // n))
        n_ref, info = ctypes.byref(c_int(n)), c_int()
        info_ref = ctypes.byref(info)
        a_p, x_p = _pointer(a), _pointer(x)
        a_step, x_step = n * n * a.itemsize, x[0].nbytes
        failed = {}
        # a C-ordered matrix read as Fortran is its transpose, so "U" reads
        # the lower triangle; the pointers step through the stack in place,
        # so no object is made per matrix
        for p in range(count):
            fn(uplo, n_ref, nrhs, a_p, n_ref, x_p, n_ref, info_ref, uplo_len)
            if info.value:
                failed[p] = info.value
            a_p.value += a_step
            x_p.value += x_step
        return failed

    return posv


def _scipy_posv():
    """The same stack solver over SciPy's wrapper of ``dposv``."""
    from scipy.linalg.lapack import dposv

    def posv(a, x):
        failed = {}
        for p, mat in enumerate(a):
            # mat.T is the Fortran-ordered view of mat, so its upper triangle
            # is mat's lower one; x[p].T holds the right-hand sides as columns
            _, solution, info = dposv(mat.T, x[p].T, lower=0)
            x[p] = solution.T
            if info:
                failed[p] = info
        return failed

    return posv


_posv = _numpy_posv() or _scipy_posv()


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Validates that ``a`` is a square symmetric matrix and returns it.

    Symmetry is checked to an absolute tolerance of 1e-12 times the largest
    entry magnitude.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if not np.allclose(a, a.T, rtol=0.0, atol=SYMMETRY_ATOL_REL * max(scale, 1e-300)):
        raise DimensionMismatch("matrix is not symmetric")
    return a


def spd_solve_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solves A_p x = b for a stack of symmetric matrices, with one
    right-hand side for all of them or one or several per matrix.

    Only the lower triangle of each A_p is read (the strict upper triangle
    may hold anything), and ``a`` is left unchanged.

    Args:
        a: matrices, shape (P, n, n).
        b: right-hand sides: one vector (n,), one per matrix (P, n), or r per
            matrix (P, r, n), each a row (``dposv``'s NRHS).

    Returns:
        (x, ok): solutions of shape (P, n) for a b of shape (n,), else of b's
        shape, and a (P,) mask of the matrices whose Cholesky factorization
        succeeded. The solutions of a matrix where ok is False are NaN.

    Raises:
        DimensionMismatch: ``a`` is not a stack of square matrices or ``b``
            does not match them.
        RuntimeError: ``dposv`` refused one of its arguments, a fault in
            this module rather than a matrix that is not positive definite.
    """
    # dposv overwrites its matrix with the factor and b with the solution
    a = np.array(a, dtype=np.float64, order="C")
    shape = np.shape(b)
    one_for_all = len(shape) == 1 and shape == a.shape[1:2] == a.shape[2:]
    x = np.empty(a.shape[:-1] if one_for_all else shape)
    x[...] = b
    return x, _spd_solve_both_in_place(a, x)


def _spd_solve_both_in_place(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``spd_solve_stack`` in place, for a C-ordered float64 stack ``a`` that
    nothing reads afterwards and right-hand sides ``x``, C-ordered float64
    (P, n) or (P, r, n): ``dposv`` overwrites ``a`` with its factors and ``x``
    with the solutions, so that no array is made; returns ``ok``."""
    if not all(arr.dtype == np.float64 and arr.flags.c_contiguous for arr in (a, x)):
        raise ValueError("dposv takes C-ordered float64 stacks")
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not (
        x.ndim in (2, 3) and (x.shape[0], x.shape[-1]) == a.shape[::2]
    ):
        raise DimensionMismatch(
            f"expected a (P, n, n) stack and an (n,), (P, n) or (P, r, n) right-hand"
            f" side, got {a.shape} and {x.shape}"
        )
    failed = _posv(a, x)
    ok = np.ones(len(a), dtype=bool)
    if failed:
        if min(failed.values()) < 0:
            raise RuntimeError(f"dposv refused its argument {-min(failed.values())}")
        ok[list(failed)] = False
        x[~ok] = np.nan
    return ok
