"""Small dense symmetric positive-definite linear algebra.

Every matrix solved (loaded covariances, MSMV step matrices) is real
symmetric and diagonally loaded to positive definiteness by construction, so
a failing Cholesky factorization is a signal, not a condition to recover
from. The solver works on a stack of matrices, one per pixel of a tile: one
LAPACK ``dposv`` per matrix both decides positive definiteness and solves.
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
    C-ordered (P, n) block of right-hand sides with the solutions, and
    returns {p: info} for the matrices whose ``info`` is not 0.
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
    uplo, nrhs, uplo_len = ctypes.c_char_p(b"U"), ctypes.byref(c_int(1)), ctypes.c_size_t(1)

    def posv(a, x):
        count, n = x.shape
        if not x.size:  # nothing to solve, and from_buffer refuses 0 bytes
            return {}
        # n >= 1 here, so n is also lda = ldb = max(1, n)
        n_ref, info = ctypes.byref(c_int(n)), c_int()
        info_ref = ctypes.byref(info)
        a_p, x_p = _pointer(a), _pointer(x)
        a_step, x_step = n * n * a.itemsize, n * x.itemsize
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
            # is mat's lower one
            _, x[p], info = dposv(mat.T, x[p], lower=0)
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
    """Solves A_p x_p = b for a stack of symmetric matrices and one
    right-hand side.

    Only the lower triangle of each A_p is read (the strict upper triangle
    may hold anything), and ``a`` is left unchanged.

    Args:
        a: matrices, shape (P, n, n).
        b: right-hand side vector, shape (n,).

    Returns:
        (x, ok): solutions of shape (P, n) and a (P,) mask of the matrices
        whose Cholesky factorization succeeded. Rows of x where ok is False
        are NaN.

    Raises:
        DimensionMismatch: ``a`` is not a stack of square matrices or ``b``
            does not match them.
        RuntimeError: ``dposv`` refused one of its arguments, a fault in
            this module rather than a matrix that is not positive definite.
    """
    # dposv overwrites its matrix with the factor and b with the solution
    return _spd_solve_in_place(np.array(a, dtype=np.float64, order="C"), b)


def _spd_solve_in_place(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spd_solve_stack`` for a C-ordered float64 stack ``a`` that nothing
    reads afterwards: ``dposv`` overwrites it with its factors, so no copy
    is made."""
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("dposv takes a C-ordered float64 stack")
    if a.ndim != 3 or a.shape[1] != a.shape[2] or np.shape(b) != a.shape[2:]:
        raise DimensionMismatch(
            f"expected a (P, n, n) stack and an (n,) vector, got {a.shape} and {np.shape(b)}"
        )
    x = np.empty(a.shape[:-1])
    x[...] = b
    failed = _posv(a, x)
    ok = np.ones(len(a), dtype=bool)
    if failed:
        if min(failed.values()) < 0:
            raise RuntimeError(f"dposv refused its argument {-min(failed.values())}")
        ok[list(failed)] = False
        x[~ok] = np.nan
    return x, ok
