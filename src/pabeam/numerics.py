"""Small dense symmetric positive-definite linear algebra.

Everything downstream (covariance matrices, augmented penalty matrices) is
real symmetric by construction and diagonally loaded to positive definiteness,
so a failing Cholesky factorization is a meaningful signal, not a condition to
recover from.

The solver works on a stack of matrices (one per pixel of a tile; one matrix
is a stack of one): one LAPACK ``posv`` per matrix both decides positive
definiteness and solves, from a single Cholesky factorization of the matrix's
lower triangle.
"""

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import DimensionMismatch

SYMMETRY_ATOL_REL = 1e-12


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
    """
    x = np.full(a.shape[:-1], np.nan)
    ok = np.zeros(len(a), dtype=bool)
    for p, mat in enumerate(a):
        # mat.T is the Fortran-ordered view of mat, so its upper triangle is
        # mat's lower one; info > 0 is a non-positive pivot
        _, x_p, info = dposv(mat.T, b, lower=0)
        if info == 0:
            x[p], ok[p] = x_p, True
    return x, ok

