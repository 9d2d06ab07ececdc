"""Spatially smoothed covariance estimation with diagonal loading.

Both stages work over any leading (pixel) axes.
"""

import numpy as np


def default_dl_factor(L: int) -> float:
    """Default diagonal-loading constant, 1/(100 L)."""
    return 1.0 / (100.0 * L)


def apply_dl(r: np.ndarray, dl_factor: float) -> np.ndarray:
    """Adds dl_factor * trace(R) to the diagonal of R (of each R in a stack)."""
    if dl_factor < 0:
        raise ValueError("diagonal loading factor must be >= 0")
    r = np.asarray(r, dtype=np.float64)
    load = dl_factor * np.trace(r, axis1=-2, axis2=-1)
    return r + np.asarray(load)[..., None, None] * np.eye(r.shape[-1])


def loaded_covariance(
    snapshots: np.ndarray, dl_factor: float, xt: np.ndarray | None = None
) -> np.ndarray:
    """Diagonally loaded covariance of each pixel of a tile: snapshot rows
    X^T (P, N, L) to R = (1/N) X X^T plus dl_factor * trace(R) on the
    diagonal, shape (P, L, L).

    The mean outer product over all subarray x temporal snapshot columns makes
    the covariance estimator and the sparsity-penalty column set consistent.
    ``xt`` is the contiguous transpose of ``snapshots`` if the caller holds it.
    The Gram is symmetric only up to roundoff, as the solver reads the lower
    triangle alone.
    """
    if xt is None:
        xt = np.ascontiguousarray(np.swapaxes(snapshots, -1, -2))
    r = np.matmul(xt, snapshots)
    r /= snapshots.shape[-2]
    return apply_dl(r, dl_factor)
