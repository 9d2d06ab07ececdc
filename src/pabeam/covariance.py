"""Spatially smoothed covariance estimation with diagonal loading.

Both stages work over any leading (pixel) axes.
"""

import numpy as np


def default_dl_factor(L: int) -> float:
    """Default diagonal-loading constant, 1/(100 L)."""
    return 1.0 / (100.0 * L)


def apply_dl(r: np.ndarray, dl_factor: float) -> np.ndarray:
    """Adds dl_factor * trace(R) to the diagonal of R (of each R in a stack)."""
    return _load_diagonal(np.array(r, dtype=np.float64), dl_factor)


def _load_diagonal(r: np.ndarray, dl_factor: float) -> np.ndarray:
    """``apply_dl`` in place on the float64 array ``r``, which it returns."""
    if dl_factor < 0:
        raise ValueError("diagonal loading factor must be >= 0")
    load = dl_factor * np.trace(r, axis1=-2, axis2=-1)
    diagonal = np.einsum("...ii->...i", r)
    diagonal += np.asarray(load)[..., None]
    return r


def loaded_covariance(
    snapshots: np.ndarray, dl_factor: float, xt: np.ndarray | None = None
) -> np.ndarray:
    """Diagonally loaded covariance of each pixel of a tile: snapshot rows
    X^T (P, N, L) to R = (1/N) X X^T plus dl_factor * trace(R) on the
    diagonal, shape (P, L, L). It averages over all N subarray x temporal
    columns; the MSMV penalty reads only their 2K+1 per-offset sums
    (``beamformers.offset_sums``). ``xt`` is the contiguous transpose of
    ``snapshots`` if the caller holds it. R is left symmetric only up to
    roundoff, as the solver reads its lower triangle alone.
    """
    if xt is None:
        xt = np.ascontiguousarray(np.swapaxes(snapshots, -1, -2))
    r = np.matmul(xt, snapshots)
    r /= snapshots.shape[-2]
    return _load_diagonal(r, dl_factor)
