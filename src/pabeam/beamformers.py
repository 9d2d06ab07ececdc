"""Weight computations: DAS, MV, sparse-Capon (SC) and the sparse-regularized
MV update (MSMV), plus the subarray-averaged beamformed output.

All arithmetic is real: the steering vector is all-ones (channels are
pre-delayed) and RF samples are real, so conjugate transposes reduce to plain
transposes. ``capon_weights``, ``msmv_weights`` and ``beamform_outputs`` work
on a tile of pixels (a leading pixel axis) and form the images; ``mv_weight``,
``msmv_weight``, ``sc_weight`` and ``msmv_objective`` state the one-pixel
definitions the tiles are checked against.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .delays import SnapshotMatrix
from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite
from .numerics import _spd_solve_in_place, check_symmetric, spd_solve_stack


class Method(str, Enum):
    DAS = "das"
    MV = "mv"
    MSMV = "msmv"


@dataclass(frozen=True)
class WeightVector:
    values: np.ndarray
    iterations_run: int = 0


# Clamp floor of the reweighting, relative to a pixel's largest snapshot
# output magnitude: keeps the p-2 = -1 exponent defined at sparse solutions.
EPSILON_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class MsmvConfig:
    """The two settings of the MSMV iteration (``msmv_weights``): the penalty
    weight ``beta`` and the number of reweighted steps ``n_iter``, which are
    all taken, as the iteration has no convergence test."""

    beta: float = 1.0
    n_iter: int = 10

    def __post_init__(self):
        if not 0 <= self.beta < np.inf:
            raise ConfigError("msmv.beta: must be finite and >= 0")
        if self.n_iter < 0:
            raise ConfigError("msmv.n_iter: must be >= 0")


def das_weight(L: int) -> WeightVector:
    """Uniform 1/L weights (unit sum, comparable gain to the adaptive methods)."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return WeightVector(values=np.full(L, 1.0 / L))


def das_taps(M: int, L: int) -> np.ndarray:
    """The DAS output as one taper on the M centre-time samples.

    The subarray-averaged output of the uniform 1/L weight puts on element m
    the number of length-L subarrays that contain it over L (M-L+1), that is
    c_m = min(m+1, L, M-L+1, M-m) / (L (M-L+1)): a trapezoid that sums to 1.
    """
    if not 1 <= L <= M:
        raise ValueError(f"L={L} outside [1, {M}]")
    n_sub = M - L + 1
    m = np.arange(M)
    return np.minimum(np.minimum(m + 1, M - m), min(L, n_sub)) / (L * n_sub)


def capon_weights(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w = A^-1 1 / (1^T A^-1 1) for a stack of matrices (P, L, L), without
    forming an explicit inverse. Returns (w, ok) as ``spd_solve_stack``."""
    x, ok = spd_solve_stack(a, np.ones(a.shape[-1]))
    return x / x.sum(axis=-1, keepdims=True), ok


def _capon_solve(a_mat: np.ndarray) -> np.ndarray:
    """One-matrix case of ``capon_weights``; raises NotPositiveDefinite."""
    w, ok = capon_weights(check_symmetric(a_mat)[None])
    if not ok[0]:
        raise NotPositiveDefinite("matrix is not positive definite")
    return w[0]


def mv_weight(r_loaded: np.ndarray) -> WeightVector:
    """Minimum-variance (Capon) weights for an all-ones steering vector.

    Raises:
        NotPositiveDefinite: covariance was not loaded to positive definiteness;
            callers fall back to DAS for that pixel.
    """
    return WeightVector(values=_capon_solve(r_loaded))


def sc_weight(
    r_loaded: np.ndarray, alpha: float, n_iter: int, n_steer: int = 4
) -> WeightVector:
    """Sparse-Capon fixed-point iteration with an all-ones constraint matrix.

    With the steering vector all-ones, the penalty term collapses to a
    constant rank-one loading and the fixed point coincides with the MV
    weight; this routine exists to verify that equivalence executably.
    ``n_steer`` is the number of (identical) steering columns; the result is
    independent of it.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    L = r_loaded.shape[0]
    w = _capon_solve(r_loaded)
    if alpha == 0.0:
        return WeightVector(values=w)
    ones_mat = np.ones((L, L))
    it = 0
    for it in range(1, n_iter + 1):
        # C D(w) C^T with C = ones(L, n_steer) and D = |sum(w)|^-1 I
        s = abs(w.sum())
        d_term = alpha * n_steer / s * ones_mat
        w = _capon_solve(r_loaded + d_term)
    return WeightVector(values=w, iterations_run=it)


def _reweight(x: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
    """beta over the output magnitudes |x w|, clamped below at
    EPSILON_FLOOR_REL times the pixel's largest, for snapshot rows x (P, N, L)
    and weights w (P, L); a pixel whose outputs are all zero keeps all zeros,
    which drops its penalty term and reduces the step to MV."""
    y = np.matmul(x, w[..., None])[..., 0]
    np.abs(y, out=y)
    peak = y.max(axis=-1, keepdims=True, initial=0.0)
    np.maximum(y, EPSILON_FLOOR_REL * peak, out=y)
    np.divide(beta, y, out=y, where=peak > 0.0)
    return y


def msmv_weights(
    r_loaded: np.ndarray,
    x: np.ndarray,
    cfg: MsmvConfig,
    *,
    start: tuple[np.ndarray, np.ndarray] | None = None,
    xt: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse-regularized MV weights for every pixel of a tile.

    ``r_loaded`` (P, L, L) are the loaded covariances and ``x`` (P, N, L) the
    snapshot rows, all N of which are penalized. The whole tile takes all
    ``cfg.n_iter`` steps, each descending w^T R w + 2 beta ||x w||_1
    (``msmv_objective`` at 2 beta): a step Capon-solves r_loaded +
    x^T Lambda x, with Lambda = beta / max(|x w|, eps * peak) of the last
    iterate (``_reweight``). A pixel keeps its last iterate where the step's
    matrix is not positive definite, so every later step rebuilds the same
    matrix and fails again, and its NaN weights where MV failed.

    ``start`` is the MV solve ``capon_weights(r_loaded)`` when the caller has
    made it already; its weights are updated in place. ``xt`` is x^T (P, L, N)
    when the caller holds it, e.g. the one its covariance was formed from.
    ``out`` holds each step's reweighted x^T in its leading pixels if given.

    Returns:
        (w, ok, iterations): weights (P, L), the mask of pixels whose MV
        solve succeeded (w is NaN elsewhere), and steps taken per pixel.
    """
    w, ok = capon_weights(r_loaded) if start is None else start
    iterations = np.zeros(len(w), dtype=np.int64)
    if cfg.beta == 0.0 or cfg.n_iter == 0 or not ok.any():
        return w, ok, iterations
    if xt is None:
        xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    scaled = np.empty(xt.shape) if out is None else out[:len(xt)]
    for k in range(1, cfg.n_iter + 1):
        lam = _reweight(x, w, cfg.beta)
        a = np.matmul(np.multiply(xt, lam[:, None, :], out=scaled), x)
        a += r_loaded
        # the Capon solve of capon_weights, factoring a in place
        x_next, solved = _spd_solve_in_place(a, np.ones(a.shape[-1]))
        # reweighting saturated the conditioning (deep nulls): keep the last
        # valid iterate rather than discarding the pixel
        solved &= ok
        w[solved] = (x_next / x_next.sum(axis=-1, keepdims=True))[solved]
        iterations[solved] = k
    return w, ok, iterations


def msmv_weight(
    r_loaded: np.ndarray, snapshots: SnapshotMatrix, cfg: MsmvConfig = MsmvConfig()
) -> WeightVector:
    """The one-pixel case of ``msmv_weights``.

    Raises:
        DimensionMismatch: the snapshots' rows do not match the covariance.
        NotPositiveDefinite: the MV starting solve failed.
    """
    x = snapshots.columns
    if x.shape[0] != r_loaded.shape[0]:
        raise DimensionMismatch(
            f"snapshot rows {x.shape[0]} != covariance dim {r_loaded.shape[0]}"
        )
    # the kernel's C-contiguous snapshot rows: matmul bits depend on layout
    rows = np.ascontiguousarray(x.T)[None]
    w, ok, iterations = msmv_weights(check_symmetric(r_loaded)[None], rows, cfg)
    if not ok[0]:
        raise NotPositiveDefinite("matrix is not positive definite")
    return WeightVector(values=w[0], iterations_run=int(iterations[0]))


def msmv_objective(
    r: np.ndarray, snapshots: SnapshotMatrix, w: np.ndarray, beta: float
) -> float:
    """w^T R w + beta * ||X^T w||_1, which the update run at penalty beta / 2 descends."""
    x = snapshots.columns
    return float(w @ r @ w + beta * np.sum(np.abs(x.T @ w)))


def beamform_outputs(center: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Subarray-averaged output of each pixel of a tile: the mean of w^T X_l
    over the center-time snapshot rows ``center`` (P, M-L+1, L), for weights
    w of shape (P, L). The other temporal offsets feed only the covariance
    and the sparsity penalty."""
    return np.matmul(center, w[..., None])[..., 0].mean(axis=-1)

