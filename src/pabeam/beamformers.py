"""Weight computations: DAS, MV, sparse-Capon (SC) and the sparse-regularized
MV update (MSMV), plus the subarray-averaged beamformed output.

The sums over the subarrays of a pixel's snapshot rows at each of the 2K+1
temporal offsets (``offset_sums``, S) carry both of its outputs. The image
value of weights w is the subarray-averaged output, the centre row of S
dotted with w over M-L+1 (``averaged_outputs``), and MSMV penalizes the l1
norm of S w, the subarray sums of the outputs at every offset. Its
reweighted steps are taken in that (2K+1)-dimensional output space: each
pixel's R is factored once, in MV's solve, which also gives R^-1 S^T
(``msmv_start``), and each step factors a (2K+1) x (2K+1) matrix, not an
L x L one.

All arithmetic is real: the steering vector is all-ones (channels are
pre-delayed) and RF samples are real, so conjugate transposes reduce to plain
transposes. ``capon_weights``, ``offset_sums``, ``msmv_start``,
``msmv_steps``, ``msmv_step_weights``, ``msmv_weights``,
``averaged_outputs`` and ``beamform_outputs`` work on a stack of pixels (a
leading pixel axis) and form the images; ``mv_weight``, ``msmv_weight``,
``sc_weight`` and ``msmv_objective`` state the one-pixel definitions the
tiles are checked against.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .delays import SnapshotMatrix
from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite
from .numerics import _spd_solve_both_in_place, check_symmetric, spd_solve_stack


class Method(str, Enum):
    DAS = "das"
    MV = "mv"
    MSMV = "msmv"


@dataclass(frozen=True)
class WeightVector:
    values: np.ndarray
    iterations_run: int = 0


@dataclass(frozen=True)
class MsmvConfig:
    """The two settings of the MSMV iteration (``msmv_weights``): the penalty
    weight ``beta`` on the subarray sums of the outputs at each temporal
    offset, so beta on the subarray-averaged output is beta (M-L+1), and the
    number of reweighted steps ``n_iter``, which are all taken, as the
    iteration has no convergence test."""

    beta: float = 1.0
    n_iter: int = 10

    def __post_init__(self):
        if not 0 <= self.beta < np.inf:
            raise ConfigError("msmv.beta: must be finite and >= 0")
        if self.n_iter < 0:
            raise ConfigError("msmv.n_iter: must be >= 0")

    @property
    def iterates(self) -> bool:
        """Whether a step is taken: with beta 0 or no steps, MSMV is MV."""
        return self.beta > 0.0 and self.n_iter > 0


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


def offset_sums(x: np.ndarray, n_offsets: int) -> np.ndarray:
    """S (P, n_offsets, L): the sum of a tile's offset-major snapshot rows
    x (P, N, L) over the subarrays at each temporal offset, so that S w holds
    the subarray sums of the outputs of weights w, the ones MSMV penalizes.

    One ``matmul`` of a ones vector with each offset's block of rows, so a
    row of S has the same bits whether its block is summed with the other
    offsets' or alone (the kernel's MV-only centre sums)."""
    p, n, L = x.shape
    n_sub = n // n_offsets
    blocks = x.reshape(p * n_offsets, n_sub, L)
    return np.matmul(np.ones(n_sub), blocks).reshape(p, n_offsets, L)


class MsmvStart(NamedTuple):
    """Where the MSMV steps of a stack of P pixels start, all from one
    ``dposv`` per pixel on R [u V] = [1 S^T] (``msmv_start``): ``x``
    (P, 2K+2, L) holds MV's weights w0 = u / 1^T u in row 0 and V^T in the
    rest; then MV's outputs a = S w0 (P, 2K+1), B = S V (P, 2K+1, 2K+1),
    t = 1^T V (P, 2K+1), the mask ``unit`` (P, 2K+1) of the offsets whose
    sums are all zero, and ``ok`` (P,), the pixels whose solve succeeded
    (the others hold NaN)."""

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    t: np.ndarray
    unit: np.ndarray
    ok: np.ndarray

    @property
    def w0(self) -> np.ndarray:
        return self.x[:, 0]

    @property
    def vt(self) -> np.ndarray:
        return self.x[:, 1:]

    def pixels(self, index) -> "MsmvStart":
        """The arrays of the pixels ``index`` (views for a slice)."""
        return MsmvStart(*[arr[index] for arr in self])


def msmv_buffers(pixels: int, n_offsets: int, L: int) -> MsmvStart:
    """Uninitialized ``MsmvStart`` arrays of up to ``pixels`` pixels."""
    n = n_offsets
    return MsmvStart(np.empty((pixels, n + 1, L)), np.empty((pixels, n)),
                     np.empty((pixels, n, n)), np.empty((pixels, n)),
                     np.empty((pixels, n), dtype=bool), np.empty(pixels, dtype=bool))


def msmv_start(r_loaded: np.ndarray, s: np.ndarray, out: MsmvStart | None = None) -> MsmvStart:
    """The ``MsmvStart`` of the P pixels of the loaded covariances
    ``r_loaded`` (P, L, L), a C-ordered float64 stack that is overwritten
    with its Cholesky factors, and their ``offset_sums`` ``s`` (P, 2K+1, L):
    each R is factored once, for the 2K+2 right-hand sides [1 S^T], which
    are solved in place. Written into the first P pixels of ``out``
    (``msmv_buffers``; new ones if None) and returned."""
    p, n, L = s.shape
    out = (out or msmv_buffers(p, n, L)).pixels(slice(0, p))
    out.x[:, 0], out.x[:, 1:] = 1.0, s
    out.ok[...] = _spd_solve_both_in_place(r_loaded, out.x)
    w0, vt = out.w0, out.vt
    w0 /= w0.sum(axis=-1, keepdims=True)
    np.matmul(s, w0[..., None], out=out.a[..., None])
    np.matmul(s, np.swapaxes(vt, -1, -2), out=out.b)
    vt.sum(axis=-1, out=out.t)
    np.logical_not(s.any(axis=-1), out=out.unit)
    return out


def _gain(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """1 - t^T c of each pixel, (P, 1)."""
    return 1.0 - np.sum(t * c, axis=-1, keepdims=True)


def msmv_steps(start: MsmvStart, cfg: MsmvConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ``cfg.n_iter`` reweighted steps (``msmv_weights``, beta > 0) of
    the pixels of ``start`` whose solve succeeded: (c, iterations), each
    pixel's step coefficients (P, 2K+1) and the steps it took. A pixel whose
    solve failed takes no step, and no step matrix is factored for it."""
    c = np.zeros_like(start.a)
    iterations = np.zeros(len(c), dtype=np.int64)
    if not start.ok.any():
        return c, iterations
    # views when every solve succeeded, else copies of the pixels that did
    live = slice(None) if start.ok.all() else start.ok
    a, b, t, unit = start.a[live], start.b[live], start.t[live], start.unit[live]
    c_live, it_live, y = c[live], iterations[live], a
    for k in range(1, cfg.n_iter + 1):
        step, c_next = b.copy(), a.copy()
        np.einsum("pkk->pk", step)[...] += np.where(unit, 1.0, np.abs(y) / cfg.beta)
        solved = _spd_solve_both_in_place(step, c_next)
        c_live[solved] = c_next[solved]
        it_live[solved] = k
        y = (a - np.matmul(b, c_live[..., None])[..., 0]) / _gain(t, c_live)
    c[live], iterations[live] = c_live, it_live
    return c, iterations


def msmv_step_weights(start: MsmvStart, c: np.ndarray) -> np.ndarray:
    """The weights (w0 - V c) / (1 - t^T c) of step coefficients ``c``."""
    return (start.w0 - np.matmul(c[:, None], start.vt)[:, 0]) / _gain(start.t, c)


def msmv_weights(
    r_loaded: np.ndarray, s: np.ndarray, cfg: MsmvConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse-regularized MV weights for every pixel of a tile.

    ``r_loaded`` (P, L, L) are the loaded covariances and ``s`` (P, 2K+1, L)
    the ``offset_sums``, whose outputs y = S w are penalized. Every pixel
    whose MV solve succeeds takes all ``cfg.n_iter`` steps, each descending
    w^T R w + 2 beta ||S w||_1 (``msmv_objective`` at 2 beta) under
    1^T w = 1. A step's weights are (R + S^T diag(beta / |y|) S)^-1 1
    normalized, for the last outputs y, taken in output space by the
    Woodbury identity: from ``msmv_start`` (w0, V = R^-1 S^T, a = S w0,
    B = S V and t = 1^T V, one factorization of R), a step solves
    (B + diag(|y| / beta)) c = a, starting from y = a, and sets
    y = (a - B c) / (1 - t^T c) (``msmv_steps``); the weights are
    w = (w0 - V c) / (1 - t^T c) (``msmv_step_weights``). Two rules keep
    every step exact. An offset whose sums are all zero has output 0 for
    every w: it gets a unit diagonal entry, so its c is 0. A pixel whose step
    matrix is still not positive definite keeps its previous c, and so its
    outputs, which makes every later step the same. A pixel keeps NaN
    weights where MV failed. With beta 0 or no steps the weights are
    ``capon_weights``'.

    Each pixel's steps depend on that pixel alone, so the steps of several
    tiles taken at once (the kernel takes them per span) have the bits of
    each tile's own.

    Returns:
        (w, ok, iterations): weights (P, L), the mask of pixels whose MV
        solve succeeded (w is NaN elsewhere), and the steps each pixel took.
    """
    if not cfg.iterates:
        w, ok = capon_weights(r_loaded)
        return w, ok, np.zeros(len(w), dtype=np.int64)
    start = msmv_start(np.array(r_loaded, dtype=np.float64, order="C"), s)
    c, iterations = msmv_steps(start, cfg)
    return msmv_step_weights(start, c), start.ok, iterations


def _sums(snapshots: SnapshotMatrix) -> np.ndarray:
    """``offset_sums`` of one pixel's snapshots, (1, 2K+1, L), from the
    kernel's C-contiguous snapshot rows: the sums' bits depend on layout."""
    rows = np.ascontiguousarray(snapshots.columns.T)[None]
    return offset_sums(rows, 2 * snapshots.temporal_half_window + 1)


def msmv_weight(
    r_loaded: np.ndarray, snapshots: SnapshotMatrix, cfg: MsmvConfig = MsmvConfig()
) -> WeightVector:
    """The one-pixel case of ``msmv_weights``.

    Raises:
        DimensionMismatch: the snapshots' rows do not match the covariance.
        NotPositiveDefinite: the MV starting solve failed.
    """
    if snapshots.columns.shape[0] != r_loaded.shape[0]:
        raise DimensionMismatch(
            f"snapshot rows {snapshots.columns.shape[0]} != covariance dim {r_loaded.shape[0]}"
        )
    w, ok, iterations = msmv_weights(check_symmetric(r_loaded)[None], _sums(snapshots), cfg)
    if not ok[0]:
        raise NotPositiveDefinite("matrix is not positive definite")
    return WeightVector(values=w[0], iterations_run=int(iterations[0]))


def msmv_objective(
    r: np.ndarray, snapshots: SnapshotMatrix, w: np.ndarray, beta: float
) -> float:
    """w^T R w + beta * ||S w||_1, S the ``offset_sums`` of the snapshots,
    which the steps at penalty beta / 2 descend."""
    return float(w @ r @ w + beta * np.sum(np.abs(_sums(snapshots)[0] @ w)))


def averaged_outputs(sums: np.ndarray, w: np.ndarray, n_subarrays: int) -> np.ndarray:
    """Subarray-averaged output (sum_l x_l)^T w / (M-L+1) of each pixel of a
    stack, from its centre-offset sums ``sums`` (P, L), the centre row of
    ``offset_sums``, and its weights ``w`` (P, L). A pixel's bits depend on
    neither the stack's length nor its strides."""
    return np.vecdot(sums, w) / n_subarrays


def beamform_outputs(center: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Subarray-averaged output of each pixel of a tile, the mean of w^T x_l
    over its centre-time snapshot rows ``center`` (P, M-L+1, L), for weights
    w of shape (P, L): ``averaged_outputs`` of their ``offset_sums``. The
    other temporal offsets feed only the covariance and the sparsity
    penalty."""
    return averaged_outputs(offset_sums(center, 1)[:, 0], w, center.shape[1])

