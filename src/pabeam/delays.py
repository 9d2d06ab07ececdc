"""Per-focal-point delays and snapshot extraction.

Delays are one-way (photoacoustic) times of flight expressed in fractional
sample indices; reads at fractional indices use linear interpolation and
out-of-record reads return 0 so edge pixels still reconstruct.

The gather and the snapshot build work on a tile of focal points sharing one
depth; the single-point functions are the one-point case of the same code.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidSubarrayLength
from .phantom import ArrayGeometry, RfFrame


@dataclass(frozen=True)
class FocalPoint:
    x: float  # m
    z: float  # m, depth > 0

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError("focal point depth must be positive")


@dataclass(frozen=True)
class SnapshotMatrix:
    """Delayed subarray snapshots for one focal point.

    Columns are ordered temporal-major: for each temporal offset
    n = -K..K (in order), all subarrays l = 0..M-L in order.
    """

    columns: np.ndarray  # (L, (2K+1)(M-L+1))
    subarray_len: int
    n_subarrays: int
    temporal_half_window: int

    @property
    def center_columns(self) -> np.ndarray:
        """The temporal-offset-0 block, used for the beamformed output."""
        k = self.temporal_half_window
        return self.columns[:, k * self.n_subarrays:(k + 1) * self.n_subarrays]


def _delays(geometry: ArrayGeometry, x, z) -> np.ndarray:
    """One-way delay of each element to (x, z), in fractional samples; ``x``
    broadcasts against the element axis, which is last."""
    d = np.hypot(geometry.element_x - x, z)
    return d / geometry.sound_speed * geometry.sampling_rate


def gather_delayed(
    frame: RfFrame, xs: np.ndarray, z: float, offsets: np.ndarray
) -> np.ndarray:
    """Delayed channel data for the focal points (xs[i], z), read at each
    temporal offset in samples. Shape (P, len(offsets), M).

    Each channel is read at its fractional index t by linear interpolation
    between flat ``take``s of samples floor(t) and floor(t) + 1 from a view of
    the record; reads outside [0, T-1] are 0 (clipped and masked only then).
    """
    n_t = frame.samples.shape[1]
    tau = _delays(frame.geometry, np.asarray(xs)[:, None, None], z)
    tau = tau + np.asarray(offsets)[:, None]
    k = np.floor(tau).astype(np.int64)
    frac = tau - k
    flat, row = frame.samples.reshape(-1), np.arange(len(frame.samples)) * n_t
    if k.size and k.min() >= 0 and k.max() <= n_t - 2:
        return (1.0 - frac) * flat.take(k + row) + frac * flat.take(k + (row + 1))
    lo = np.where((k >= 0) & (k < n_t), flat.take(np.clip(k, 0, n_t - 1) + row), 0.0)
    k += 1
    hi = np.where((k >= 0) & (k < n_t), flat.take(np.clip(k, 0, n_t - 1) + row), 0.0)
    return (1.0 - frac) * lo + frac * hi


def subarray_snapshots(delayed: np.ndarray, L: int) -> np.ndarray:
    """Length-L subarray windows of gathered data (P, O, M), offset-major:
    shape (P, O(M-L+1), L), row n of pixel p being snapshot column n.

    With a single offset this is a view; otherwise the windows are copied.
    """
    p = delayed.shape[0]
    return sliding_window_view(delayed, L, axis=-1).reshape(p, -1, L)


def build_snapshots(frame: RfFrame, p: FocalPoint, L: int, K: int) -> SnapshotMatrix:
    """Builds the L x (2K+1)(M-L+1) snapshot matrix for one focal point.

    For each temporal offset n in -K..K the delayed vector is sliced into the
    M-L+1 overlapping length-L subarrays.

    Raises:
        InvalidSubarrayLength: L outside [1, M].
    """
    m = frame.geometry.n_elements
    if not 1 <= L <= m:
        raise InvalidSubarrayLength(f"subarray length {L} outside [1, {m}]")
    if K < 0:
        raise ValueError("temporal half window K must be >= 0")
    delayed = gather_delayed(frame, np.array([p.x]), p.z, np.arange(-K, K + 1))
    return SnapshotMatrix(
        columns=subarray_snapshots(delayed, L)[0].T,
        subarray_len=L,
        n_subarrays=m - L + 1,
        temporal_half_window=K,
    )
