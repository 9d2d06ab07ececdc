"""Per-focal-point delays and snapshot extraction.

Delays are one-way (photoacoustic) times of flight expressed in fractional
sample indices; reads at fractional indices use linear interpolation and
out-of-record reads return 0 so edge pixels still reconstruct.

The gather and the snapshot build work on a tile of focal points sharing one
depth; a single point is a tile of one.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .phantom import ArrayGeometry, RfFrame


@dataclass(frozen=True)
class FocalPoint:
    x: float  # m
    z: float  # m, depth > 0

    def __post_init__(self):
        if not (abs(self.x) < np.inf and abs(self.z) < np.inf):
            raise ValueError(f"focal point x and z must be finite, got {self}")
        if self.z <= 0:
            raise ValueError("focal point depth must be positive")


@dataclass(frozen=True)
class SnapshotMatrix:
    """Delayed subarray snapshots for one focal point.

    Columns are ordered temporal-major: for each temporal offset
    n = -K..K (in order), all subarrays l = 0..M-L in order. For pixel p of
    a tile, ``columns`` is ``subarray_snapshots(...)[p].T``.
    """

    columns: np.ndarray  # (L, (2K+1)(M-L+1))
    subarray_len: int
    n_subarrays: int
    temporal_half_window: int


def _delays(geometry: ArrayGeometry, x, z) -> np.ndarray:
    """One-way delay of each element to (x, z), in fractional samples; ``x``
    broadcasts against the element axis, which is last.

    The distance is sqrt(dx^2 + z^2) formed in place: ``np.hypot`` costs
    several times as much per element, and the two delays agree to 4.5e-16
    relative.
    """
    tau = geometry.element_x - x
    tau *= tau
    tau += z * z
    np.sqrt(tau, out=tau)
    tau /= geometry.sound_speed
    tau *= geometry.sampling_rate
    return tau


def gather_delayed(
    frame: RfFrame, xs: np.ndarray, z: float, offsets: np.ndarray
) -> np.ndarray:
    """Delayed channel data for the focal points (xs[i], z), read at each
    temporal offset in samples: shape (P, len(offsets), M).

    Each channel is read at its fractional index t by linear interpolation
    between flat ``take``s of samples floor(t) and floor(t) + 1 from the
    frame's ``guarded`` record, the array its samples live in, so nothing is
    copied or padded per call. The floor is clipped to [-2, T], so every
    read outside [0, T-1] lands on a guard zero and reads as 0.
    """
    n_t = frame.n_samples
    tau = _delays(frame.geometry, np.asarray(xs)[:, None, None], z)
    # offsets in float64 first: a broadcast sum with int offsets runs slower
    tau = tau + np.asarray(offsets, dtype=np.float64)[:, None]
    k = np.floor(tau)
    frac = np.subtract(tau, k, out=tau)
    np.clip(k, -2, n_t, out=k)
    k = k.astype(np.int64)
    # sample t of row m sits at m (T + 4) + t + 2 of the guarded record
    k += np.arange(len(frame.samples)) * (n_t + 4) + 2
    lo = frame.guarded.take(k)
    hi = frame.guarded[1:].take(k)
    # (1 - frac) * lo + frac * hi, in place and in that order of operations
    hi *= frac
    np.subtract(1.0, frac, out=frac)
    lo *= frac
    lo += hi
    return lo


def subarray_snapshots(delayed: np.ndarray, L: int) -> np.ndarray:
    """Length-L subarray windows of gathered data (P, O, M), offset-major:
    shape (P, O(M-L+1), L), row n of pixel p being snapshot column n.

    The windows are one read-only strided view of ``delayed``; with a single
    offset the result is that view, otherwise a copy.
    """
    p, o, m = delayed.shape
    step = delayed.strides[-1]
    windows = as_strided(
        delayed, (p, o, m - L + 1, L), (*delayed.strides, step), writeable=False
    )
    return windows.reshape(p, -1, L)
