"""Per-focal-point delays and snapshot extraction.

Delays are one-way (photoacoustic) times of flight expressed in fractional
sample indices; reads at fractional indices use linear interpolation and
out-of-record reads return 0 so edge pixels still reconstruct.

The gather and the snapshot build work on a tile of focal points sharing one
depth; a single point is a tile of one. What does not depend on depth is
built once per image, in a ``GatherPlan``: the lateral term (element_x - x)^2
of every column and element, each channel's index in the guarded record, the
record and its one-sample shift, and the offsets in float64. The plan is
read-only: each row does its own depth's work (``gather_span``), the delay,
the offsets and the interpolated read, in the ``gather_buffers`` that each
process gathering rows makes. ``gather_delayed`` is the one-row case.
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
    broadcasts against the element axis, which is last. The definition that
    ``gather_span`` forms from a plan's lateral term, bit for bit.

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


class GatherPlan:
    """The depth-free part of the gather for the columns ``xs`` of an image
    row read at the temporal ``offsets`` (samples), built once per image so
    that each row does only its own depth's work (see ``gather_span``).

    It holds the lateral term (element_x - x)^2 of every column and element,
    (len(xs), M) float64 values, the record index m (T + 4) + 2 of each
    channel's sample 0, the frame's guarded record and its view shifted by
    one sample, and the offsets as float64. No gather writes to it, so forked
    workers share it as it is. The record is the frame's own (a view), so
    the plan copies no samples.
    """

    def __init__(self, frame: RfFrame, xs: np.ndarray, offsets: np.ndarray):
        geometry = frame.geometry
        lateral = geometry.element_x - np.asarray(xs, dtype=np.float64)[:, None]
        lateral *= lateral
        self.lateral = lateral
        self.n_samples = frame.n_samples
        # sample t of row m sits at m (T + 4) + t + 2 of the guarded record
        self.base = np.arange(geometry.n_elements) * (self.n_samples + 4) + 2
        self.record, self.shifted = frame.guarded, frame.guarded[1:]
        # float64, as a sum with int offsets runs slower
        self.offsets = np.asarray(offsets, dtype=np.float64)
        self.sound_speed = geometry.sound_speed
        self.sampling_rate = geometry.sampling_rate


def gather_buffers(plan: GatherPlan, pixels: int) -> tuple:
    """Uninitialized delays (None for a lone offset 0), read indices and the
    two samples around each read of a gather of up to ``pixels`` columns,
    each (pixels, len(plan.offsets), M)."""
    shape = (pixels, len(plan.offsets), len(plan.base))
    tau = np.empty(shape) if len(plan.offsets) > 1 or plan.offsets.any() else None
    return tau, np.empty(shape, np.int64), np.empty(shape), np.empty(shape)


def gather_span(plan: GatherPlan, start: int, stop: int, z: float, out: tuple) -> np.ndarray:
    """Delayed channel data for the plan's columns start..stop-1 at depth
    ``z``: shape (P, len(plan.offsets), M), written into ``out``, the
    ``gather_buffers`` of at least P pixels, and valid until its next gather.

    The delay is ``_delays``' sqrt(lateral + z^2) / c * fs, the same
    operations in the same order, formed in place, and each offset is
    added into its own (P, M) slab (skipped for a lone offset 0). Each
    channel is then read at its fractional index t by linear
    interpolation between flat ``take``s of samples floor(t) and
    floor(t) + 1 from the guarded record, so nothing is copied or padded
    per call. The floor is clipped to [-2, T], so every read outside
    [0, T-1] lands on a guard zero and reads as 0.
    """
    delay = plan.lateral[start:stop] + z * z
    np.sqrt(delay, out=delay)
    delay /= plan.sound_speed
    delay *= plan.sampling_rate
    p = len(delay)
    tau, index, lo, hi = out
    if tau is None:
        tau = delay[:, None, :]
    else:
        # contiguous slabs: a strided delay would take the slow ufunc loops
        tau = tau[:p]
        for i, offset in enumerate(plan.offsets):
            np.add(delay, offset, out=tau[:, i])
    k = np.floor(tau, out=lo[:p])
    frac = np.subtract(tau, k, out=tau)
    np.clip(k, -2, plan.n_samples, out=k)
    index = index[:p]
    index[...] = k
    index += plan.base
    # in range by the clip; "raise" would copy into ``out`` through a buffer
    lo = plan.record.take(index, out=lo[:p], mode="clip")
    hi = plan.shifted.take(index, out=hi[:p], mode="clip")
    # (1 - frac) * lo + frac * hi, in place and in that order of operations
    hi *= frac
    np.subtract(1.0, frac, out=frac)
    lo *= frac
    lo += hi
    return lo


def gather_delayed(
    frame: RfFrame, xs: np.ndarray, z: float, offsets: np.ndarray
) -> np.ndarray:
    """Delayed channel data for the focal points (xs[i], z), read at each
    temporal offset in samples: shape (P, len(offsets), M). The one-row case
    of ``gather_span``, which documents the read, in arrays of its own.
    """
    xs = np.asarray(xs)
    plan = GatherPlan(frame, xs, offsets)
    return gather_span(plan, 0, len(xs), z, gather_buffers(plan, len(xs)))


def subarray_snapshots(delayed: np.ndarray, L: int, out=None) -> np.ndarray:
    """Length-L subarray windows of gathered data (P, O, M), offset-major:
    shape (P, O(M-L+1), L), row n of pixel p being snapshot column n.

    One read-only strided view of ``delayed`` is copied into ``out[:P]`` if
    ``out`` (C-contiguous float64) is given, else into a new C-ordered array.
    """
    p, o, m = delayed.shape
    n = m - L + 1
    out = np.empty((p, o * n, L)) if out is None else out[:p]
    out.reshape(p, o, n, L)[...] = as_strided(
        delayed, (p, o, n, L), (*delayed.strides, delayed.strides[-1]), writeable=False
    )
    return out
