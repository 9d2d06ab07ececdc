"""Correctness gates owned by the benchmark.

DAS and MV pixels are recomputed here from the channel data with plain numpy
and scipy (delay gather, subarray snapshots, loaded covariance, Cholesky) and
compared with the library's plane on a seeded sample of pixels. Nothing here
calls pabeam, so the reference survives refactors of the package's internals.

MSMV is checked by properties only: its numerics are expected to change.
"""

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.signal import hilbert

# |library - reference| allowed as a share of the plane's largest magnitude
# when the harness holds the float64 plane.
FLOAT64_RTOL = 1e-12
# A plane read back from a float32 .bin also carries one rounding of each value.
FLOAT32_ROUNDING = 2.0**-24


def delayed_channels(samples, element_x, c, fs, x, z, offset):
    """Channel data read at the one-way delay to (x, z) plus ``offset`` samples,
    linearly interpolated, zero outside the record. Shape (M,)."""
    n_t = samples.shape[1]
    tau = np.hypot(element_x - x, z) / c * fs + offset
    k = np.floor(tau).astype(np.int64)
    frac = tau - k
    rows = np.arange(samples.shape[0])

    def read(idx):
        inside = (idx >= 0) & (idx < n_t)
        return np.where(inside, samples[rows, np.clip(idx, 0, n_t - 1)], 0.0)

    return (1.0 - frac) * read(k) + frac * read(k + 1)


def reference_pixel(samples, element_x, c, fs, x, z, method, L, K, dl_factor):
    """Beamformed value of one pixel for ``method`` in {"das", "mv"}."""
    m = samples.shape[0]
    blocks = []
    for n in range(-K, K + 1):
        d = delayed_channels(samples, element_x, c, fs, x, z, n)
        blocks.append(np.stack([d[i:i + L] for i in range(m - L + 1)], axis=1))
    x_all = np.concatenate(blocks, axis=1)  # (L, (2K+1)(M-L+1))
    center = blocks[K]
    w = np.full(L, 1.0 / L)
    if method == "mv":
        r = x_all @ x_all.T / x_all.shape[1]
        r = 0.5 * (r + r.T)
        r = r + dl_factor * np.trace(r) * np.eye(L)
        try:
            c_low = cholesky(r, lower=True, check_finite=False)
        except LinAlgError:
            pass  # an unloadable neighbourhood falls back to DAS
        else:
            y = solve_triangular(c_low, np.ones(L), lower=True, check_finite=False)
            v = solve_triangular(c_low.T, y, lower=False, check_finite=False)
            w = v / v.sum()
    return float(np.mean(w @ center))


def sample_pixels(nz, nx, seed, n, must=()):
    """``n`` distinct seeded (iz, ix) pixels plus the pixels in ``must``."""
    rng = np.random.default_rng([seed, nz, nx])
    flat = rng.choice(nz * nx, size=min(n, nz * nx), replace=False)
    picked = {(int(i) // nx, int(i) % nx) for i in flat}
    picked.update(must)
    return sorted(picked)


def nearest_pixel(xs, zs, x, z):
    return int(np.argmin(np.abs(zs - z))), int(np.argmin(np.abs(xs - x)))


def check_plane(plane, frame, grid, method, pixels, L, K, dl_factor, float32):
    """Compares ``plane`` with the reference at ``pixels``; returns a list of
    failure messages (empty when every pixel agrees).

    ``frame`` is (samples, element_x, sound_speed, sampling_rate) as given to
    the library; ``grid`` is (xs, zs).
    """
    samples, element_x, c, fs = frame
    xs, zs = grid
    scale = float(np.max(np.abs(plane)))
    if not np.all(np.isfinite(plane)) or scale == 0.0:
        return [f"{method}: plane is not finite or is all zero"]
    failures = []
    for iz, ix in pixels:
        ref = reference_pixel(samples, element_x, c, fs, xs[ix], zs[iz], method, L, K, dl_factor)
        got = float(plane[iz, ix])
        tol = FLOAT64_RTOL * scale + (FLOAT32_ROUNDING * abs(ref) if float32 else 0.0)
        if abs(got - ref) > tol:
            failures.append(
                f"{method} pixel ({iz},{ix}): {got!r} vs reference {ref!r} "
                f"(|diff| {abs(got - ref):.3g} > {tol:.3g})"
            )
    return failures


def check_msmv(plane, grid, targets, fallback_px, report):
    """Property gate for an MSMV plane: finite, no fallback pixels, every
    target scored, and the envelope peak within one pixel of each target."""
    xs, zs = grid
    failures = []
    if not np.all(np.isfinite(plane)):
        return ["msmv: plane is not finite"]
    if fallback_px != 0:
        failures.append(f"msmv: {fallback_px} fallback pixels")
    if report is None or len(report["per_target"]) != len(targets):
        failures.append("msmv: metrics did not compute for every target")
    elif not all(np.isfinite([t["fwhm"], t["peak_sidelobe_db"]]).all()
                 for t in report["per_target"]):
        failures.append("msmv: non-finite target metric")
    # The peak is the lateral one on the target's row, as metrics.fwhm finds
    # it. Axially the adaptive envelopes may split near the array (at 12 mm
    # they peak 0.1-0.2 mm to either side of the target).
    env = np.abs(hilbert(plane, axis=0))
    for x, z in targets:
        iz, ix = nearest_pixel(xs, zs, x, z)
        x0, x1 = max(ix - 5, 0), min(ix + 6, len(xs))
        peak = x0 + int(np.argmax(env[iz, x0:x1]))
        if abs(peak - ix) > 1:
            failures.append(
                f"msmv: lateral peak of target ({x}, {z}) at column {peak}, "
                f"expected {ix} +-1"
            )
    return failures
