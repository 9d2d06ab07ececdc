"""Image formation: the tiled reconstruction kernel, envelope detection and
log compression."""

import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import hilbert

from .beamformers import (
    Method,
    MsmvConfig,
    beamform_outputs,
    capon_weights,
    das_taps,
    msmv_weights,
)
from .covariance import default_dl_factor, loaded_covariance
from .delays import gather_delayed, subarray_snapshots
from .errors import ConfigError
from .phantom import RfFrame

# Largest size of one tile's snapshot tensor. Tiles this small are as fast
# per pixel as whole rows (MSMV faster: the tile stays in cache) and keep the
# kernel's working set small and independent of the grid; at 512 KiB the
# process's peak memory already rose by 2 MiB over a per-pixel loop.
TILE_BYTES = 3 << 17


@dataclass(frozen=True)
class ImageGrid:
    x_min: float
    x_max: float
    z_min: float
    z_max: float
    nx: int
    nz: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.z_min < self.z_max):
            raise ConfigError("grid bounds must satisfy x_min < x_max, z_min < z_max")
        if self.nx < 1 or self.nz < 1:
            raise ConfigError("grid.nx and grid.nz must be >= 1")

    @property
    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def z_coords(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.nz)

    def spans_depth(self, z: float) -> bool:
        zs = self.z_coords
        return bool(zs[0] <= z <= zs[-1])


@dataclass(frozen=True)
class PaImage:
    """Reconstructed image: raw beamformed plane plus the views ``finalize`` adds.

    Planes are (nz, nx), depth down the rows.
    """

    grid: ImageGrid
    beamformed: np.ndarray
    method: Method
    fallback_pixel_count: int = 0
    envelope: np.ndarray | None = None  # normalized to unit max
    db: np.ndarray | None = None
    dynamic_range_db: float | None = None


def kernel_settings(
    n_elements: int, L: int | None, K: int | None, dl_factor: float | None,
    workers: int | None,
) -> tuple[int, int, float, int]:
    """``(L, K, dl_factor, workers)`` with each None filled in by its
    default, M/2, 2, 1/(100 L) and 1, once all four pass their range checks.

    Raises:
        ConfigError: naming the config key of the first setting out of range.
    """
    if L is None:
        L = n_elements // 2
    if not 1 <= L <= n_elements:
        raise ConfigError(f"L: {L} outside [1, {n_elements}]")
    K = 2 if K is None else K
    if K < 0:
        raise ConfigError("K: must be >= 0")
    if dl_factor is None:
        dl_factor = default_dl_factor(L)
    if not 0 <= dl_factor < np.inf:
        raise ConfigError("dl: must be finite and >= 0")
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ConfigError("workers: must be >= 1")
    return L, K, float(dl_factor), workers


def dynamic_range(dynamic_range_db: float | None = None) -> float:
    """``dynamic_range_db``, 50 dB if None; a ConfigError unless finite and > 0."""
    dr = 50.0 if dynamic_range_db is None else dynamic_range_db
    if not 0 < dr < np.inf:
        raise ConfigError("dynamic_range_db: must be finite and > 0")
    return float(dr)


def tile_pixels(method: Method, n_elements: int, L: int, K: int) -> int:
    """Pixels per tile: as many as keep the tile's data within TILE_BYTES.

    For MV and MSMV that is the snapshot tensor (pixels x (2K+1)(M-L+1)
    snapshot columns x L float64 values): 9 px at M=64, L=32, K=2. DAS needs
    no snapshots, only the gathered centre-time samples (pixels x M float64
    values): 768 px at M=64, so a DAS row of that size or less is one tile.
    """
    if method is Method.DAS:
        return max(1, TILE_BYTES // (n_elements * 8))
    return max(1, TILE_BYTES // ((2 * K + 1) * (n_elements - L + 1) * L * 8))


def _beamform_tile(
    frame: RfFrame,
    xs: np.ndarray,
    z: float,
    methods: tuple[Method, ...],
    L: int,
    K: int,
    dl_factor: float,
    msmv: MsmvConfig,
    taps: np.ndarray,
) -> np.ndarray:
    """The block (len(methods) + 1, P) of the pixels (xs, z): a row per
    method, in order, then 1 where the adaptive weights fell back to DAS.

    One gather feeds every method. DAS is the taper ``taps`` on the
    centre-time samples, summed by ``einsum``, whose bits do not depend on
    the tile size; alone it gathers only those. MV and MSMV gather every
    temporal offset, and each pixel's covariance is estimated, loaded and
    Capon-solved once: MV outputs that weight and MSMV iterates from it.
    """
    if all(m is Method.DAS for m in methods):
        das = np.einsum("pm,m->p", gather_delayed(frame, xs, z)[:, 0], taps)
        return np.stack([das] * len(methods) + [np.zeros_like(das)])
    gathered = gather_delayed(frame, xs, z, np.arange(-K, K + 1))
    das = np.einsum("pm,m->p", gathered[:, K], taps)
    snaps = subarray_snapshots(gathered, L)
    xt = np.ascontiguousarray(np.swapaxes(snaps, -1, -2))
    r_loaded = loaded_covariance(snaps, dl_factor, xt)
    w, ok = capon_weights(r_loaded)
    n_sub = frame.geometry.n_elements - L + 1
    center = snaps[:, K * n_sub:(K + 1) * n_sub]
    values = {Method.DAS: das}
    if Method.MV in methods:
        values[Method.MV] = np.where(ok, beamform_outputs(center, w), das)
    if Method.MSMV in methods:
        w, _, _ = msmv_weights(r_loaded, snaps, msmv, start=(w.copy(), ok), xt=xt)
        values[Method.MSMV] = np.where(ok, beamform_outputs(center, w), das)
    return np.stack([values[m] for m in methods] + [~ok])


def _beamform_rows(
    rows: range,
    *,
    frame: RfFrame,
    xs: np.ndarray,
    zs: np.ndarray,
    methods: tuple[Method, ...],
    size: int,
    **tile_settings,
) -> np.ndarray:
    """The block (len(methods) + 1, row, column) of the image rows ``rows``,
    beamformed tile by tile of ``size`` pixels; row j holds image row
    rows[j]. ``tile_settings`` are the rest of ``_beamform_tile``'s
    arguments, whose block layout this keeps.
    """
    block = np.zeros((len(methods) + 1, len(rows), len(xs)))
    for j, iz in enumerate(rows):
        for i in range(0, len(xs), size):
            block[:, j, i:i + size] = _beamform_tile(
                frame, xs[i:i + size], zs[iz], methods, **tile_settings
            )
    return block


# The keyword arguments of _beamform_rows in a worker process, filled in once
# per worker by the pool's initializer; the fork hands them over unpickled.
# The calling process leaves it empty.
_worker_kernel: dict = {}


def _worker_rows(rows: range) -> np.ndarray:
    """``_beamform_rows`` in a worker process."""
    return _beamform_rows(rows, **_worker_kernel)


def reconstruct_methods(
    frame: RfFrame,
    grid: ImageGrid,
    methods: tuple[Method, ...],
    L: int | None = None,
    K: int | None = None,
    dl_factor: float | None = None,
    msmv: MsmvConfig = MsmvConfig(),
    workers: int | None = None,
) -> tuple[PaImage, ...]:
    """Beamformed planes for several of DAS, MV and MSMV from one pass.

    Every pixel runs snapshots -> covariance -> diagonal loading -> weights ->
    subarray-averaged output. Pixels are processed as tiles: runs of up to
    ``tile_pixels`` pixels of one image row, each tile one batched pass
    through every stage, whose single gather feeds every method: DAS is the
    fixed taper ``das_taps`` on the centre-time samples, MV the Capon weight
    and MSMV the reweighted iteration started from that same MV solve. A
    DAS-only run gathers just the centre time, in tiles of whole rows; any
    adaptive method makes every tile the MV/MSMV size. A pixel whose loaded
    covariance still fails the positive-definiteness check (an identically
    zero neighborhood) falls back to the DAS value and is counted in the MV
    and MSMV images' fallback_pixel_count; the image is never aborted. A
    setting left None takes its default (see ``kernel_settings``).

    The tile partition depends only on the grid, the array, L, K and whether
    an adaptive method is asked for, and DAS's taper sum not even on that, so
    every plane is bit-identical for any ``workers`` and to its one-method
    run. One worker runs in this process. More split the rows into
    ``workers`` blocks for forked processes, at most one per CPU this process
    may use (the tiles' solves hold the interpreter lock, so threads do not
    run them in parallel). They inherit the frame and settings through the
    fork, so ``fork`` must be a start method of the platform (Linux) and the
    calling process should run no other threads. Each block returns its rows
    of the kernel's block; all workers have exited when this returns or raises.

    Returns:
        One image per entry of ``methods``, in order.

    Raises:
        ConfigError: a setting out of range (see ``kernel_settings``), or a
            method that is not one of das, mv and msmv.
    """
    try:
        methods = tuple(Method(m) for m in methods)
    except ValueError as exc:
        raise ConfigError(
            f"method: {exc}; use one of " + ", ".join(m.value for m in Method)
        ) from exc
    if not methods:
        raise ConfigError("no method to reconstruct")
    m = frame.geometry.n_elements
    L, K, dl_factor, workers = kernel_settings(m, L, K, dl_factor, workers)

    kernel = dict(
        frame=frame, xs=grid.x_coords, zs=grid.z_coords, methods=methods,
        size=min(tile_pixels(method, m, L, K) for method in methods),
        L=L, K=K, dl_factor=dl_factor, msmv=msmv, taps=das_taps(m, L),
    )
    if workers == 1:
        block = _beamform_rows(range(grid.nz), **kernel)
    else:
        # Imported here: loading the process pool costs 17-20 ms, which a
        # one-worker run need not pay.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # one block of rows per worker: blocks of 8 rows or of one row ran
        # no faster
        step = -(-grid.nz // workers)
        blocks = [range(i, min(i + step, grid.nz)) for i in range(0, grid.nz, step)]
        with ProcessPoolExecutor(
            max_workers=min(len(blocks), len(os.sched_getaffinity(0))),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_kernel.update,
            initargs=(kernel,),
        ) as pool:
            block = np.concatenate(list(pool.map(_worker_rows, blocks)), axis=1)

    *planes, fallback = block
    n_fallback = int(fallback.sum())
    return tuple(
        PaImage(
            grid=grid,
            beamformed=plane,
            method=method,
            fallback_pixel_count=0 if method is Method.DAS else n_fallback,
        )
        for method, plane in zip(methods, planes)
    )


def reconstruct(frame: RfFrame, grid: ImageGrid, method: Method, **settings) -> PaImage:
    """Beamformed plane for one of DAS, MV and MSMV: the one-method case of
    ``reconstruct_methods``, which documents the kernel and takes
    ``settings`` (L, K, dl_factor, msmv, workers) by keyword.

    Raises:
        ConfigError: as ``reconstruct_methods``.
    """
    return reconstruct_methods(frame, grid, (method,), **settings)[0]


def envelope_detect(beamformed: np.ndarray) -> np.ndarray:
    """Magnitude of the analytic signal along depth, column by column.

    The analytic signal is formed in the frequency domain: negative
    frequencies zeroed, positive doubled, DC and Nyquist kept singly.
    """
    return np.abs(hilbert(np.asarray(beamformed, dtype=np.float64), axis=0))


def log_compress(envelope: np.ndarray, dynamic_range_db: float) -> np.ndarray:
    """Normalize to unit max and map to dB, clamped to [-dynamic_range, 0]."""
    dynamic_range_db = dynamic_range(dynamic_range_db)
    envelope = np.asarray(envelope, dtype=np.float64)
    peak = envelope.max(initial=0.0)
    if peak == 0.0:
        return np.full_like(envelope, -dynamic_range_db)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(envelope / peak)
    return np.maximum(db, -dynamic_range_db)


def finalize(image: PaImage, dynamic_range_db: float | None = None) -> PaImage:
    """Fills in the normalized envelope and log-compressed planes over
    ``dynamic_range_db`` (see ``dynamic_range`` for its default)."""
    dynamic_range_db = dynamic_range(dynamic_range_db)
    env = envelope_detect(image.beamformed)
    peak = env.max(initial=0.0)
    env = env / peak if peak > 0.0 else env
    return replace(
        image,
        envelope=env,
        db=log_compress(env, dynamic_range_db),
        dynamic_range_db=dynamic_range_db,
    )
