"""Image formation: the tiled reconstruction kernel, envelope detection and
log compression."""

import os
from dataclasses import dataclass, replace

import numpy as np

from .beamformers import (
    Method,
    MsmvConfig,
    beamform_outputs,
    capon_weights,
    das_taps,
    msmv_weights,
)
from .covariance import default_dl_factor, loaded_covariance
from .delays import GatherPlan, gather_buffers, gather_span, subarray_snapshots
from .errors import ConfigError
from .phantom import RfFrame

# Largest size of a tile's snapshot tensor, a span's gathered block and an
# envelope block's spectrum: tiles this small are as fast per pixel as whole
# rows (MSMV faster, as the tile stays in cache) and bound the working set.
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
        if not (self.x_max - self.x_min < np.inf and self.z_max - self.z_min < np.inf):
            raise ConfigError("grid bounds and their spans must be finite")
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
    default, M/2 (1 for one element), 2, 1/(100 L) and 1, once all four pass
    their range checks.

    Raises:
        ConfigError: naming the config key of the first setting out of range.
    """
    if L is None:
        L = max(1, n_elements // 2)
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


def tile_pixels(n_elements: int, L: int, K: int) -> int:
    """Pixels per MV and MSMV tile: as many as keep the tile's snapshot
    tensor (pixels x (2K+1)(M-L+1) snapshot columns x L float64 values)
    within TILE_BYTES, and at least one. 9 px at M=64, L=32, K=2. Tiles are
    cut from spans (see ``span_pixels``); DAS takes none.
    """
    return max(1, TILE_BYTES // ((2 * K + 1) * (n_elements - L + 1) * L * 8))


def span_pixels(tile: int, n_offsets: int, n_elements: int) -> int:
    """Pixels per span, the run of an image row gathered at once: as many
    whole tiles of ``tile`` pixels as keep the gathered block (pixels x
    ``n_offsets`` x M float64 values) within TILE_BYTES, and at least one.

    153 px (17 tiles) for MV and MSMV at M=64, L=32, K=2; a DAS-only run,
    which cuts no tiles (``tile`` 1) and gathers one offset, spans 768 px.
    One gather per span, not per tile, saves the gather's per-call cost,
    while the working set stays independent of the grid.
    """
    return tile * max(1, TILE_BYTES // (n_offsets * n_elements * 8 * tile))


def _tile_buffers(pixels: int, n_offsets: int, M: int, L: int) -> tuple:
    """Uninitialized snapshot rows X, X^T and MSMV's reweighted X^T of a tile."""
    n = n_offsets * (M - L + 1)
    return np.empty((pixels, n, L)), np.empty((pixels, L, n)), np.empty((pixels, L, n))


def _beamform_tile(
    gathered: np.ndarray,
    das: np.ndarray,
    methods: tuple[Method, ...],
    L: int,
    dl_factor: float,
    msmv: MsmvConfig,
    out: tuple | None = None,
) -> tuple[dict, np.ndarray]:
    """The MV and MSMV values of the tile whose delayed channel data is
    ``gathered`` (P, 2K+1 offsets -K..K, M), keyed by those of ``methods``
    that are adaptive, and ``ok``, the mask of the pixels whose MV solve
    succeeded. A pixel where it failed takes its DAS value from ``das`` (P).

    Each pixel's covariance is estimated, loaded and Capon-solved once: MV
    outputs that weight and MSMV iterates from it. ``out`` is ``_tile_buffers``
    of at least P pixels, whose leading P the tile fills (new ones if None).
    """
    snap_out, xt_out, scaled_out = out or _tile_buffers(*gathered.shape, L)
    snaps = subarray_snapshots(gathered, L, snap_out)
    xt = xt_out[:len(snaps)]
    xt[...] = np.swapaxes(snaps, -1, -2)
    r_loaded = loaded_covariance(snaps, dl_factor, xt)
    w, ok = capon_weights(r_loaded)
    K, n_sub = gathered.shape[1] // 2, gathered.shape[-1] - L + 1
    center = snaps[:, K * n_sub:(K + 1) * n_sub]
    values = {}
    if Method.MV in methods:
        values[Method.MV] = np.where(ok, beamform_outputs(center, w), das)
    if Method.MSMV in methods:
        w, _, _ = msmv_weights(r_loaded, snaps, msmv, start=(w, ok), xt=xt, out=scaled_out)
        values[Method.MSMV] = np.where(ok, beamform_outputs(center, w), das)
    return values, ok


def _beamform_rows(
    rows: range,
    *,
    plan: GatherPlan,
    zs: np.ndarray,
    methods: tuple[Method, ...],
    span: int,
    tile: int,
    taps: np.ndarray,
    **tile_settings,
) -> tuple[list[np.ndarray], int]:
    """The planes (row, column) of the image rows ``rows``, one per method in
    order, and the number of their pixels whose adaptive weights fell back to
    DAS; row j holds image row rows[j]. Each row is gathered through the
    read-only ``plan``, which holds the image's columns and offsets, ``span``
    pixels at a time. Every span's DAS, the taper ``taps`` on its centre
    offset summed by ``einsum``, whose bits depend on neither the span's
    length nor its stride, is written into the first DAS plane's row, or into
    a scratch row when DAS is not asked for. With an adaptive method, the span
    is then beamformed tile by tile of ``tile`` pixels by ``_beamform_tile``,
    given ``tile_settings`` and the tile's slice of that row as its fallback.

    The call makes its process's workspace once: the ``gather_buffers`` of a
    span and, with an adaptive method, one set of ``_tile_buffers``, which
    every span and tile reuse. A span whose gathered data is all zero, such
    as one whose every read index is past the record, is not beamformed and
    all its pixels count as fallen back: each would have a zero covariance,
    so every method gives 0 and the adaptive ones fall back, and the adaptive
    planes keep their zeros there. A DAS-only run's count is not read.
    """
    nx, centre, fallback = len(plan.lateral), len(plan.offsets) // 2, 0
    planes = [np.zeros((len(rows), nx)) for _ in methods]
    das_planes = [p for m, p in zip(methods, planes) if m is Method.DAS]
    adaptive = [(m, p) for m, p in zip(methods, planes) if m is not Method.DAS]
    scratch, gather_out = np.empty(nx), gather_buffers(plan, min(nx, span))
    if adaptive:
        buffers = _tile_buffers(tile, len(plan.offsets), len(plan.base), tile_settings["L"])
    for j, iz in enumerate(rows):
        das = das_planes[0][j] if das_planes else scratch
        for s in range(0, nx, span):
            gathered = gather_span(plan, s, s + span, zs[iz], gather_out)
            np.einsum("pm,m->p", gathered[:, centre], taps, out=das[s:s + span])
            if not (adaptive and gathered.any()):
                fallback += len(gathered)
                continue
            for i in range(0, len(gathered), tile):
                cols = slice(s + i, s + i + tile)
                values, ok = _beamform_tile(
                    gathered[i:i + tile], das[cols], methods, **tile_settings, out=buffers)
                fallback += int(len(ok) - np.count_nonzero(ok))
                for method, plane in adaptive:
                    plane[j, cols] = values[method]
    for plane in das_planes[1:]:
        plane[:] = das_planes[0]
    return planes, fallback


# The keyword arguments of _beamform_rows in a worker process, filled in once
# per worker by the pool's initializer; the fork hands them over unpickled.
# The calling process leaves it empty.
_worker_kernel: dict = {}


def _worker_rows(rows: range) -> tuple[list[np.ndarray], int]:
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

    Each image row is gathered in spans of up to ``span_pixels`` pixels, and
    one gather feeds every method. Every span first sums DAS, the fixed taper
    ``das_taps`` on its centre-time samples, once, whichever methods are asked
    for: it is the DAS image and the value an adaptive pixel falls back to.
    With MV or MSMV, the span is then cut into tiles of up to ``tile_pixels``
    pixels, each one batched pass of snapshots -> covariance -> diagonal
    loading -> Capon weights -> subarray-averaged output; MSMV iterates from
    that same MV solve. A pixel whose loaded covariance still fails the
    positive-definiteness check (an identically zero neighborhood) takes its
    DAS value and is counted in the MV and MSMV images' fallback_pixel_count;
    the image is never aborted. A span that gathers only zeros (past the
    record) skips the tiles. The depth-free part of the gather, the read-only
    ``GatherPlan``, is built once per call, before any worker forks; each
    process that runs rows makes its own workspace once (``_beamform_rows``),
    so no span or tile allocates one and a forked run's caller holds none. A
    setting left None takes its default (see ``kernel_settings``).

    The span and tile partitions depend only on the grid, the array, L, K
    and whether an adaptive method is asked for, each pixel's gathered
    values not even on that, and DAS's taper sum on none of it, so every
    plane is bit-identical for any ``workers`` and to its one-method run.
    One process means this process: the rows run here, with no pool, when
    ``workers`` is 1, when the grid has one row, or when this process may
    use only one CPU, tested in that order (so a one-worker run never asks
    for the CPU set, which some platforms cannot give). Otherwise the rows
    split into ``workers`` blocks for forked processes, at most one per CPU
    this process may use (the tiles' solves hold the interpreter lock, so
    threads do not run them in parallel). They inherit the gather plan and
    settings through the fork and gather from this process's record of the
    frame, so ``fork`` must be a start method of the platform (Linux) and
    the calling process should run no other threads. Each block returns its
    rows of every plane, joined plane by plane, and its fallback count,
    summed; all workers have exited when this returns or raises. ``RUSAGE_SELF``
    memory counts the calling process only, none of the workers'.

    Each image owns its plane, one the kernel made for that entry of
    ``methods`` (a method asked for twice gets two), so it holds one plane
    and keeps no other image's plane alive.

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

    if all(method is Method.DAS for method in methods):
        offsets, tile = np.zeros(1), 1  # the centre time only, and no tiles
    else:
        offsets, tile = np.arange(-K, K + 1), tile_pixels(m, L, K)
    kernel = dict(
        plan=GatherPlan(frame, grid.x_coords, offsets), zs=grid.z_coords,
        methods=methods, span=span_pixels(tile, len(offsets), m), tile=tile, L=L,
        dl_factor=dl_factor, msmv=msmv, taps=das_taps(m, L),
    )
    # one block of rows per worker: blocks of 8 rows or of one row ran no
    # faster; there is one block when workers is 1 or the grid has one row
    step = -(-grid.nz // workers)
    blocks = [range(i, min(i + step, grid.nz)) for i in range(0, grid.nz, step)]
    processes = 1 if len(blocks) == 1 else min(len(blocks), len(os.sched_getaffinity(0)))
    if processes == 1:
        planes, n_fallback = _beamform_rows(range(grid.nz), **kernel)
    else:
        # Imported here: loading the process pool costs 17-20 ms, which a
        # run in this process need not pay.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=processes,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_kernel.update,
            initargs=(kernel,),
        ) as pool:
            row_planes, counts = zip(*pool.map(_worker_rows, blocks))
        planes, n_fallback = [np.concatenate(p) for p in zip(*row_planes)], sum(counts)
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

    The analytic signal is ifft(fft(x) * U) over the n depth samples, with
    U = 2 on bins 1 .. (n+1)//2 - 1, 0 from bin n//2 + 1 on and 1 at DC and
    (even n) Nyquist: SciPy's signal-module ``hilbert``, which this equals bit
    for bit, as U keeps only the bins where numpy's ``rfft`` has SciPy's bits.
    The columns are transformed in blocks whose complex spectrum fits
    TILE_BYTES, each block's magnitude written into the returned plane, so
    the call holds that plane plus one block's spectrum. A column's bits do
    not depend on its block. ``beamformed`` is left as it was.
    """
    x = np.asarray(beamformed, dtype=np.float64)
    n = x.shape[0]
    env = np.empty(x.shape)
    columns, out = x.reshape(n, -1), env.reshape(n, -1)
    width = max(1, TILE_BYTES // (16 * n))
    for j in range(0, columns.shape[1], width):
        block = columns[:, j:j + width]
        spectrum = np.zeros(block.shape, dtype=np.complex128)
        np.fft.rfft(block, axis=0, out=spectrum[:n // 2 + 1])
        spectrum[1:(n + 1) // 2] *= 2.0
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        np.abs(spectrum, out=out[:, j:j + width])
        del spectrum  # before the next block's is allocated
    return env


def log_compress(envelope: np.ndarray, dynamic_range_db: float) -> np.ndarray:
    """Normalize to unit max and map to dB, clamped to [-dynamic_range, 0].

    Divide, log10, scale by 20 and clamp all run in the one returned array;
    ``envelope`` is left as it was.
    """
    dynamic_range_db = dynamic_range(dynamic_range_db)
    envelope = np.asarray(envelope, dtype=np.float64)
    peak = envelope.max(initial=0.0)
    if peak == 0.0:
        return np.full_like(envelope, -dynamic_range_db)
    db = np.divide(envelope, peak)
    with np.errstate(divide="ignore"):
        np.log10(db, out=db)
    db *= 20.0
    return np.maximum(db, -dynamic_range_db, out=db)


def finalize(image: PaImage, dynamic_range_db: float | None = None) -> PaImage:
    """Fills in the normalized envelope and log-compressed planes over
    ``dynamic_range_db`` (see ``dynamic_range`` for its default).

    Beyond ``image.beamformed``, the call holds the envelope plane plus one
    block's complex spectrum while it detects (see ``envelope_detect``),
    then the two planes it returns with: the envelope, normalized in place,
    and the dB plane. ``image`` is not changed.
    """
    dynamic_range_db = dynamic_range(dynamic_range_db)
    env = envelope_detect(image.beamformed)
    peak = env.max(initial=0.0)
    if peak > 0.0:
        env /= peak
    return replace(
        image,
        envelope=env,
        db=log_compress(env, dynamic_range_db),
        dynamic_range_db=dynamic_range_db,
    )
