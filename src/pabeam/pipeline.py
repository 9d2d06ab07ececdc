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
    tensor (pixels x (2K+1)(M-L+1) columns x L float64 values) within
    TILE_BYTES, and at least one."""
    return max(1, TILE_BYTES // ((2 * K + 1) * (n_elements - L + 1) * L * 8))


def span_pixels(tile: int, n_offsets: int, n_elements: int) -> int:
    """Pixels per span, the run of an image row gathered at once: as many
    whole tiles of ``tile`` pixels as keep the gathered block (pixels x
    ``n_offsets`` x M float64 values) within TILE_BYTES, and at least one.
    A gather per span, not per tile, pays the gather's call cost less often.
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
    """The values of the adaptive ``methods`` on the tile whose delayed
    channel data is ``gathered`` (P, offsets -K..K, M), keyed by method, and
    ``ok``, the mask of the pixels whose MV solve succeeded; the others take
    their DAS value from ``das`` (P). MSMV iterates from MV's solve. ``out``
    is ``_tile_buffers`` of at least P pixels (new ones if None).
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
    DAS.

    Each row is gathered through the read-only ``plan`` ``span`` pixels at a
    time. A span's DAS, the taper ``taps`` on its centre offset summed by
    ``einsum`` (whose bits depend on neither the span's length nor its
    stride), goes into the DAS plane's row, or a scratch row without DAS, and
    is the fallback of its tiles of ``tile`` pixels (``_beamform_tile`` with
    ``tile_settings``). The workspace, a span's ``gather_buffers`` and one
    set of ``_tile_buffers``, is made once per call, in the process that runs
    it. A span that gathers only zeros is not cut into tiles: each of its
    pixels would have a zero covariance, so every method gives 0 there and
    the pixel counts as a fallback.
    """
    nx, centre, fallback = len(plan.lateral), len(plan.offsets) // 2, 0
    planes = {method: np.zeros((len(rows), nx)) for method in methods}
    das_plane = planes.get(Method.DAS)
    adaptive = [(m, p) for m, p in planes.items() if m is not Method.DAS]
    scratch, gather_out = np.empty(nx), gather_buffers(plan, min(nx, span))
    if adaptive:
        buffers = _tile_buffers(tile, len(plan.offsets), len(plan.base), tile_settings["L"])
    for j, iz in enumerate(rows):
        das = scratch if das_plane is None else das_plane[j]
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
    return list(planes.values()), fallback


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

    One gather per span (``span_pixels``) feeds every method: DAS is the
    span's ``das_taps`` sum, and MV and MSMV are solved tile by tile
    (``tile_pixels``), MSMV iterating from the MV solve (``_beamform_rows``).
    A pixel whose loaded covariance is not positive definite takes its DAS
    value and is counted in the MV and MSMV images' fallback_pixel_count. A
    setting left None takes its default (``kernel_settings``).

    The span and tile partition depends only on the grid, the array, L, K
    and whether an adaptive method is asked for, so every plane is
    bit-identical for any ``workers`` and to its one-method run. The rows run
    in this process when ``workers`` is 1, when the grid has one row, or when
    this process may use one CPU, tested in that order (so a one-worker run
    never asks for the CPU set, which some platforms cannot give). Otherwise
    they split into ``workers`` blocks for forked processes, at most one per
    usable CPU (threads would not run the tiles in parallel, as they hold the
    interpreter lock). The workers inherit the frame and the gather plan
    through the fork, so the platform must offer ``fork`` (Linux) and the
    calling process should run no other threads. All workers have exited
    when this returns or raises.

    Returns:
        One image per entry of ``methods``, in order, each owning its plane.

    Raises:
        ConfigError: a setting out of range (see ``kernel_settings``), a
            method that is not one of das, mv and msmv, or one asked for twice.
    """
    try:
        methods = tuple(Method(m) for m in methods)
    except ValueError as exc:
        raise ConfigError(
            f"method: {exc}; use one of " + ", ".join(m.value for m in Method)
        ) from exc
    if not methods:
        raise ConfigError("no method to reconstruct")
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ConfigError(f"method: {method.value} asked for twice")
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
    # one block of rows per worker: blocks of 8 rows or of one row ran no faster
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
        PaImage(grid=grid, beamformed=plane, method=method,
                fallback_pixel_count=0 if method is Method.DAS else n_fallback)
        for method, plane in zip(methods, planes)
    )


def reconstruct(frame: RfFrame, grid: ImageGrid, method: Method, **settings) -> PaImage:
    """``reconstruct_methods`` for one method, with its keyword ``settings``
    (L, K, dl_factor, msmv, workers).

    Raises:
        ConfigError: as ``reconstruct_methods``.
    """
    return reconstruct_methods(frame, grid, (method,), **settings)[0]


def envelope_detect(beamformed: np.ndarray) -> np.ndarray:
    """Magnitude of the analytic signal along depth, column by column:
    ifft(fft(x) U) over the n depth samples, U = 2 on bins 1 .. (n+1)//2 - 1,
    1 at DC and (even n) Nyquist and 0 above. It equals SciPy's
    ``signal.hilbert`` bit for bit, as U keeps only the bins where numpy's
    ``rfft`` has SciPy's bits. Columns are transformed in blocks whose
    spectrum fits TILE_BYTES, so the call holds the returned plane plus one
    block's spectrum; a column's bits do not depend on its block.
    ``beamformed`` is left as it was.
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
    """Normalize to unit max and map to dB, clamped to [-dynamic_range, 0],
    in the one returned array; ``envelope`` is left as it was."""
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
    """A copy of ``image`` with the normalized envelope and the log-compressed
    plane over ``dynamic_range_db`` (default: ``dynamic_range``) filled in."""
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
