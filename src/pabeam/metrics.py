"""Quantitative image evaluation: SNR, lateral profiles, FWHM, peak sidelobe."""

from dataclasses import dataclass, field

import numpy as np

from .delays import FocalPoint
from .errors import DegenerateImage, DepthOutOfGrid, NoPeakFound, WidthUnbounded
from .pipeline import ImageGrid, PaImage


@dataclass(frozen=True)
class TargetSpec:
    targets: tuple  # of FocalPoint


@dataclass(frozen=True)
class TargetMetrics:
    depth: float
    fwhm: float
    peak_sidelobe_db: float | None  # None: 3x the FWHM covers the whole row


@dataclass(frozen=True)
class MetricsReport:
    method: str
    snr_db: float
    per_target: tuple = field(default_factory=tuple)


def snr(image: PaImage) -> float:
    """20 log10 of (max - min) over the standard deviation, on the normalized
    linear envelope plane.

    Raises:
        DegenerateImage: the envelope is constant (zero standard deviation).
    """
    env = _plane(image, "envelope")
    std = float(np.std(env))
    if std == 0.0:
        raise DegenerateImage("constant envelope plane has no SNR")
    return float(20.0 * np.log10((env.max() - env.min()) / std))


def _plane(image: PaImage, name: str) -> np.ndarray:
    """The image's ``name`` plane, one that ``pipeline.finalize`` adds."""
    plane = getattr(image, name)
    if plane is None:
        raise ValueError(f"image has no {name} plane; run pipeline.finalize first")
    return plane


def depth_row(grid: ImageGrid, depth: float) -> int:
    """Index of the grid row nearest ``depth``; DepthOutOfGrid outside the grid."""
    zs = grid.z_coords
    if not grid.spans_depth(depth):
        raise DepthOutOfGrid(f"depth {depth} outside grid [{zs[0]}, {zs[-1]}]")
    return int(np.argmin(np.abs(zs - depth)))


def lateral_profile(image: PaImage, depth: float) -> np.ndarray:
    """dB-plane row nearest to ``depth``; returns an (nx, 2) array of
    (x, value_db) pairs."""
    db = _plane(image, "db")
    return np.column_stack([image.grid.x_coords, db[depth_row(image.grid, depth)]])


def _find_peak(profile: np.ndarray, xs: np.ndarray, x0: float) -> int:
    """Index of the local maximum nearest x0.

    Raises NoPeakFound when the profile has no interior local maximum (flat or
    monotone rows carry no target)."""
    interior = (profile[1:-1] >= profile[:-2]) & (profile[1:-1] >= profile[2:])
    cand = np.nonzero(interior)[0] + 1
    cand = cand[profile[cand] > 0.0]
    if cand.size == 0:
        raise NoPeakFound(f"no local maximum near x = {x0}")
    return int(cand[np.argmin(np.abs(xs[cand] - x0))])


def _peak(image: PaImage, target: FocalPoint) -> tuple[int, np.ndarray, np.ndarray, int]:
    """(row, envelope profile, x coordinates, peak index) of the target's row:
    the index is the local maximum nearest the target."""
    env = _plane(image, "envelope")
    row = depth_row(image.grid, target.z)
    xs = image.grid.x_coords
    return row, env[row], xs, _find_peak(env[row], xs, target.x)


def fwhm(image: PaImage, target: FocalPoint) -> float:
    """Full width at half maximum of the lateral envelope profile through the
    target's depth row, with sub-pixel half crossings by linear interpolation.

    Raises:
        NoPeakFound: no local maximum on the row.
        WidthUnbounded: the profile never falls below half max within the grid.
    """
    _, profile, xs, ipk = _peak(image, target)
    half = 0.5 * profile[ipk]

    def cross(direction: int) -> float:
        i = ipk
        while 0 <= i + direction < len(profile):
            j = i + direction
            if profile[j] < half:
                # linear interpolation between samples i and j
                t = (profile[i] - half) / (profile[i] - profile[j])
                return xs[i] + t * (xs[j] - xs[i])
            i = j
        raise WidthUnbounded(
            f"profile never falls below half max {'right' if direction > 0 else 'left'} "
            f"of the peak at x = {xs[ipk]}"
        )

    return float(cross(+1) - cross(-1))


def peak_sidelobe(
    image: PaImage, target: FocalPoint, mainlobe_exclusion: float | None = None
) -> float | None:
    """Highest dB-profile value farther than ``mainlobe_exclusion`` from the
    peak, relative to the peak, or None where the exclusion covers the whole
    row. The exclusion defaults to 3x the target's ``fwhm``.

    Raises:
        NoPeakFound: no local maximum on the row.
        WidthUnbounded: as ``fwhm``, when the exclusion is left to default.
    """
    if mainlobe_exclusion is None:
        mainlobe_exclusion = 3.0 * fwhm(image, target)
    db = _plane(image, "db")
    row, _, xs, ipk = _peak(image, target)
    outside = np.abs(xs - xs[ipk]) > mainlobe_exclusion
    if not np.any(outside):
        return None
    return float(db[row][outside].max() - db[row][ipk])


def evaluate(image: PaImage, spec: TargetSpec) -> MetricsReport:
    """``snr`` plus each target's ``fwhm`` and its ``peak_sidelobe`` outside 3x
    that FWHM, which is None where that covers the row (the rest is still
    reported).

    Raises:
        PabeamError: as ``snr``, ``fwhm`` and ``peak_sidelobe``.
    """
    per_target = []
    for t in spec.targets:
        width = fwhm(image, t)
        per_target.append(TargetMetrics(t.z, width, peak_sidelobe(image, t, 3.0 * width)))
    return MetricsReport(image.method.value, snr(image), tuple(per_target))
