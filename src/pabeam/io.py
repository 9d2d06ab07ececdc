"""File formats and run configuration.

RF frames and raw image planes share the same interchange pattern: a raw
little-endian float32 binary next to a JSON sidecar describing it, so the
metrics stage never re-derives pipeline state. Display output is 8-bit
grayscale PGM (P5).
"""

import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .beamformers import Method, MsmvConfig
from .delays import FocalPoint
from .errors import ConfigError, PabeamError
from .metrics import MetricsReport, TargetMetrics, TargetSpec
from .phantom import Absorber, ArrayGeometry, Phantom, RfFrame
from .pipeline import ImageGrid, PaImage, dynamic_range, finalize, kernel_settings

RF_MAGIC = "PARF"
RF_VERSION = 1


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class Noise:
    """Channel noise added to a simulated frame; none when ``snr_db`` is None."""

    snr_db: float | None
    seed: int


@dataclass(frozen=True)
class RunConfig:
    """A resolved config. Its fields are the run manifest's keys, in order."""

    geometry: ArrayGeometry
    grid: ImageGrid
    L: int
    K: int
    dl: float
    msmv: MsmvConfig
    noise: Noise
    dynamic_range_db: float
    t_max: float | None  # the simulated record's length; None without a phantom
    workers: int
    phantom: Phantom | None


def _get(raw: dict, path: str, default=None, required: bool = False):
    """The value at the dotted ``path``; a JSON null reads as an absent key,
    and a block on the path that is not an object is refused."""
    node, keys = raw, path.split(".")
    for i, key in enumerate(keys):
        if i and not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(keys[:i])} must be an object, got {node!r}")
        if not isinstance(node, dict) or node.get(key) is None:
            if required:
                raise ConfigError(f"missing required field: {path}")
            return default
        node = node[key]
    return node


def _num(raw: dict, path: str, default=None, required: bool = False):
    """A finite number field, of any file pabeam reads."""
    v = _get(raw, path, default, required)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field {path} must be a number, got {v!r}")
    # json reads NaN and Infinity literals, and an integer literal of any size
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"field {path} must be finite, got {v!r}")
    return v


def _int(raw: dict, path: str, default: int | None = None,
         required: bool = False) -> int | None:
    """An integer field; a float is accepted only with an integral value."""
    v = _num(raw, path, default, required)
    if isinstance(v, float) and not v.is_integer():
        raise ConfigError(f"field {path} must be an integer, got {v!r}")
    return v if v is None else int(v)


def _points(raw: dict, path: str, point, **optional) -> tuple:
    """``point(x=, z=, **optional)`` for each item of the non-empty list at
    ``path``: x and z are required numbers, each key of ``optional`` a number
    with that default. A refused item is named by its index."""
    items = _get(raw, path, required=True)
    # a tuple is the list of a config_to_dict that was never written as JSON
    if not isinstance(items, (list, tuple)) or not items:
        raise ConfigError(f"{path} must be a non-empty list")
    pts = []
    for i, item in enumerate(items):
        try:
            pts.append(point(
                x=float(_num(item, "x", required=True)),
                z=float(_num(item, "z", required=True)),
                **{key: float(_num(item, key, d)) for key, d in optional.items()},
            ))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{path}[{i}]: {exc}") from exc
    return tuple(pts)


def resolve_config(raw: dict) -> RunConfig:
    """Fills in defaults and validates a raw config dict.

    Defaults mirror the reference imaging setup: 128 elements at 0.3 mm pitch,
    5 MHz center frequency, 77% bandwidth, 1540 m/s, fs = 20 MHz; L, K, dl
    and workers as ``kernel_settings``, msmv as ``MsmvConfig`` and the
    dynamic range as ``dynamic_range``. ``t_max`` defaults to the farthest
    absorber's echo time plus 2 us, and stays None without a phantom.

    Raises:
        ConfigError: naming the JSON path of the offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    m = _int(raw, "geometry.n_elements", 128)
    defaults = {"pitch": 0.3e-3, "sound_speed": 1540.0, "sampling_rate": 20e6,
                "center_frequency": 5e6, "fractional_bandwidth": 0.77}
    try:
        geometry = ArrayGeometry(n_elements=m, **{
            key: float(_num(raw, f"geometry.{key}", d)) for key, d in defaults.items()
        })
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    phantom = None
    if _get(raw, "phantom.absorbers") is not None:
        phantom = Phantom(_points(raw, "phantom.absorbers", Absorber, amplitude=1.0))

    wavelength = geometry.sound_speed / geometry.center_frequency
    x_min = float(_num(raw, "grid.x_min", -10e-3))
    x_max = float(_num(raw, "grid.x_max", 10e-3))
    z_min = float(_num(raw, "grid.z_min", 15e-3))
    z_max = float(_num(raw, "grid.z_max", 70e-3))
    try:
        # default resolution: quarter wavelength axially, half laterally; a
        # span beyond float range overflows to inf, which no count can hold
        nx_default = max(2, round((x_max - x_min) / (wavelength / 2)) + 1)
        nz_default = max(2, round((z_max - z_min) / (wavelength / 4)) + 1)
        grid = ImageGrid(x_min, x_max, z_min, z_max,
                         _int(raw, "grid.nx", nx_default), _int(raw, "grid.nz", nz_default))
    except (ConfigError, OverflowError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    L, K, dl, workers = kernel_settings(
        m, _int(raw, "L"), _int(raw, "K"), _num(raw, "dl"), _int(raw, "workers")
    )

    d = MsmvConfig  # its field defaults are the config defaults
    msmv = MsmvConfig(
        beta=float(_num(raw, "msmv.beta", d.beta)),
        n_iter=_int(raw, "msmv.n_iter", d.n_iter),
    )

    snr_db = _num(raw, "noise.snr_db")
    seed = _int(raw, "noise.seed", 0)
    if seed < 0:
        raise ConfigError(f"noise.seed: must be >= 0, got {seed}")

    t_max = _num(raw, "t_max")
    if t_max is not None:
        t_max = float(t_max)
        if t_max <= 0:
            raise ConfigError(f"t_max: must be > 0, got {t_max!r}")
    elif phantom is not None:
        d_max = max(
            float(np.max(np.hypot(geometry.element_x - ab.x, ab.z)))
            for ab in phantom.absorbers
        )
        # pulse tail margin: 2 us covers the truncated emission pulse
        t_max = d_max / geometry.sound_speed + 2e-6

    return RunConfig(
        geometry=geometry,
        grid=grid,
        L=L,
        K=K,
        dl=dl,
        msmv=msmv,
        noise=Noise(None if snr_db is None else float(snr_db), seed),
        dynamic_range_db=dynamic_range(_num(raw, "dynamic_range_db")),
        t_max=t_max,
        workers=workers,
        phantom=phantom,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """The resolved config as a JSON-serializable dict, ``phantom`` left out
    when there is none; ``resolve_config`` of it gives ``cfg`` back."""
    out = asdict(cfg)
    if cfg.phantom is None:
        del out["phantom"]
    return out


def write_manifest(path, cfg: RunConfig) -> None:
    """Writes ``config_to_dict(cfg)`` as indented JSON: the run manifest."""
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2))


@contextmanager
def _json_file(path):
    """The parsed JSON of ``path``, for a ``with`` block that reads fields
    from it. A file that is not JSON, or whose JSON lacks or mistypes a field
    the block reads, raises a ConfigError that names the file, as does any
    pabeam error the block raises: no reader names the file itself."""
    try:
        yield json.loads(Path(path).read_text())
    except PabeamError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc


def load_config(path) -> RunConfig:
    with _json_file(path) as raw:
        return resolve_config(raw)


# ---------------------------------------------------------------------------
# File pairs: RF frames and images, each a raw f32le <stem>.bin + <stem>.json


def stem(base) -> Path:
    """``base`` minus a trailing .bin or .json, to which each file of a pair
    appends its suffix: ``scan_0.5mm`` and ``scan_0.5mm.bin`` name one pair."""
    base = Path(base)
    return base.with_suffix("") if base.suffix in (".bin", ".json") else base


def _write_pair(base, plane: np.ndarray, sidecar: dict) -> None:
    base = stem(base)
    plane.astype("<f4").tofile(f"{base}.bin")
    Path(f"{base}.json").write_text(json.dumps(sidecar, indent=2))


def _read_plane(base, sidecar: dict, encoding_key: str, count: int) -> np.ndarray:
    """The ``count`` values of the pair's .bin, which ``sidecar[encoding_key]``
    must declare f32le, as float32. Each must be finite: the solver takes a NaN
    covariance as positive definite, and the metrics a NaN row as peakless."""
    if _get(sidecar, encoding_key) != "f32le":
        raise ConfigError(f"{encoding_key} must be f32le")
    bin_path = Path(f"{stem(base)}.bin")
    data = np.fromfile(bin_path, dtype="<f4")
    if data.size != count:
        raise ConfigError(f"{bin_path.name} holds {data.size} values, not {count}")
    if not np.isfinite(data).all():
        raise ConfigError(f"{bin_path.name} holds a NaN or infinite value")
    return data


def write_rf(base, frame: RfFrame) -> None:
    """Writes an RF frame as <stem>.bin (f32le, element-major) + <stem>.json."""
    _write_pair(base, frame.samples, {
        "magic": RF_MAGIC,
        "version": RF_VERSION,
        "n_elements": frame.geometry.n_elements,
        "n_samples": frame.n_samples,
        "sampling_rate": frame.geometry.sampling_rate,
        "sound_speed": frame.geometry.sound_speed,
        "center_frequency": frame.geometry.center_frequency,
        "fractional_bandwidth": frame.geometry.fractional_bandwidth,
        "element_x": list(frame.geometry.element_x),
        "sample_encoding": "f32le",
        "channel_snr_db": frame.channel_snr_db,
    })


def read_rf(base) -> RfFrame:
    with _json_file(f"{stem(base)}.json") as header:
        if _get(header, "magic") != RF_MAGIC or _int(header, "version") != RF_VERSION:
            raise ConfigError(f"not a version-{RF_VERSION} {RF_MAGIC} header")
        m = _int(header, "n_elements", required=True)
        t = _int(header, "n_samples", required=True)
        element_x = np.asarray(header["element_x"], dtype=np.float64)
        if element_x.shape != (m,):
            raise ConfigError(f"element_x must hold {m} positions")
        # the exact pitch: element (M+1)//2 lies at pitch/2 for even M and at
        # pitch for odd M; one element is at 0.0 for any pitch, read as 1.0
        i = (m + 1) // 2
        pitch = element_x[i] / (i - (m - 1) / 2.0) if m > 1 else 1.0
        geometry = ArrayGeometry(
            n_elements=m,
            pitch=float(pitch),
            **{key: float(_num(header, key, required=True)) for key in (
                "sound_speed", "sampling_rate", "center_frequency",
                "fractional_bandwidth",
            )},
        )
        if not np.array_equal(element_x, geometry.element_x):
            raise ConfigError("element_x is not uniform and centred on x=0")
        snr = _num(header, "channel_snr_db")
        data = _read_plane(base, header, "sample_encoding", m * t)
    # the frame converts the float32 values straight into its record
    return RfFrame(geometry, data.reshape(m, t), None if snr is None else float(snr))


def write_image(base, image: PaImage) -> None:
    """Writes a finalized image as <stem>.bin (raw beamformed plane, f32le,
    row-major nz x nx), <stem>.json sidecar and <stem>.pgm (8-bit view of
    the db plane).

    Raises:
        ConfigError: the image has no db plane or dynamic range (it has not
            been through ``pipeline.finalize``); no file is written.
    """
    if image.db is None or image.dynamic_range_db is None:
        raise ConfigError("image has no db plane; run pipeline.finalize first")
    _write_pair(base, image.beamformed, {
        "grid": asdict(image.grid),
        "method": image.method.value,
        "dynamic_range_db": image.dynamic_range_db,
        "fallback_pixel_count": image.fallback_pixel_count,
        "plane_encoding": "f32le",
    })
    write_pgm(f"{stem(base)}.pgm", image.db, image.dynamic_range_db)


def read_image(base) -> PaImage:
    """Reads a raw image pair and recomputes the envelope and db views."""
    with _json_file(f"{stem(base)}.json") as sidecar:
        grid = ImageGrid(
            *(float(_num(sidecar, f"grid.{k}", required=True))
              for k in ("x_min", "x_max", "z_min", "z_max")),
            *(_int(sidecar, f"grid.{k}", required=True) for k in ("nx", "nz")),
        )
        method = Method(_get(sidecar, "method", required=True))
        n_px = grid.nx * grid.nz
        fallback = _int(sidecar, "fallback_pixel_count", required=True)
        if not 0 <= fallback <= n_px:
            raise ConfigError(f"fallback_pixel_count: {fallback} outside [0, {n_px}]")
        dynamic_range_db = dynamic_range(_num(sidecar, "dynamic_range_db", required=True))
        data = _read_plane(base, sidecar, "plane_encoding", n_px)
    image = PaImage(
        grid=grid,
        beamformed=data.reshape(grid.nz, grid.nx).astype(np.float64),
        method=method,
        fallback_pixel_count=fallback,
    )
    return finalize(image, dynamic_range_db)


def write_pgm(path, db: np.ndarray, dynamic_range_db: float) -> None:
    """8-bit binary PGM of a db plane; -DR maps to 0 and 0 dB to 255.

    Shift, scale, round and clip run in one float64 array, so the call peaks
    at that plane plus its 8-bit copy; ``db`` is left as it was.
    """
    gray = np.add(db, dynamic_range_db)
    gray /= dynamic_range_db
    gray *= 255.0
    np.rint(gray, out=gray)
    gray = np.clip(gray, 0, 255, out=gray).astype(np.uint8)
    nz, nx = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {nz}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


# ---------------------------------------------------------------------------
# Profiles, targets and metrics reports


def write_profile_csv(path, profile: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x_m", "value_db"])
        for x, v in profile:
            writer.writerow([repr(float(x)), repr(float(v))])


def load_targets(path) -> TargetSpec:
    with _json_file(path) as raw:
        return TargetSpec(targets=_points(raw, "targets", FocalPoint))


METRICS_CSV_COLUMNS = ["method", "snr_db", "depth_m", "fwhm_m", "peak_sidelobe_db"]


def write_metrics_csv(path, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_CSV_COLUMNS)
        for rep in reports:
            for t in rep.per_target:
                writer.writerow(
                    [
                        rep.method,
                        repr(rep.snr_db),
                        repr(t.depth),
                        repr(t.fwhm),
                        "" if t.peak_sidelobe_db is None else repr(t.peak_sidelobe_db),
                    ]
                )


def write_metrics_json(path, reports: list[MetricsReport]) -> None:
    Path(path).write_text(json.dumps([asdict(r) for r in reports], indent=2))


def read_metrics_json(path) -> list[MetricsReport]:
    with _json_file(path) as raw:
        # the inverse of write_metrics_json's asdict
        return [
            MetricsReport(**{
                **r, "per_target": tuple(TargetMetrics(**t) for t in r["per_target"]),
            })
            for r in raw
        ]
