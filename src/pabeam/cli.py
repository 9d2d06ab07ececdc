"""Command-line surface: simulate, beamform, metrics, compare."""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import io as pio
from .beamformers import Method
from .delays import FocalPoint
from .errors import PabeamError
from .metrics import TargetSpec, depth_row, evaluate, lateral_profile
from .phantom import add_channel_noise, simulate_rf
from .pipeline import finalize, reconstruct, reconstruct_methods


def _fail(exc: Exception, **context) -> int:
    """Reports ``exc`` as one JSON line on stderr; 1 is main's failure code."""
    payload = {**context, "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _simulate_frame(cfg: pio.RunConfig):
    if cfg.phantom is None:
        raise pio.ConfigError("missing required config field: phantom.absorbers")
    frame = simulate_rf(cfg.geometry, cfg.phantom, cfg.t_max)
    if cfg.noise.snr_db is not None:
        frame = add_channel_noise(frame, cfg.noise.snr_db, cfg.noise.seed)
    return frame


def cmd_simulate(args) -> int:
    cfg = pio.load_config(args.config)
    frame = _simulate_frame(cfg)
    pio.write_rf(args.out, frame)
    # named after the pair, so each pair in a directory keeps its own
    pio.write_manifest(f"{pio.stem(args.out)}.manifest.json", cfg)
    print(f"wrote {frame.geometry.n_elements}x{frame.n_samples} RF frame to {args.out}")
    return 0


def _parse_grid(spec: str | None) -> dict | None:
    """The config ``grid`` block of a ``--grid`` value."""
    if spec is None:
        return None
    parts = spec.split(",")
    if len(parts) != 6:
        raise pio.ConfigError("grid: expected x_min,x_max,z_min,z_max,nx,nz")
    try:
        vals = [float(p) for p in parts]  # resolve_config checks nx and nz
    except ValueError as exc:
        raise pio.ConfigError(f"grid: {exc}") from exc
    return dict(zip(("x_min", "x_max", "z_min", "z_max", "nx", "nz"), vals))


def _write_image(base, image, depths, profile_prefix) -> None:
    """``io.write_image`` of ``image`` at ``base``, then its lateral profile
    at each of ``depths`` to ``<profile_prefix><depth in mm>mm.csv``."""
    pio.write_image(base, image)
    for depth in depths:
        pio.write_profile_csv(f"{profile_prefix}{depth * 1e3:.1f}mm.csv",
                              lateral_profile(image, depth))


def cmd_beamform(args) -> int:
    frame = pio.read_rf(args.rf)
    # the config a file would give for the file's array: an unset flag is
    # None, which reads as absent, so every default and range check is
    # resolve_config's
    cfg = pio.resolve_config({
        "geometry": asdict(frame.geometry),
        "grid": _parse_grid(args.grid),
        "L": args.L, "K": args.K, "dl": args.dl,
        "msmv": {"beta": args.beta, "n_iter": args.iters},
        "dynamic_range_db": args.dr, "workers": args.workers,
    })
    for depth in args.profile_depth:
        depth_row(cfg.grid, depth)  # a depth outside the grid fails before any work
    image = reconstruct(
        frame, cfg.grid, Method(args.method), L=cfg.L, K=cfg.K,
        dl_factor=cfg.dl, msmv=cfg.msmv, workers=cfg.workers,
    )
    image = finalize(image, cfg.dynamic_range_db)
    _write_image(args.out, image, args.profile_depth, f"{pio.stem(args.out)}_profile_")
    print(
        f"wrote {args.method} image ({cfg.grid.nx}x{cfg.grid.nz}, "
        f"{image.fallback_pixel_count} fallback pixels) to {args.out}"
    )
    return 0


def cmd_metrics(args) -> int:
    image = pio.read_image(args.image)
    spec = pio.load_targets(args.targets)
    report = evaluate(image, spec)
    out = Path(args.out)
    if out.suffix == ".json":
        pio.write_metrics_json(out, [report])
    else:
        pio.write_metrics_csv(out, [report])
    print(f"wrote metrics for {report.method} to {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = pio.load_config(args.config)
    frame = _simulate_frame(cfg)  # no phantom fails here, before any file
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    pio.write_manifest(outdir / "run-manifest.json", cfg)
    pio.write_rf(outdir / "rf", frame)
    # a profile at each absorber depth the grid spans; an absorber outside
    # it fails the metrics, reported below
    depths = sorted({a.z for a in cfg.phantom.absorbers if cfg.grid.spans_depth(a.z)})
    spec = TargetSpec(
        targets=tuple(FocalPoint(ab.x, ab.z) for ab in cfg.phantom.absorbers)
    )
    reports = []
    images = reconstruct_methods(
        frame, cfg.grid, tuple(Method), L=cfg.L, K=cfg.K,
        dl_factor=cfg.dl, msmv=cfg.msmv, workers=cfg.workers,
    )
    for method, image in zip(Method, images):
        image = finalize(image, cfg.dynamic_range_db)
        _write_image(outdir / f"image_{method.value}", image, depths,
                     outdir / f"profile_{method.value}_")
        try:
            reports.append(evaluate(image, spec))
        except PabeamError as exc:
            _fail(exc, method=method.value)
    pio.write_metrics_csv(outdir / "metrics.csv", reports)
    pio.write_metrics_json(outdir / "metrics.json", reports)
    print(f"wrote comparison run ({len(reports)} method reports) to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pabeam",
        description="Linear-array photoacoustic simulation, beamforming and metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize an RF frame from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output RF file base path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("beamform", help="reconstruct an image from an RF file")
    p.add_argument("--rf", required=True)
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--out", required=True, help="output image file base path")
    # an unset flag takes the config default of its key
    p.add_argument("--beta", type=float, help="msmv.beta")
    p.add_argument("--iters", type=int, help="msmv.n_iter")
    p.add_argument("--L", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--dl", type=float)
    p.add_argument("--grid", help="x_min,x_max,z_min,z_max,nx,nz (meters)")
    p.add_argument("--dr", type=float, help="dynamic_range_db")
    p.add_argument("--workers", type=int)
    p.add_argument("--profile-depth", type=float, action="append", default=[],
                   metavar="METERS")
    p.set_defaults(func=cmd_beamform)

    p = sub.add_parser("metrics", help="evaluate a reconstructed image")
    p.add_argument("--image", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True, help=".csv or .json report path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare",
                       help="run DAS/MV/MSMV side by side from one config")
    p.add_argument("--config", required=True,
                   help="config JSON (a manifest simulate or compare wrote also works)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PabeamError, OSError, MemoryError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
