"""Command-line surface: simulate, beamform, metrics, compare."""

import argparse
import json
import sys
from pathlib import Path

from . import io as pio
from .beamformers import Method, MsmvConfig
from .delays import FocalPoint
from .errors import PabeamError
from .metrics import TargetSpec, evaluate, lateral_profile
from .phantom import add_channel_noise, simulate_rf
from .pipeline import (
    IMAGE_METHODS,
    ImageGrid,
    finalize,
    reconstruct,
    reconstruct_methods,
)


def _fail(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return 1


def _simulate_frame(cfg: pio.RunConfig):
    if cfg.phantom is None:
        raise pio.ConfigError("missing required config field: phantom.absorbers")
    frame = simulate_rf(cfg.geometry, cfg.phantom, cfg.t_max)
    if cfg.noise_snr_db is not None:
        frame = add_channel_noise(frame, cfg.noise_snr_db, cfg.noise_seed)
    return frame


def cmd_simulate(args) -> int:
    cfg = pio.load_config(args.config)
    frame = _simulate_frame(cfg)
    pio.write_rf(args.out, frame)
    base = Path(args.out).with_suffix("")
    manifest = base.parent / "run-manifest.json"
    manifest.write_text(json.dumps(pio.config_to_dict(cfg), indent=2))
    print(f"wrote {frame.geometry.n_elements}x{frame.n_samples} RF frame to {args.out}")
    return 0


def _parse_grid(spec: str) -> ImageGrid:
    parts = spec.split(",")
    if len(parts) != 6:
        raise pio.ConfigError(
            "grid: expected x_min,x_max,z_min,z_max,nx,nz"
        )
    try:
        vals = [float(p) for p in parts[:4]]
        nx, nz = int(parts[4]), int(parts[5])
    except ValueError as exc:
        raise pio.ConfigError(f"grid: {exc}") from exc
    return ImageGrid(
        x_min=vals[0], x_max=vals[1], z_min=vals[2], z_max=vals[3], nx=nx, nz=nz
    )


def cmd_beamform(args) -> int:
    frame = pio.read_rf(args.rf)
    m = frame.geometry.n_elements
    L = args.L if args.L is not None else m // 2
    msmv = MsmvConfig(beta=args.beta, n_iter=args.iters)
    if args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        grid = pio.resolve_config(
            {"geometry": {"n_elements": m,
                          "sampling_rate": frame.geometry.sampling_rate,
                          "center_frequency": frame.geometry.center_frequency,
                          "fractional_bandwidth": frame.geometry.fractional_bandwidth,
                          "sound_speed": frame.geometry.sound_speed}}
        ).grid
    image = reconstruct(
        frame, grid, Method(args.method), L=L, K=args.K,
        dl_factor=args.dl, msmv=msmv, workers=args.workers,
    )
    image = finalize(image, args.dr)
    pio.write_image(args.out, image)
    out = Path(args.out).with_suffix("")
    for depth in args.profile_depth:
        prof = lateral_profile(image, depth)
        pio.write_profile_csv(f"{out}_profile_{depth * 1e3:.1f}mm.csv", prof)
    print(
        f"wrote {args.method} image ({grid.nx}x{grid.nz}, "
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
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "run-manifest.json").write_text(
        json.dumps(pio.config_to_dict(cfg), indent=2)
    )
    frame = _simulate_frame(cfg)
    pio.write_rf(outdir / "rf", frame)
    depths = sorted({ab.z for ab in cfg.phantom.absorbers})
    spec = TargetSpec(
        targets=tuple(FocalPoint(ab.x, ab.z) for ab in cfg.phantom.absorbers)
    )
    reports = []
    images = reconstruct_methods(
        frame, cfg.grid, IMAGE_METHODS, L=cfg.L, K=cfg.K,
        dl_factor=cfg.dl_factor, msmv=cfg.msmv, workers=cfg.workers,
    )
    for method, image in zip(IMAGE_METHODS, images):
        image = finalize(image, cfg.dynamic_range_db)
        pio.write_image(outdir / f"image_{method.value}", image)
        for depth in depths:
            prof = lateral_profile(image, depth)
            pio.write_profile_csv(
                outdir / f"profile_{method.value}_{depth * 1e3:.1f}mm.csv", prof
            )
        try:
            reports.append(evaluate(image, spec))
        except PabeamError as exc:
            print(
                json.dumps({"method": method.value, "error": type(exc).__name__,
                            "message": str(exc)}),
                file=sys.stderr,
            )
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
    p.add_argument("--method", required=True, choices=[m.value for m in IMAGE_METHODS])
    p.add_argument("--out", required=True, help="output image file base path")
    p.add_argument("--beta", type=float, default=MsmvConfig.beta)
    p.add_argument("--iters", type=int, default=MsmvConfig.n_iter)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--dl", type=float, default=None)
    p.add_argument("--grid", default=None,
                   help="x_min,x_max,z_min,z_max,nx,nz (meters)")
    p.add_argument("--dr", type=float, default=50.0, help="dynamic range in dB")
    p.add_argument("--workers", type=int, default=1)
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
                   help="config JSON (a run-manifest.json also works)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PabeamError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
