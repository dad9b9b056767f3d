"""Command line interface.

    bpcam predict   [--config cfg.json] [--json]
    bpcam simulate  [--config cfg.json] [--out-dir DIR] [overrides...]
    bpcam analyze   [--run-dir DIR | --image X --farfield Y] [--config cfg.json]
    bpcam report    [--run-dir DIR | --report report.json] [--stack stack.bpcm]

The default output directory is $BPCAM_OUTPUT_DIR if set, else ./bpcam-run.
Exit status: 0 on success, 1 on any domain error (bad parameters, corrupt
stacks, failed analysis) or file that cannot be read or written, 2 on
command line misuse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig
from .errors import BpcamError
from .framestack import StackReader
from .model import Plane, predict
from .pipeline import analyze, simulate
from .report import format_report, write_cross_sections, write_report

OUTPUT_DIR_ENV = "BPCAM_OUTPUT_DIR"


def _default_out_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "bpcam-run")


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    overrides = {}
    for attr, key in (
        ("seed", "seed"),
        ("frames", "n_frames"),
        ("dark_frames", "n_dark_frames"),
        ("bootstrap", "n_bootstrap"),
        ("snr_gate", "snr_gate"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    return cfg.replace(**overrides) if overrides else cfg


def _cmd_predict(args) -> int:
    cfg = _load_config(args)
    d = predict(cfg).as_dict()
    if args.json:
        print(json.dumps(d, indent=2))
        return 0
    width = max(len(k) for k in d)
    for key, value in d.items():
        print(f"{key:<{width}}  {value:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    planes = {
        "both": (Plane.IMAGE, Plane.FAR_FIELD),
        "image": (Plane.IMAGE,),
        "farfield": (Plane.FAR_FIELD,),
    }[args.plane]
    result = simulate(cfg, args.out_dir, planes=planes)
    print(f"wrote {result.dark_path} ({cfg.n_dark_frames} dark frames)")
    for name, path in result.stack_paths.items():
        stats = result.plane_stats[name]
        print(f"wrote {path} ({stats.n_frames} frames, "
              f"occupancy {stats.mean_occupancy:.4f})")
    print(f"threshold k = {result.threshold_k:.4f} "
          f"(sigma_noise = {result.sigma_noise:.3f} e-)")
    print(f"elapsed {result.elapsed_s:.1f} s; summary in {result.out_dir}/sim_summary.json")
    return 0


def _stack_paths(args) -> tuple[str, str]:
    if args.image and args.farfield:
        return args.image, args.farfield
    if args.image or args.farfield:
        raise BpcamError("pass both --image and --farfield, or neither (with --run-dir)")
    run_dir = Path(args.run_dir or _default_out_dir())
    image = run_dir / "image.bpcm"
    farfield = run_dir / "farfield.bpcm"
    for p in (image, farfield):
        if not p.exists():
            raise BpcamError(f"stack not found: {p} (run `bpcam simulate` first?)")
    return str(image), str(farfield)


def _cmd_analyze(args) -> int:
    cfg = _load_config(args)
    image, farfield = _stack_paths(args)
    products = analyze(image, farfield, cfg, check_digest=not args.ignore_digest)
    out_dir = args.out_dir or args.run_dir or str(Path(image).parent)
    paths = write_report(products.report, out_dir)
    csvs = write_cross_sections(products.maps, out_dir, cfg.pixel_pitch)
    print(format_report(products.report))
    print(f"\nreport: {paths['json']}")
    print(f"cross-sections: {', '.join(Path(p).name for p in csvs)} in {out_dir}")
    print(f"elapsed {products.elapsed_s:.1f} s")
    return 0


def _cmd_report(args) -> int:
    did_something = False
    if args.stack:
        info = StackReader(args.stack).describe()
        width = max(len(k) for k in info)
        for key, value in info.items():
            print(f"{key:<{width}}  {value}")
        did_something = True
    report_path = args.report
    if report_path is None and args.run_dir:
        candidate = Path(args.run_dir) / "report.json"
        if candidate.exists() or not did_something:
            report_path = str(candidate)
    elif report_path is None and not did_something:
        report_path = str(Path(_default_out_dir()) / "report.json")
    if report_path is not None:
        if not Path(report_path).exists():
            raise BpcamError(f"report not found: {report_path} (run `bpcam analyze` first?)")
        with open(report_path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise BpcamError(f"{report_path}: not valid JSON ({exc})") from exc
        if did_something:
            print()
        print(format_report(data))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpcam",
        description="Simulate and analyse photon-pair correlations on an EMCCD array.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON run configuration (defaults are the desk-scale run)")

    p = sub.add_parser("predict", help="print the analytic expectations for a configuration")
    add_config(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="generate dark and photon frame stacks")
    add_config(p)
    p.add_argument("--out-dir", default=_default_out_dir(),
                   help=f"output directory (default ${OUTPUT_DIR_ENV} or ./bpcam-run)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--frames", type=int, default=None, help="override frames per plane")
    p.add_argument("--dark-frames", type=int, default=None, help="override dark frame count")
    p.add_argument("--plane", choices=("both", "image", "farfield"), default="both")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="correlate stacks and write the report")
    add_config(p)
    p.add_argument("--run-dir", default=None,
                   help="directory holding image.bpcm/farfield.bpcm (default output dir)")
    p.add_argument("--image", default=None, help="image-plane stack path")
    p.add_argument("--farfield", default=None, help="far-field stack path")
    p.add_argument("--out-dir", default=None, help="where to write report files")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="bootstrap resamples (0 disables error bars)")
    p.add_argument("--snr-gate", type=float, default=None,
                   help="minimum peak SNR before an EPR flag is credible")
    p.add_argument("--ignore-digest", action="store_true",
                   help="analyse stacks whose config digest does not match")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="re-render a saved report or describe a stack file")
    p.add_argument("--run-dir", default=None, help="directory holding report.json")
    p.add_argument("--report", default=None, help="path to a report.json")
    p.add_argument("--stack", default=None, help="describe a .bpcm stack file")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BpcamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
