"""One round of a workload in a fresh interpreter: config to written report.

Run from the root of a checkout:

    python3 perfbench/round.py --workload desk --seed 7 --dir DIR [--trace] [--reference]

It imports `bpcam.pipeline` from `src/`, builds the workload's config and
records the monotonic clock at that moment (`ready`), so the caller can
time the set-up from before it started this process.  Then it runs
`simulate`, `analyze` and `report.write_report`
into DIR/out, saves the subtracted maps to DIR/maps.npz for the checks, and
writes its timings to DIR/round.json.  `--trace` adds the per-layer spans
of `tracing.Tracer`, a call-by-call re-run of sampled plane frames, and a
2-frame `simulate` that measures its fixed cost.  `--reference` keeps the
`RunConfig()` values of the fields `desk` scales (frames, darks,
resamples, heralding efficiency): for `desk` that is the reference run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import bpcam  # noqa: E402
import bpcam.pipeline as pipeline  # noqa: E402
from bpcam import RunConfig, report  # noqa: E402
from workloads import config_fields  # noqa: E402

#: plane frames re-run call by call in a traced round
RERUN_FRAMES = 100


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(config, work: Path, tracer=None) -> dict:
    """simulate, analyze and write_report into work/out; maps to work/maps.npz."""
    out = work / "out"
    with tracer.installed() if tracer else contextlib.nullcontext():
        mark = tracer.mark if tracer else (lambda name: None)
        t0 = time.perf_counter()
        mark("start")
        sim = pipeline.simulate(config, out)
        t1 = time.perf_counter()
        mark("simulated")
        products = pipeline.analyze(sim.stack_paths["image"], sim.stack_paths["farfield"],
                                    config)
        t2 = time.perf_counter()
        mark("analyzed")
        report.write_report(products.report, out)
        t3 = time.perf_counter()
        mark("written")
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    np.savez(work / "maps.npz",
             **{f"{name}_values": m.values for name, m in products.maps.items()},
             **{f"{name}_mask": m.mask for name, m in products.maps.items()})
    return {
        "config": dataclasses.asdict(config),
        "simulate_s": t1 - t0,
        "analyze_s": t2 - t1,
        "write_s": t3 - t2,
        "wall_s": t3 - t0,
        "peak_rss_mb": kib * 1024 / 1e6,
        "disk_mb": dir_bytes(out) / 1e6,
        "warnings": products.warnings,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)

    if Path(bpcam.__file__).resolve().parent != SRC / "bpcam":
        print(f"bpcam was imported from {bpcam.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    config = RunConfig(**config_fields(args.workload, args.seed, args.reference))
    ready = time.monotonic()

    work = Path(args.dir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    record = {"ready": ready, **run_round(config, work, tracer)}

    if tracer:
        stack_bytes = sum(os.path.getsize(work / "out" / f)
                          for f in ("dark.bpcm", "image.bpcm", "farfield.bpcm"))
        record["rerun_frames"] = tracer.rerun_sample(config, work, RERUN_FRAMES)
        t4 = time.perf_counter()
        pipeline.simulate(config.replace(n_frames=2, n_dark_frames=2), work / "fixed")
        record["simulate_fixed_s"] = time.perf_counter() - t4
        record["layers"] = tracer.metrics(stack_bytes)
        record["marks"] = tracer.marks

    with open(work / "round.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
