#!/usr/bin/env python3
"""Seeded sweep of the report's figures against the closed form.

For each seed, simulates the reference configuration at reduced scale
(2,000 frames per plane, 400 darks, 100 bootstrap resamples), analyses it, and records per seed:

  * the narrow figures (sigma_pos_um, sigma_mom_um, cond_var_x_um2,
    cond_var_p_hbar2_per_um2, epr_product_hbar2) and their bootstrap
    errors;
  * d_pos, d_mom and their bootstrap errors, and the failed resamples of
    each plane;
  * each axis's sigma_broad_um and sigma_marginal_um from the report's
    dimensionality detail;
  * the report's `prediction`: `model.predict`'s closed form of each of
    these, the mode counts and the broad and marginal widths as detected.

Everything goes to one JSON file, with the median and range over the seeds
of each figure's ratio to its closed form, the median of |ratio - 1|, and
for the narrow figures the share of seeds whose closed form lies within
two bootstrap errors:

    PYTHONPATH=src python3 scripts/sweep_mode_counts.py --seeds 1-10 --out sweep.json

Each seed takes about 10-20 s on a 2-vCPU VM; the stacks go to a temporary
directory that is removed after each seed.
"""

import argparse
import json
import math
import statistics
import sys
import tempfile
import time

from bpcam import RunConfig
from bpcam.pipeline import run

PLANES = (("image", "pos"), ("farfield", "mom"))
#: the narrow figures, each under the same key in the report and in its prediction
NARROW = ("sigma_pos_um", "sigma_mom_um", "cond_var_x_um2", "cond_var_p_hbar2_per_um2",
          "epr_product_hbar2")
#: the reduced scale of every seed: frames per plane, dark frames, bootstrap resamples
SETTINGS = {"frames": 2000, "dark_frames": 400, "bootstrap": 100}


def parse_seeds(text: str) -> list:
    """"1-10" or "1,4,7" (or a mix) -> sorted unique seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def one_seed(cfg: RunConfig) -> dict:
    with tempfile.TemporaryDirectory(prefix="bpcam-sweep-") as work:
        t0 = time.perf_counter()
        _, products = run(cfg, work)
        wall = time.perf_counter() - t0
    return row_of(cfg, products.report.as_dict(), wall)


def row_of(cfg: RunConfig, report: dict, wall_s: float) -> dict:
    """One seed's record from its report (`EprReport.as_dict()`)."""
    nan = float("nan")
    row = {"seed": cfg.seed, "wall_s": wall_s, "prediction": report["prediction"],
           "narrow": {key: {"value": report[key], "err": report["errors"].get(key, nan)}
                      for key in NARROW}}
    for plane, coord in PLANES:
        detail = report["detail"]
        dims = detail.get(f"dimensionality_{plane}", {})
        boot = detail.get(f"bootstrap_{plane}", {})
        row[plane] = {
            f"d_{coord}": report[f"d_{coord}"],
            f"d_{coord}_err": report["errors"].get(f"d_{coord}", float("nan")),
            "resamples_failed": boot.get("resamples_failed"),
            "axes": {axis: {key: est[key] for key in ("sigma_broad_um", "sigma_marginal_um")}
                     for axis, est in dims.items()},
        }
    return row


def summarise(rows: list) -> dict:
    """Median, min and max over the seeds of each figure / its closed form,
    the median of |ratio - 1|, and for the narrow figures the median error
    and the share of seeds whose closed form lies within two errors."""
    ratios: dict = {}
    for row in rows:
        want = row["prediction"]
        for key, got in row["narrow"].items():
            ratios.setdefault(key, []).append(got["value"] / want[key])
        for plane, coord in PLANES:
            got = row[plane]
            ratios.setdefault(f"d_{coord}", []).append(got[f"d_{coord}"] / want[f"d_{coord}"])
            for axis, est in got["axes"].items():
                for width in ("broad", "marginal"):
                    ratios.setdefault(f"{plane}.{axis}.sigma_{width}_um", []).append(
                        est[f"sigma_{width}_um"] / want[f"sigma_{width}_{plane}_um"])
    out = {}
    for key, vals in ratios.items():
        finite = [v for v in vals if math.isfinite(v)]
        out[key] = {"median": statistics.median(finite) if finite else float("nan"),
                    "min": min(finite, default=float("nan")),
                    "max": max(finite, default=float("nan")),
                    "median_abs_dev": (statistics.median(abs(v - 1.0) for v in finite)
                                       if finite else float("nan")),
                    "n_finite": len(finite)}
    for key in NARROW:
        pairs = [(row["narrow"][key], row["prediction"][key]) for row in rows]
        out[key]["err_median"] = statistics.median(got["err"] for got, _ in pairs)
        out[key]["within_2se"] = sum(abs(got["value"] - want) <= 2.0 * got["err"]
                                     for got, want in pairs) / len(rows)
    for plane, coord in PLANES:
        errs = [row[plane][f"d_{coord}_err"] for row in rows]
        out[f"d_{coord}_err"] = {"median": statistics.median(errs)}
        failed = [row[plane]["resamples_failed"] or 0 for row in rows]
        out[f"{plane}.resamples_failed"] = {"total": sum(failed), "max": max(failed)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help='seeds, e.g. "1-10" or "1,4,7"')
    ap.add_argument("--out", default="sweep_mode_counts.json", help="JSON file to write")
    args = ap.parse_args(argv)

    rows = []
    for seed in parse_seeds(args.seeds):
        cfg = RunConfig().replace(seed=seed, n_frames=SETTINGS["frames"],
                                  n_dark_frames=SETTINGS["dark_frames"],
                                  n_bootstrap=SETTINGS["bootstrap"])
        row = one_seed(cfg)
        rows.append(row)
        epr = row["narrow"]["epr_product_hbar2"]
        print(f"seed {seed}: EPR product {epr['value']:.4g} +- {epr['err']:.2g}, "
              f"d_pos {row['image']['d_pos']:.0f} "
              f"+- {row['image']['d_pos_err']:.0f}, d_mom {row['farfield']['d_mom']:.0f} "
              f"+- {row['farfield']['d_mom_err']:.0f}, failed resamples "
              f"{row['image']['resamples_failed']}/{row['farfield']['resamples_failed']} "
              f"({row['wall_s']:.1f} s)", flush=True)
    result = {"settings": SETTINGS, "seeds": rows, "summary": summarise(rows)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
