"""The benchmark's workloads: `RunConfig` overrides plus what each must show.

Every workload keeps the `RunConfig()` defaults except the fields listed
here.  `route` names the accumulation route every frame must take.
"""

WORKLOADS = {
    # the reference run's 201 x 201 region, occupancy and spectral route at a
    # tenth of its frames (2,000 per plane) and darks (200), with 3 bootstrap
    # resamples; every photon keeps its partner (heralding_efficiency 1
    # against 0.8), so the fits have more signal and the bootstrap's cost
    # does not swing with the seed as it does at these counts with 0.8
    "desk": {
        "overrides": {"n_frames": 2000, "n_dark_frames": 200, "n_bootstrap": 3,
                      "heralding_efficiency": 1.0},
        "route": "spectral",
    },
    # ~120 fired pixels per frame, under sparse_threshold (256): every frame
    # takes the pair-counting route; 10 resamples keep the accumulation the
    # larger part of analyze
    "sparse": {
        "overrides": {"roi_height": 101, "roi_width": 101, "photons_per_pixel": 0.008,
                      "target_occupancy": 0.008, "n_frames": 2000, "n_dark_frames": 500,
                      "n_bootstrap": 10},
        "route": "sparse",
    },
}


#: the fields `desk` changes from the reference run
SCALED = ("n_frames", "n_dark_frames", "n_bootstrap", "heralding_efficiency")


def config_fields(workload: str, seed: int, reference: bool = False) -> dict:
    """The `RunConfig` keyword arguments of one workload at one seed.

    `reference` keeps the `RunConfig()` values of the `SCALED` fields: for
    `desk` that is the full reference run.
    """
    overrides = WORKLOADS[workload]["overrides"]
    if reference:
        overrides = {k: v for k, v in overrides.items() if k not in SCALED}
    return {**overrides, "seed": int(seed)}
