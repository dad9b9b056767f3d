"""Shared fixtures: seeded RNGs and the session-wide reference runs.

The expensive end-to-end acquisitions (the full desk-scale run and the
low-heralding control) are session-scoped so the acceptance tests share a
single simulation each; unit tests never trigger them.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bpcam import RunConfig
from bpcam.pipeline import run

settings.register_profile(
    "bpcam",
    deadline=None,  # Gaussian fits and FFTs blow the default 200 ms budget
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bpcam")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """The reference acquisition at full scale: defaults, both planes.

    Returns (config, SimulateResult, AnalysisProducts, wall_seconds); the
    wall clock covers simulation plus analysis, measured externally.
    """
    cfg = RunConfig()
    out = tmp_path_factory.mktemp("desk-run")
    t0 = time.perf_counter()
    sim, products = run(cfg, out)
    wall = time.perf_counter() - t0
    return cfg, sim, products, wall


@pytest.fixture(scope="session")
def control_run(tmp_path_factory):
    """Low-heralding control: identical photon flux, pairs broken by loss.

    Thinning each photon to 2% survival after the crystal keeps the camera
    occupancy equal to the reference run while suppressing surviving pairs
    by eta^2, so the correlation peaks drown in accidentals.  Short on
    purpose: the point is that a featureless stack must not flag.
    """
    cfg = RunConfig().replace(
        heralding_efficiency=0.02,
        attenuation_mode="after_crystal",
        n_frames=12,
        n_dark_frames=400,
        seed=12,
        n_bootstrap=0,
        n_blocks=2,
    )
    out = tmp_path_factory.mktemp("control-run")
    sim, products = run(cfg, out)
    return cfg, sim, products


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """A fast but physically meaningful run for integration tests.

    101 x 101 pixels and 600 frames keep simulate + analyze under a few
    seconds while still producing detectable correlation peaks.
    """
    cfg = RunConfig().replace(
        roi_height=101,
        roi_width=101,
        n_frames=600,
        n_dark_frames=200,
        n_bootstrap=0,
        seed=11,
    )
    out = tmp_path_factory.mktemp("small-run")
    sim, products = run(cfg, out)
    return cfg, sim, products
