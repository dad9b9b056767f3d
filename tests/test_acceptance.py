"""Acceptance gate: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they happen (they also appear under -rA).  The expensive fixtures
(`desk_run`, `control_run`) are session-scoped and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from bpcam import RunConfig
from bpcam.correlate import Mode, StackAccumulator
from bpcam.emccd import (
    calibrate,
    calibrate_flux_equivalence,
    dark_occupancy,
    expose,
)
from bpcam.model import Plane, predict
from bpcam.sampler import sample_pairs, substream

HBAR2_BOUND = 0.25


def _ok(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. analytic predictions: fast and inside the stated bands

def test_criterion_1_analytic_predictions():
    cfg = RunConfig()
    t0 = time.perf_counter()
    pred = predict(cfg)
    dt = time.perf_counter() - t0
    d = pred.as_dict()

    assert dt < 1.0
    assert d["sigma_minus_um"] == pytest.approx(11.3, abs=0.2)
    assert d["sigma_pos_um"] == pytest.approx(28.3, abs=0.5)
    assert d["sigma_mom_um"] == pytest.approx(17.1, abs=0.3)
    assert 3300 <= d["mode_count"] <= 3500
    assert d["epr_product_hbar2"] == pytest.approx(2.95e-4, abs=0.05e-4)
    _ok(1, f"analytic predictions in band ({dt * 1e3:.1f} ms)")


# ---------------------------------------------------------------------------
# 2. desk-scale run: wall clock, peak significance, width recovery

def test_criterion_2_desk_scale_run(desk_run):
    cfg, sim, products, wall = desk_run
    rep = products.report

    assert wall < 120.0, (f"desk run {wall:.1f} s (simulate {sim.elapsed_s:.1f} s, "
                          f"analyze {products.elapsed_s:.1f} s)")
    assert rep.snr_pos > 5.0
    assert rep.snr_mom > 5.0
    assert rep.sigma_pos_um == pytest.approx(rep.prediction["sigma_pos_um"], rel=0.25)
    assert rep.sigma_mom_um == pytest.approx(rep.prediction["sigma_mom_um"], rel=0.25)
    _ok(2, f"desk run in {wall:.1f} s; snr {rep.snr_pos:.0f}/{rep.snr_mom:.0f}; "
           f"widths {rep.sigma_pos_um:.2f}/{rep.sigma_mom_um:.2f} um")


# ---------------------------------------------------------------------------
# 3. the recovered variance product beats 1/4 by at least two orders

def test_criterion_3_epr_violation_margin(desk_run):
    _, _, products, _ = desk_run
    rep = products.report
    product = rep.epr_product_hbar2

    assert np.isfinite(product)
    assert product < HBAR2_BOUND / 100.0
    assert rep.epr_violated
    _ok(3, f"variance product {product:.3e} hbar^2 "
           f"({HBAR2_BOUND / product:.0f}x below the bound)")


# ---------------------------------------------------------------------------
# 4a. low-heralding control at identical flux must not flag

def test_criterion_4_low_heralding_control(desk_run, control_run):
    _, _, desk_products, _ = desk_run
    _, _, ctrl_products = control_run
    ctrl = ctrl_products.report
    desk = desk_products.report

    assert ctrl.snr_pos < 2.0
    assert ctrl.snr_mom < 2.0
    assert not ctrl.epr_violated
    # the control is a true control: same camera occupancy, either plane
    for plane in ("image", "farfield"):
        assert ctrl.occupancy[plane] == pytest.approx(desk.occupancy[plane], rel=0.05)
    _ok(4, f"control snr {ctrl.snr_pos:.2f}/{ctrl.snr_mom:.2f} < 2, no flag, "
           f"occupancy matched within 5%")


# ---------------------------------------------------------------------------
# 4b. charge smear leaves its fingerprint where the model says it must

def test_criterion_4_smear_artifact_is_vertical(desk_run):
    cfg, _, products, _ = desk_run
    sub = products.maps["image_difference"]
    h, w = sub.roi
    values = sub.values

    # background statistics from the same annulus the SNR uses
    yy, xx = np.indices(values.shape)
    cheb = np.maximum(np.abs(yy - (h - 1)), np.abs(xx - (w - 1)))
    bg = values[(cheb >= 60) & (cheb <= 150) & ~sub.mask]
    bg_mean, bg_sigma = bg.mean(), bg.std()

    vertical = (np.array([values[h - 2, w - 1], values[h, w - 1]]) - bg_mean) / bg_sigma
    horizontal = (np.array([values[h - 1, w - 2], values[h - 1, w]]) - bg_mean) / bg_sigma

    assert cfg.smear_prob_image > 0
    assert vertical.min() > 100.0          # a gross, unmistakable artifact
    assert vertical.mean() > 2.0 * horizontal.mean()  # and a directional one
    _ok(4, f"smear artifact at dy'=+/-1: {vertical.mean():.0f} bg sigma vs "
           f"{horizontal.mean():.0f} horizontally")


# ---------------------------------------------------------------------------
# 5. the spectral and sparse correlation routes agree bin-exactly

def _accumulate(frames, mode, sparse_threshold):
    acc = StackAccumulator(frames.shape[1:], mode, sparse_threshold=sparse_threshold)
    for f in frames:
        acc.add(f)
    return acc.finalize()


def test_criterion_5_route_equivalence():
    rng = np.random.default_rng(20260814)
    checked = 0
    for i in range(100):
        h, w = (int(v) for v in rng.integers(2, 257, size=2))
        n = int(rng.integers(3, 7))
        occ = rng.uniform(0.0, min(0.1, 250.0 / (h * w)))
        frames = rng.random((n, h, w)) < occ

        for mode in Mode:
            via_sparse, via_fft = (_accumulate(frames, mode, threshold)
                                   for threshold in (10**9, 0))
            a, b = via_sparse.map, via_fft.map
            assert np.array_equal(a.signal, b.signal), (i, mode)
            assert np.array_equal(a.reference, b.reference), (i, mode)
            assert np.array_equal(via_sparse.ones_per_frame, via_fft.ones_per_frame)
        checked += 1
    assert checked == 100
    _ok(5, "sparse and spectral accumulators agree bin-exactly on 100 random stacks")


# ---------------------------------------------------------------------------
# 6. pair sampler variances match the closed form within 3 standard errors

def test_criterion_6_sampler_variances():
    cfg = RunConfig()
    source = cfg.source()
    n = 1_000_000
    worst = 0.0
    for code, plane in ((1, Plane.IMAGE), (2, Plane.FAR_FIELD)):
        optics = cfg.optics(plane)
        r1, r2 = sample_pairs(source, optics, n, substream(2026, code))
        if plane is Plane.IMAGE:
            scale = optics.magnification
            sum_sigma, diff_sigma = source.sigma_plus * scale, source.sigma_minus * scale
        else:
            scale = optics.effective_focal / source.wavenumber
            sum_sigma, diff_sigma = scale / source.sigma_plus, scale / source.sigma_minus
        for coord, sigma in (((r1 + r2), sum_sigma), ((r1 - r2), diff_sigma)):
            for axis in (0, 1):
                got = coord[:, axis].var(ddof=1)
                se = sigma**2 * math.sqrt(2.0 / (n - 1))
                z = abs(got - sigma**2) / se
                worst = max(worst, z)
                assert z < 3.0, (plane, axis, got, sigma**2)
    _ok(6, f"sum/diff variances match in both planes and axes (worst |z| = {worst:.2f})")


# ---------------------------------------------------------------------------
# 7. entanglement dimensionality lands on the mode count, coverage-corrected

def test_criterion_7_dimensionality(desk_run):
    cfg, _, products, _ = desk_run
    rep = products.report
    pred = rep.prediction
    extent_um = cfg.roi_width * cfg.pixel_pitch  # square roi

    def coverage(narrow_um: float, broad_um: float) -> float:
        marginal = math.hypot(narrow_um, broad_um) / 2.0
        return math.erf(extent_um / (2.0 * math.sqrt(2.0) * marginal))

    mag = cfg.magnification
    ff = cfg.effective_focal / cfg.source().wavenumber
    cov_pos = coverage(pred["sigma_minus_um"] * mag, pred["sigma_plus_um"] * mag)
    cov_mom = coverage(ff / pred["sigma_plus_um"], ff / pred["sigma_minus_um"])

    ref_pos = pred["mode_count"] * cov_pos**2
    ref_mom = pred["mode_count"] * cov_mom**2

    assert rep.d_pos == pytest.approx(ref_pos, rel=0.30)
    assert rep.d_mom == pytest.approx(ref_mom, rel=0.30)
    assert 1750.0 <= rep.d_mom <= 3250.0
    _ok(7, f"d_pos {rep.d_pos:.0f} (ref {ref_pos:.0f}), "
           f"d_mom {rep.d_mom:.0f} (ref {ref_mom:.0f})")


# ---------------------------------------------------------------------------
# 8. dark-stack calibration recovers the camera noise model

class _LazyDarks:
    """Re-iterable dark-frame source; frames regenerate from substreams."""

    def __init__(self, cam, n_frames: int, seed: int):
        self.cam = cam
        self.n_frames = n_frames
        self.seed = seed

    def __iter__(self):
        for i in range(self.n_frames):
            yield expose(np.empty((0, 2)), self.cam, substream(self.seed, 0, i))[0]


def test_criterion_8_dark_calibration():
    cfg = RunConfig()
    darks = _LazyDarks(cfg.camera(None), 10_000, seed=40)

    cal = calibrate(darks)
    assert cal.centre == pytest.approx(cfg.readout_mean, abs=0.1)
    assert float(cal.pixel_mean.mean()) == pytest.approx(cfg.readout_mean, abs=0.1)
    assert cal.sigma_noise == pytest.approx(cfg.readout_sigma, abs=0.1)

    k = calibrate_flux_equivalence(darks, cfg.target_occupancy, calibration=cal)
    occ = dark_occupancy(darks, cal, k)
    assert occ == pytest.approx(cfg.target_occupancy, abs=0.002)
    _ok(8, f"centre {cal.centre:.3f}, sigma {cal.sigma_noise:.3f}, "
           f"k {k:.3f} -> dark occupancy {occ:.4f}")
