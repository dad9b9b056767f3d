"""Camera model: exposure geometry, noise processes, dark calibration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpcam.emccd import (
    CameraParams,
    Calibration,
    _StreamHist,
    calibrate,
    calibrate_flux_equivalence,
    dark_occupancy,
    expose,
    pixel_coords,
    threshold,
)
from bpcam.errors import ParameterError
from bpcam.sampler import substream

#: threshold with 2% Gaussian exceedance, Phi^-1(0.98)
K_GAUSS_2PCT = 2.053748910631823


def quiet_camera(**overrides):
    """A camera with every stochastic nuisance turned off."""
    base = dict(
        roi=(9, 9),
        cic_prob=0.0,
        tail_prob=0.0,
        smear_prob=0.0,
        gain_dispersion=False,
        readout_sigma=1e-6,
        readout_mean=0.0,
    )
    base.update(overrides)
    return CameraParams(**base)


# -- geometry ----------------------------------------------------------------

def test_pixel_coords_centres_the_roi():
    cam = quiet_camera(roi=(5, 5))
    impacts = np.array([
        [0.0, 0.0],        # dead centre -> (2, 2)
        [7.99, -8.01],     # just inside the centre pixel's x, one row up
        [8.0, 0.0],        # first coordinate of the next column
        [-40.1, 0.0],      # off the left edge
    ])
    row, col, inside = pixel_coords(impacts, cam)
    assert col[0] == 2 and row[0] == 2
    assert col[1] == 2 and row[1] == 1
    assert col[2] == 3
    assert inside.tolist() == [True, True, True, False]


def test_expose_places_single_photon():
    cam = quiet_camera()
    frame, stats = expose(np.array([[0.0, 0.0]]), cam, substream(1, 0, 0))
    assert stats.n_in_roi == 1 and stats.n_detected == 1
    r, c = np.unravel_index(np.argmax(frame), frame.shape)
    assert (r, c) == (4, 4)
    assert frame[r, c] == pytest.approx(cam.em_gain, rel=1e-6)
    assert np.count_nonzero(frame > cam.em_gain / 2) == 1


def test_expose_drops_out_of_roi_impacts():
    cam = quiet_camera()
    far = np.array([[1e6, 0.0], [0.0, -1e6]])
    frame, stats = expose(far, cam, substream(1, 0, 1))
    assert stats.n_in_roi == 0 and stats.n_detected == 0
    assert np.all(np.abs(frame) < 1.0)


def test_quantum_efficiency_thins_detections(rng):
    cam = quiet_camera(roi=(31, 31), qe=0.5)
    impacts = rng.uniform(-200, 200, size=(4000, 2))
    _, stats = expose(impacts, cam, substream(2, 0, 0))
    n, p = stats.n_in_roi, 0.5
    se = np.sqrt(n * p * (1 - p))
    assert abs(stats.n_detected - n * p) < 4 * se


def test_smear_deposits_a_copy_one_row_down():
    cam = quiet_camera(smear_prob=1.0)
    frame, stats = expose(np.array([[0.0, 0.0]]), cam, substream(3, 0, 0))
    assert stats.n_smeared == 1
    assert frame[4, 4] == pytest.approx(cam.em_gain, rel=1e-6)
    assert frame[5, 4] == pytest.approx(cam.em_gain, rel=1e-6)
    assert np.count_nonzero(frame > cam.em_gain / 2) == 2


def test_smear_falls_off_the_bottom_edge():
    cam = quiet_camera(smear_prob=1.0)
    y_bottom = (4.0 + 0.2) * cam.pixel_pitch  # row index 8, the last row
    frame, stats = expose(np.array([[0.0, y_bottom]]), cam, substream(3, 0, 1))
    assert stats.n_smeared == 1  # the copy was made ...
    assert np.count_nonzero(frame > cam.em_gain / 2) == 1  # ... but landed outside


def test_gain_dispersion_is_exponential():
    cam = quiet_camera(roi=(61, 61), gain_dispersion=True)
    h, w = cam.roi
    # one photon per pixel on a 30 x 30 grid, so no charges ever add up
    cols, rows = np.meshgrid(np.arange(5, 35), np.arange(5, 35))
    impacts = np.column_stack([
        (cols.ravel() - w / 2 + 0.5) * cam.pixel_pitch,
        (rows.ravel() - h / 2 + 0.5) * cam.pixel_pitch,
    ])
    frame, stats = expose(impacts, cam, substream(4, 0, 0))
    assert stats.n_detected == impacts.shape[0]
    values = frame[rows, cols].ravel()  # exactly the occupied pixels
    assert values.size == impacts.shape[0]
    # exponential with mean em_gain: sd ~ mean, P(> mean) = 1/e
    assert values.mean() == pytest.approx(cam.em_gain, rel=0.12)
    assert np.mean(values > cam.em_gain) == pytest.approx(np.exp(-1), abs=0.05)


def test_full_well_clamps_before_readout():
    cam = quiet_camera(full_well=1500.0)
    impacts = np.zeros((5, 2))  # five photons on the centre pixel
    frame, _ = expose(impacts, cam, substream(5, 0, 0))
    assert frame[4, 4] == pytest.approx(1500.0, abs=1e-3)


def test_cic_events_hit_pixels_at_the_configured_probability():
    p = 0.02
    cam = quiet_camera(roi=(64, 64), cic_prob=p, em_gain=1e6,
                       gain_dispersion=True, readout_sigma=6.0, readout_mean=390.0)
    cal = Calibration(
        pixel_mean=np.full(cam.roi, 390.0), sigma_noise=6.0,
        centre=390.0,
    )
    n_frames, fired, total = 200, 0, 0
    for i in range(n_frames):
        frame, stats = expose(np.empty((0, 2)), cam, substream(6, 0, i))
        bits = threshold(frame, cal, 5.0)
        fired += int(np.count_nonzero(bits))
        total += bits.size
    occ = fired / total
    se = np.sqrt(p * (1 - p) / total)
    assert abs(occ - p) < 5 * se


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(qe=1.5),
        dict(qe=-0.1),
        dict(smear_prob=2.0),
        dict(cic_prob=1.0),
        dict(tail_prob=-0.2),
        dict(readout_sigma=0.0),
        dict(em_gain=0.5),
        dict(tail_scale=0.0),
        dict(full_well=-1.0),
        dict(roi=(0, 10)),
        dict(pixel_pitch=0.0),
    ],
)
def test_camera_validation(kwargs):
    with pytest.raises(ParameterError):
        CameraParams(**kwargs)


# -- calibration ---------------------------------------------------------------

def make_darks(n, cam, seed=11):
    return [expose(np.empty((0, 2)), cam, substream(seed, 0, i))[0] for i in range(n)]


def test_calibrate_recovers_pure_gaussian_noise():
    cam = CameraParams(roi=(64, 64), cic_prob=0.0, tail_prob=0.0)
    darks = make_darks(300, cam)
    cal = calibrate(darks)
    assert cal.centre == pytest.approx(390.0, abs=0.05)
    assert cal.pixel_mean.mean() == pytest.approx(390.0, abs=0.05)
    assert cal.sigma_noise == pytest.approx(6.0, abs=0.1)
    assert cal.n_unclipped_fallback == 0


def test_calibrate_is_robust_to_cic_and_tail():
    """Spurious-charge contamination must not drag the Gaussian-core fit."""
    cam = CameraParams(roi=(64, 64))  # defaults: 0.5% CIC + 0.5% tail
    cal = calibrate(make_darks(300, cam))
    assert cal.centre == pytest.approx(390.0, abs=0.15)
    assert cal.sigma_noise == pytest.approx(6.0, abs=0.2)


def test_calibrate_needs_at_least_two_frames():
    cam = CameraParams(roi=(8, 8))
    with pytest.raises(ParameterError):
        calibrate(make_darks(1, cam))


def test_calibrate_rejects_one_shot_generators():
    cam = CameraParams(roi=(8, 8))
    gen = iter(make_darks(10, cam, seed=1))
    with pytest.raises(ParameterError, match="re-iterable"):
        calibrate(gen)


def test_calibrate_rejects_mismatched_shapes():
    cam = CameraParams(roi=(8, 8))
    frames = make_darks(3, cam) + [np.zeros((4, 4))]
    with pytest.raises(ParameterError):
        calibrate(frames)


def test_flux_equivalence_matches_the_gaussian_quantile():
    cam = CameraParams(roi=(64, 64), cic_prob=0.0, tail_prob=0.0)
    darks = make_darks(400, cam)
    cal = calibrate(darks)
    k = calibrate_flux_equivalence(darks, 0.02, calibration=cal)
    assert k == pytest.approx(K_GAUSS_2PCT, abs=0.05)
    assert dark_occupancy(darks, cal, k) == pytest.approx(0.02, abs=0.002)


def test_flux_equivalence_k_rises_with_contamination():
    """CIC/tail counts force a higher threshold for the same dark occupancy."""
    cam = CameraParams(roi=(64, 64))
    darks = make_darks(400, cam)
    cal = calibrate(darks)
    k = calibrate_flux_equivalence(darks, 0.02, calibration=cal)
    assert k > K_GAUSS_2PCT + 0.05
    assert dark_occupancy(darks, cal, k) == pytest.approx(0.02, abs=0.002)


def test_flux_equivalence_validates_target():
    cam = CameraParams(roi=(8, 8))
    darks = make_darks(4, cam)
    cal = calibrate(darks)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ParameterError):
            calibrate_flux_equivalence(darks, bad, calibration=cal)


def test_stream_hist_counts_match_three_masks(rng):
    """One bincount over clipped indices counts as the under/over/in-range masks do."""
    lo, hi, nbins = -3.0, 5.0, 16
    width = (hi - lo) / nbins
    hist = _StreamHist(lo, hi, nbins)
    batches = [rng.uniform(-6.0, 8.0, size=(20, 25)),
               np.array([lo, hi, lo - 1e-9, hi + 1e-9, lo - 400.0, hi + 400.0, lo + width]),
               rng.normal(1.0, 3.0, size=300)]
    want = np.zeros(nbins, dtype=np.int64)
    under = over = 0
    for values in batches:
        hist.add(values)
        idx = np.floor((values.ravel() - lo) / width).astype(np.int64)
        low, high = idx < 0, idx >= nbins
        under += int(np.count_nonzero(low))
        over += int(np.count_nonzero(high))
        want += np.bincount(idx[~(low | high)], minlength=nbins)
    np.testing.assert_array_equal(hist.counts, want)
    assert (hist.under, hist.over) == (under, over)
    assert under >= 2 and over >= 3
    assert hist.total == sum(v.size for v in batches)


def test_threshold_behaviour():
    cal = Calibration(
        pixel_mean=np.full((4, 4), 100.0), sigma_noise=5.0,
        centre=100.0,
    )
    frame = np.full((4, 4), 100.0)
    frame[1, 2] = 120.0
    bits = threshold(frame, cal, 2.0)
    assert isinstance(bits, np.ndarray) and bits.dtype == np.bool_
    assert bits.shape == frame.shape
    assert bits.sum() == 1 and bits[1, 2]
    assert bits.mean() == pytest.approx(1 / 16)
    with pytest.raises(ParameterError):
        threshold(np.zeros((3, 3)), cal, 2.0)
    with pytest.raises(ParameterError):
        threshold(frame, cal, float("nan"))


@given(k_lo=st.floats(0.0, 3.0), dk=st.floats(0.1, 3.0), seed=st.integers(0, 100))
def test_threshold_monotone_in_k(k_lo, dk, seed):
    cal = Calibration(
        pixel_mean=np.zeros((12, 12)), sigma_noise=1.0,
        centre=0.0,
    )
    frame = substream(seed, 9).normal(0.0, 3.0, size=(12, 12))
    lo = threshold(frame, cal, k_lo)
    hi = threshold(frame, cal, k_lo + dk)
    assert not np.any(hi & ~lo)  # raising k can only turn pixels off
