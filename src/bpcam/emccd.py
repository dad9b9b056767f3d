"""EMCCD exposure, noise calibration, and photon-counting threshold.

Signal chain per frame, in electrons throughout:

  1. photon impacts -> pixels (floor binning on a ROI centred at 0,0),
     Bernoulli detection at qe;
  2. each photoelectron multiplied by the EM register: Exponential with mean
     em_gain (single-electron limit), optionally deterministic;
  3. vertical charge smear: with probability smear_prob a photoelectron
     deposits a copy of its amplified charge one row toward readout;
  4. clock-induced charge: spurious electrons as a per-pixel Poisson
     process whose rate is set so P(at least one event) = cic_prob, each
     amplified like a photoelectron;
  5. charge clamped at full_well, then per-pixel readout noise
     Normal(readout_mean, readout_sigma^2) plus Exponential(tail_scale)
     excursions (the long positive tail of real dark histograms), again a
     per-pixel Poisson process with P(>= 1) = tail_prob.

Photon counting thresholds at pixel_mean + k * sigma_noise; `calibrate`
recovers the per-pixel means and the Gaussian core width from a dark stack,
robustly (clipped means, MAD scale) so the CIC/tail contamination does not
bias them.  `calibrate_flux_equivalence` inverts the measured dark exceedance
to the threshold k whose noise occupancy matches a target photon flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

#: MAD -> sigma for a Gaussian core: 1 / Phi^-1(3/4)
_MAD_TO_SIGMA = 1.0 / 0.6744897501960817

#: `calibrate` averages each pixel over the dark values within this many scales of the centre
CLIP_SIGMAS = 5.0


@dataclass(frozen=True)
class CameraParams:
    """EMCCD geometry and noise model.  Lengths um, charges electrons."""

    pixel_pitch: float = 16.0
    roi: tuple[int, int] = (201, 201)  # (height, width) in pixels
    qe: float = 1.0
    readout_mean: float = 390.0
    readout_sigma: float = 6.0
    em_gain: float = 1000.0
    gain_dispersion: bool = True  # False: every photoelectron adds exactly em_gain
    cic_prob: float = 0.005
    tail_prob: float = 0.005
    tail_scale: float = 30.0
    smear_prob: float = 0.0
    full_well: float = 5.0e5

    def __post_init__(self):
        h, w = self.roi
        if not (isinstance(h, int) and isinstance(w, int) and h >= 1 and w >= 1):
            raise ParameterError(f"roi must be integer (height, width) >= 1, got {self.roi!r}")
        if not self.pixel_pitch > 0:
            raise ParameterError("pixel_pitch must be > 0")
        for name in ("qe", "smear_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must be in [0, 1], got {v!r}")
        for name in ("cic_prob", "tail_prob"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ParameterError(f"{name} must be in [0, 1), got {v!r}")
        if not math.isfinite(self.readout_mean):
            raise ParameterError(f"readout_mean must be finite, got {self.readout_mean!r}")
        if not self.readout_sigma > 0:
            raise ParameterError("readout_sigma must be > 0")
        if not self.em_gain >= 1.0:
            raise ParameterError("em_gain must be >= 1")
        if not self.tail_scale > 0:
            raise ParameterError("tail_scale must be > 0")
        if not self.full_well > 0:
            raise ParameterError("full_well must be > 0")


@dataclass
class ExposeStats:
    """Bookkeeping from one exposure (for flux/occupancy accounting)."""

    n_in_roi: int = 0
    n_detected: int = 0
    n_smeared: int = 0


def pixel_coords(impacts: np.ndarray, cam: CameraParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map impact coordinates (m, 2) of (x, y) um to (row, col) with an in-ROI mask.

    The ROI is centred on the optical axis: col = floor(x / pitch + W/2), so
    the centre pixel spans [-pitch/2, +pitch/2) on each axis.
    """
    h, w = cam.roi
    col = np.floor(impacts[:, 0] / cam.pixel_pitch + w / 2.0).astype(np.int64)
    row = np.floor(impacts[:, 1] / cam.pixel_pitch + h / 2.0).astype(np.int64)
    inside = (col >= 0) & (col < w) & (row >= 0) & (row < h)
    return row, col, inside


def expose(
    impacts: np.ndarray, cam: CameraParams, rng: np.random.Generator
) -> tuple[np.ndarray, ExposeStats]:
    """Expose one frame; returns (raw frame in electrons float64, stats).

    `impacts` is an (m, 2) array of detector-plane (x, y) in um; out-of-ROI
    impacts are dropped (counted in stats).
    """
    impacts = np.asarray(impacts, dtype=np.float64).reshape(-1, 2)
    h, w = cam.roi
    stats = ExposeStats()
    charge = np.zeros((h, w), dtype=np.float64)

    if impacts.shape[0]:
        row, col, inside = pixel_coords(impacts, cam)
        row, col = row[inside], col[inside]
        stats.n_in_roi = row.size
        if cam.qe < 1.0:
            keep = rng.random(row.size) < cam.qe
            row, col = row[keep], col[keep]
        stats.n_detected = row.size
        if row.size:
            if cam.gain_dispersion:
                gains = rng.standard_exponential(row.size) * cam.em_gain
            else:
                gains = np.full(row.size, cam.em_gain)
            np.add.at(charge, (row, col), gains)
            if cam.smear_prob > 0.0:
                smear = rng.random(row.size) < cam.smear_prob
                srow = row[smear] + 1  # one row toward the readout register
                scol = col[smear]
                sg = gains[smear]
                ok = srow < h
                stats.n_smeared = int(np.count_nonzero(smear))
                np.add.at(charge, (srow[ok], scol[ok]), sg[ok])

    # CIC and tail events are sparse (p ~ 1e-2): draw the per-frame event
    # count and scatter, instead of thresholding a full-frame uniform draw.
    # Event counts are Poisson with rate -log(1 - p) per pixel, which keeps
    # P(a pixel sees at least one event) exactly p.
    if cam.cic_prob > 0.0:
        n_cic = int(rng.poisson(-math.log1p(-cam.cic_prob) * h * w))
        if n_cic:
            idx = rng.integers(0, h * w, size=n_cic)
            if cam.gain_dispersion:
                cic = rng.standard_exponential(n_cic) * cam.em_gain
            else:
                cic = np.full(n_cic, cam.em_gain)
            np.add.at(charge.ravel(), idx, cic)

    np.minimum(charge, cam.full_well, out=charge)
    noise = rng.standard_normal((h, w), dtype=np.float32)
    np.multiply(noise, np.float32(cam.readout_sigma), out=noise)
    charge += noise
    charge += cam.readout_mean
    if cam.tail_prob > 0.0:
        n_tail = int(rng.poisson(-math.log1p(-cam.tail_prob) * h * w))
        if n_tail:
            idx = rng.integers(0, h * w, size=n_tail)
            np.add.at(charge.ravel(), idx,
                      rng.standard_exponential(n_tail) * cam.tail_scale)
    return charge, stats


# ---------------------------------------------------------------------------
# calibration

@dataclass
class Calibration:
    """Dark-stack calibration: per-pixel background and global noise width."""

    pixel_mean: np.ndarray  # (H, W) electrons
    sigma_noise: float  # electrons, Gaussian-core width
    centre: float  # global robust centre used for clipping
    n_unclipped_fallback: int = 0  # pixels that never fell inside the window


class _StreamHist:
    """Fixed-bin histogram accumulated over streamed arrays."""

    def __init__(self, lo: float, hi: float, nbins: int):
        self.lo, self.hi, self.nbins = float(lo), float(hi), int(nbins)
        self.width = (self.hi - self.lo) / self.nbins
        self.counts = np.zeros(self.nbins, dtype=np.int64)
        self.under = 0
        self.over = 0

    def add(self, values: np.ndarray):
        """Count finite values: indices clipped to -1 and nbins count as under and over."""
        idx = np.floor((np.asarray(values).ravel() - self.lo) / self.width)
        np.clip(idx, -1, self.nbins, out=idx)
        c = np.bincount(idx.astype(np.int64) + 1, minlength=self.nbins + 2)
        self.under += int(c[0])
        self.over += int(c[-1])
        self.counts += c[1:-1]

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.under + self.over

    def cdf(self, x: float) -> float:
        """P(value <= x), linear interpolation inside bins."""
        if x < self.lo:
            return self.under / self.total if self.total else 0.0
        if x >= self.hi:
            return (self.total - self.over) / self.total if self.total else 0.0
        pos = (x - self.lo) / self.width
        i = int(pos)
        cum = self.under + int(self.counts[:i].sum()) + self.counts[i] * (pos - i)
        return cum / self.total

    def quantile(self, q: float) -> float:
        """Inverse of cdf with interpolation; q in (0, 1)."""
        target = q * self.total
        cum = self.under
        if target <= cum:
            return self.lo
        c = np.concatenate([[self.under], self.under + np.cumsum(self.counts)])
        i = int(np.searchsorted(c, target, side="right")) - 1
        if i >= self.nbins:
            return self.hi
        inbin = self.counts[i]
        frac = 0.0 if inbin == 0 else (target - c[i]) / inbin
        return self.lo + (i + frac) * self.width

    def mad(self) -> float:
        """Median absolute deviation about the histogram median."""
        med = self.quantile(0.5)
        lo_m, hi_m = 0.0, self.hi - self.lo
        for _ in range(60):
            mid = 0.5 * (lo_m + hi_m)
            if self.cdf(med + mid) - self.cdf(med - mid) >= 0.5:
                hi_m = mid
            else:
                lo_m = mid
        return 0.5 * (lo_m + hi_m)


def _iter_checked(frames, expected_shape=None):
    n = 0
    for f in frames:
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2:
            raise ParameterError(f"dark frames must be 2-D, got shape {f.shape}")
        if expected_shape is None:
            expected_shape = f.shape
        elif f.shape != expected_shape:
            raise ParameterError(f"frame {n} shape {f.shape} != {expected_shape}")
        n += 1
        yield f


def calibrate(frames) -> Calibration:
    """Estimate per-pixel background means and the Gaussian noise width.

    `frames` must be iterable twice (a list, or a stack reader): pass 1 finds
    a robust global centre/scale from a value histogram, pass 2 accumulates
    per-pixel means clipped to centre ± CLIP_SIGMAS * scale (so EM-amplified
    CIC and the exponential tail do not drag them) and a fine residual
    histogram whose MAD gives sigma_noise.
    """
    # pass 1: coarse robust centre and scale
    shape = None
    hist1 = None
    n1 = 0
    for f in _iter_checked(frames):
        if hist1 is None:
            shape = f.shape
            lo = float(np.min(f)) - 50.0
            hi = float(np.quantile(f, 0.999)) + 200.0
            hist1 = _StreamHist(lo, hi, max(2000, int((hi - lo) / 0.02)))
        hist1.add(f)
        n1 += 1
    if n1 < 2:
        raise ParameterError(f"calibration needs >= 2 dark frames, got {n1}")
    centre = hist1.quantile(0.5)
    scale = hist1.mad() * _MAD_TO_SIGMA
    if not scale > 0:
        raise ParameterError("dark stack has zero spread; cannot calibrate")

    # pass 2: clipped per-pixel means + fine residual histogram
    clip_lo = centre - CLIP_SIGMAS * scale
    clip_hi = centre + CLIP_SIGMAS * scale
    psum = np.zeros(shape, dtype=np.float64)
    pcnt = np.zeros(shape, dtype=np.int64)
    hist2 = _StreamHist(-12.0 * scale, 12.0 * scale, 4800)
    n2 = 0
    for f in _iter_checked(frames, shape):
        ok = (f >= clip_lo) & (f <= clip_hi)
        psum += np.where(ok, f, 0.0)
        pcnt += ok
        hist2.add(f - centre)
        n2 += 1
    if n2 != n1:
        raise ParameterError(
            f"dark stack not re-iterable: saw {n1} frames then {n2} "
            "(pass a list or a stack reader, not a generator)"
        )
    fallback = pcnt == 0
    n_fallback = int(np.count_nonzero(fallback))
    pcnt = np.where(fallback, 1, pcnt)
    pixel_mean = psum / pcnt
    if n_fallback:
        pixel_mean[fallback] = centre
    sigma = hist2.mad() * _MAD_TO_SIGMA
    return Calibration(
        pixel_mean=pixel_mean,
        sigma_noise=float(sigma),
        centre=float(centre),
        n_unclipped_fallback=n_fallback,
    )


def threshold(frame: np.ndarray, cal: Calibration, k: float) -> np.ndarray:
    """Photon-count a raw frame: bool bit = (value - pixel_mean) > k * sigma_noise."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != cal.pixel_mean.shape:
        raise ParameterError(
            f"frame shape {frame.shape} does not match calibration {cal.pixel_mean.shape}"
        )
    if not math.isfinite(k):
        raise ParameterError(f"threshold k must be finite, got {k!r}")
    return (frame - cal.pixel_mean) > (k * cal.sigma_noise)


def calibrate_flux_equivalence(frames, target_occupancy: float, calibration: Calibration) -> float:
    """Smallest k whose dark (noise-only) occupancy is <= target_occupancy.

    Streams the dark stack once more after `calibrate` has made
    `calibration` from it, histograms the standardised residuals
    z = (value - pixel_mean) / sigma_noise, and inverts the empirical
    exceedance.  For purely Gaussian noise this converges to the normal
    isf: k(0.02) ~= 2.054.
    """
    if not (0.0 < target_occupancy < 1.0):
        raise ParameterError(f"target_occupancy must be in (0, 1), got {target_occupancy!r}")
    hist = _StreamHist(-20.0, 80.0, 20000)
    inv_sigma = 1.0 / calibration.sigma_noise
    n = 0
    for f in _iter_checked(frames, calibration.pixel_mean.shape):
        hist.add((f - calibration.pixel_mean) * inv_sigma)
        n += 1
    if n < 1:
        raise ParameterError("calibrate_flux_equivalence needs at least one dark frame")
    total = hist.total
    if hist.over > target_occupancy * total:
        raise ParameterError(
            "target occupancy {:g} unreachable: {:.4g} of dark residuals exceed "
            "z = {:g} (heavy tail)".format(target_occupancy, hist.over / total, hist.hi)
        )
    # tail[i] = exceedance at the right edge of bin i: over + sum(counts[i+1:])
    tail = hist.over + np.concatenate([np.cumsum(hist.counts[::-1])[::-1][1:], [0]])
    want = target_occupancy * total
    j = int(np.searchsorted(-tail, -want, side="left"))  # first bin with tail <= want
    j = min(j, hist.nbins - 1)
    # inside bin j the exceedance falls linearly from tail[j] + counts[j] to tail[j]
    hi_exc = tail[j] + hist.counts[j]
    left_edge = hist.lo + j * hist.width
    if hi_exc > tail[j]:
        frac = min(max((hi_exc - want) / (hi_exc - tail[j]), 0.0), 1.0)
        return float(left_edge + frac * hist.width)
    return float(left_edge)


def dark_occupancy(frames, calibration: Calibration, k: float) -> float:
    """Fraction of pixels above threshold over a dark stack (single pass)."""
    fired = 0
    seen = 0
    for f in _iter_checked(frames, calibration.pixel_mean.shape):
        fired += int(np.count_nonzero(threshold(f, calibration, k)))
        seen += f.size
    if seen == 0:
        raise ParameterError("dark_occupancy needs at least one frame")
    return fired / seen
