"""Monte Carlo sampling of photon-pair detector impacts.

|psi|^2 of the double-Gaussian state factorises per transverse axis into
independent Gaussians for the pair sum and difference, so a pair is sampled
as (per axis):

    image plane:  x1 + x2 ~ N(0, sigma_plus^2),  x1 - x2 ~ N(0, sigma_minus^2)
    far field:    p1 + p2 ~ N(0, 1/sigma_plus^2), p1 - p2 ~ N(0, 1/sigma_minus^2)

then mapped to detector coordinates through the plane's optics (x' = M x, or
x' = f_e p / k).  Losses are Bernoulli per photon; pair loading per frame is
Poisson.

Every frame draws from its own RNG substream derived from (master seed,
stream id, frame index), so stacks are reproducible bit-for-bit regardless of
generation order or chunking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import OpticalSystem, Plane, SourceParams


class AttenuationMode(str, enum.Enum):
    """Where the loss acts relative to the crystal.

    BEFORE_CRYSTAL attenuates the pump: the pair rate scales by eta and both
    photons of every surviving pair arrive.  AFTER_CRYSTAL thins each photon
    independently with survival eta: the photon flux is the same (2 * mean *
    eta either way) but complete pairs survive only at eta^2, which is the
    low-heralding control.
    """

    BEFORE_CRYSTAL = "before_crystal"
    AFTER_CRYSTAL = "after_crystal"


@dataclass(frozen=True)
class FluxConfig:
    """Pair loading and loss for one acquisition."""

    mean_pairs_per_frame: float
    heralding_efficiency: float = 0.8
    attenuation_mode: AttenuationMode = AttenuationMode.AFTER_CRYSTAL

    def __post_init__(self):
        if not (0.0 < self.heralding_efficiency <= 1.0):
            raise ParameterError(
                f"heralding_efficiency must be in (0, 1], got {self.heralding_efficiency!r}"
            )
        if not (self.mean_pairs_per_frame >= 0 and np.isfinite(self.mean_pairs_per_frame)):
            raise ParameterError(f"mean_pairs_per_frame must be >= 0, got {self.mean_pairs_per_frame!r}")
        modes = [m.value for m in AttenuationMode]
        if self.attenuation_mode not in modes:
            raise ParameterError(f"attenuation_mode must be in {modes}, got {self.attenuation_mode!r}")
        object.__setattr__(self, "attenuation_mode", AttenuationMode(self.attenuation_mode))


@dataclass
class FrameEvents:
    """Surviving impacts of one frame plus generator bookkeeping."""

    impacts: np.ndarray  # (m, 2) detector um, columns (x, y)
    n_pairs_generated: int
    n_photons_surviving: int
    n_pairs_surviving: int  # pairs with both photons surviving


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, order-insensitive RNG stream for (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


def sample_pairs(
    source: SourceParams, optics: OpticalSystem, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs; returns (r1, r2) detector coordinates, each (n, 2) in um.

    Column 0 is x (along camera rows' horizontal axis), column 1 is y.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if optics.plane is Plane.IMAGE:
        width_sum, width_diff = source.sigma_plus, source.sigma_minus
        scale = optics.magnification
    else:
        width_sum, width_diff = 1.0 / source.sigma_plus, 1.0 / source.sigma_minus
        scale = optics.effective_focal / source.wavenumber
    s = rng.normal(0.0, width_sum, size=(n, 2))
    d = rng.normal(0.0, width_diff, size=(n, 2))
    r1 = 0.5 * (s + d) * scale
    r2 = 0.5 * (s - d) * scale
    return r1, r2


def generate_frame_events(
    source: SourceParams,
    optics: OpticalSystem,
    flux: FluxConfig,
    rng: np.random.Generator,
) -> FrameEvents:
    """Sample one frame's worth of surviving photon impacts.

    Ordering inside the returned array is (all surviving photon-1 rows, then
    all surviving photon-2 rows); camera exposure does not care.
    """
    eta = flux.heralding_efficiency
    if flux.attenuation_mode is AttenuationMode.BEFORE_CRYSTAL:
        n_pairs = int(rng.poisson(flux.mean_pairs_per_frame * eta))
        keep1 = np.ones(n_pairs, dtype=bool)
        keep2 = np.ones(n_pairs, dtype=bool)
    else:
        n_pairs = int(rng.poisson(flux.mean_pairs_per_frame))
        keep1 = rng.random(n_pairs) < eta
        keep2 = rng.random(n_pairs) < eta
    r1, r2 = sample_pairs(source, optics, n_pairs, rng)
    impacts = np.concatenate([r1[keep1], r2[keep2]], axis=0)
    return FrameEvents(
        impacts=impacts,
        n_pairs_generated=n_pairs,
        n_photons_surviving=impacts.shape[0],
        n_pairs_surviving=int(np.count_nonzero(keep1 & keep2)),
    )
