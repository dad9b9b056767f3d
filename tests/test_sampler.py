"""Pair sampling statistics, loss bookkeeping, and stream reproducibility."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpcam import (
    AttenuationMode,
    FluxConfig,
    OpticalSystem,
    Plane,
    SourceParams,
    generate_frame_events,
    sample_pairs,
    substream,
)
from bpcam.errors import ParameterError

SRC = SourceParams()
IMAGE = OpticalSystem(Plane.IMAGE, magnification=2.5)
FARFIELD = OpticalSystem(Plane.FAR_FIELD, effective_focal=100000.0)


def pair_coordinate_widths(optics):
    """Expected detector-plane std devs of (r1 + r2, r1 - r2) per axis."""
    if optics.plane is Plane.IMAGE:
        return (
            SRC.sigma_plus * optics.magnification,
            SRC.sigma_minus * optics.magnification,
        )
    scale = optics.effective_focal / SRC.wavenumber
    return scale / SRC.sigma_plus, scale / SRC.sigma_minus


@pytest.mark.parametrize("optics", [IMAGE, FARFIELD], ids=["image", "farfield"])
def test_pair_coordinate_variances(optics, rng):
    """Sum/difference variances match the model within 3 standard errors."""
    n = 200_000
    r1, r2 = sample_pairs(SRC, optics, n, rng)
    w_sum, w_diff = pair_coordinate_widths(optics)
    se_factor = 3.0 * np.sqrt(2.0 / (n - 1))
    for axis in (0, 1):
        var_sum = np.var(r1[:, axis] + r2[:, axis])
        var_diff = np.var(r1[:, axis] - r2[:, axis])
        assert abs(var_sum - w_sum**2) < se_factor * w_sum**2
        assert abs(var_diff - w_diff**2) < se_factor * w_diff**2


def test_position_correlated_momentum_anticorrelated(rng):
    """Photon coordinates correlate positively in the image plane and
    negatively in the far field, with |rho| = (sp^2 - sm^2)/(sp^2 + sm^2)."""
    n = 200_000
    rho_expected = (SRC.sigma_plus**2 - SRC.sigma_minus**2) / (
        SRC.sigma_plus**2 + SRC.sigma_minus**2
    )
    for optics, sign in ((IMAGE, +1.0), (FARFIELD, -1.0)):
        r1, r2 = sample_pairs(SRC, optics, n, rng)
        rho = np.corrcoef(r1[:, 0], r2[:, 0])[0, 1]
        assert rho * sign == pytest.approx(rho_expected, abs=5e-3)


def test_transverse_axes_independent(rng):
    r1, r2 = sample_pairs(SRC, IMAGE, 200_000, rng)
    assert abs(np.corrcoef(r1[:, 0], r1[:, 1])[0, 1]) < 0.01
    assert abs(np.corrcoef(r1[:, 0], r2[:, 1])[0, 1]) < 0.01


def test_sample_pairs_shapes_and_edge_cases(rng):
    r1, r2 = sample_pairs(SRC, IMAGE, 0, rng)
    assert r1.shape == (0, 2) and r2.shape == (0, 2)
    with pytest.raises(ParameterError):
        sample_pairs(SRC, IMAGE, -1, rng)
    r1, r2 = sample_pairs(SRC, FARFIELD, 1, rng)
    assert r1.shape == (1, 2) and r2.shape == (1, 2)


def test_substream_reproducible_and_keyed():
    a = substream(7, 1, 42).standard_normal(8)
    b = substream(7, 1, 42).standard_normal(8)
    c = substream(7, 1, 43).standard_normal(8)
    d = substream(8, 1, 42).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_before_crystal_keeps_pairs_whole():
    flux = FluxConfig(50.0, heralding_efficiency=0.5,
                      attenuation_mode=AttenuationMode.BEFORE_CRYSTAL)
    for i in range(20):
        ev = generate_frame_events(SRC, IMAGE, flux, substream(3, 0, i))
        assert ev.n_pairs_surviving == ev.n_pairs_generated
        assert ev.n_photons_surviving == 2 * ev.n_pairs_surviving
        assert ev.impacts.shape == (ev.n_photons_surviving, 2)


def test_attenuation_modes_agree_on_flux_but_not_pairs(rng):
    """Both placements of a 20% loss give the same mean photon number, but
    only after-crystal loss breaks pairs (eta^2 survival)."""
    lam, eta, n = 200.0, 0.2, 400
    totals = {}
    pairs = {}
    for stream_id, mode in enumerate(AttenuationMode):
        flux = FluxConfig(lam, eta, mode)
        evs = [generate_frame_events(SRC, IMAGE, flux, substream(5, stream_id, i))
               for i in range(n)]
        totals[mode] = np.mean([e.n_photons_surviving for e in evs])
        pairs[mode] = np.mean([e.n_pairs_surviving for e in evs])
    photon_mean = 2 * lam * eta
    se = np.sqrt(photon_mean / n)  # Poisson-ish scale
    assert abs(totals[AttenuationMode.BEFORE_CRYSTAL] - photon_mean) < 5 * se
    assert abs(totals[AttenuationMode.AFTER_CRYSTAL] - photon_mean) < 5 * se
    assert pairs[AttenuationMode.BEFORE_CRYSTAL] == pytest.approx(lam * eta, rel=0.15)
    assert pairs[AttenuationMode.AFTER_CRYSTAL] == pytest.approx(lam * eta**2, rel=0.3)


@given(
    lam=st.floats(0.0, 30.0),
    eta=st.floats(0.05, 1.0),
    mode=st.sampled_from(list(AttenuationMode)),
    frame=st.integers(0, 10_000),
)
def test_frame_event_invariants(lam, eta, mode, frame):
    ev = generate_frame_events(SRC, FARFIELD, FluxConfig(lam, eta, mode),
                               substream(99, 2, frame))
    assert ev.impacts.ndim == 2 and ev.impacts.shape[1] == 2
    assert 0 <= ev.n_pairs_surviving <= ev.n_pairs_generated
    assert ev.n_photons_surviving == ev.impacts.shape[0]
    assert 2 * ev.n_pairs_surviving <= ev.n_photons_surviving <= 2 * ev.n_pairs_generated
    if mode is AttenuationMode.BEFORE_CRYSTAL:
        assert ev.n_photons_surviving == 2 * ev.n_pairs_generated


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mean_pairs_per_frame=-1.0),
        dict(mean_pairs_per_frame=float("nan")),
        dict(mean_pairs_per_frame=float("inf")),
        dict(mean_pairs_per_frame=10.0, heralding_efficiency=0.0),
        dict(mean_pairs_per_frame=10.0, heralding_efficiency=1.2),
        dict(mean_pairs_per_frame=10.0, attenuation_mode="sideways"),
    ],
)
def test_flux_validation(kwargs):
    with pytest.raises((ParameterError, ValueError)):
        FluxConfig(**kwargs)


def test_flux_accepts_mode_strings():
    flux = FluxConfig(1.0, 0.8, "before_crystal")
    assert flux.attenuation_mode is AttenuationMode.BEFORE_CRYSTAL
