"""Closed-form expectations: widths, mode count, conditional variances."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpcam import (
    HEISENBERG_PRODUCT,
    OpticalSystem,
    Plane,
    RunConfig,
    SourceParams,
    analytic_conditional_variances,
    predict,
    predicted_correlation_lengths,
    predicted_mode_count,
)
from bpcam.errors import ParameterError
from bpcam.model import PIXEL_VAR_PAIR

# frozen 64-bit evaluations of the closed forms at the default parameters
SIGMA_MINUS = 11.337438463541575
SIGMA_POS = 28.343596158853938
SIGMA_MOM = 17.121213575037228
MODE_COUNT = 3388.894003785703
VAR_X = 128.49959305911594
VAR_P = 2.2950068997373182e-06
EPR_PRODUCT = 0.0002949074526841087
# the mode counts as detected: coverage-corrected, pixel binning in the widths
D_POS = 2896.196862953162
D_MOM = 2951.010439821784


def default_optics():
    return (
        OpticalSystem(Plane.IMAGE, magnification=2.5),
        OpticalSystem(Plane.FAR_FIELD, effective_focal=100000.0),
    )


def test_default_predictions_match_frozen_values():
    pred = predict(RunConfig())
    assert pred.sigma_minus_um == pytest.approx(SIGMA_MINUS, rel=1e-12)
    assert pred.sigma_plus_um == 660.0
    assert pred.sigma_pos_um == pytest.approx(SIGMA_POS, rel=1e-12)
    assert pred.sigma_mom_um == pytest.approx(SIGMA_MOM, rel=1e-12)
    assert pred.mode_count == pytest.approx(MODE_COUNT, rel=1e-12)
    assert pred.cond_var_x_um2 == pytest.approx(VAR_X, rel=1e-12)
    assert pred.cond_var_p_hbar2_per_um2 == pytest.approx(VAR_P, rel=1e-12)
    assert pred.epr_product_hbar2 == pytest.approx(EPR_PRODUCT, rel=1e-12)
    assert pred.d_pos == pytest.approx(D_POS, rel=1e-9)
    assert pred.d_mom == pytest.approx(D_MOM, rel=1e-9)
    d = pred.as_dict()
    assert d["heisenberg_bound_hbar2"] == HEISENBERG_PRODUCT
    assert d["epr_product_hbar2"] == pred.epr_product_hbar2


def test_detected_counts_are_binning_factors_times_criterion_7s_references():
    """Criterion 7's references, (sigma_+ / sigma_-)^2 times the coverage
    squared from the binning-free widths, are `predict`'s own counts for a
    vanishing pixel over the same extent.  Binning keeps 0.950 of d_pos and
    0.873 of d_mom, whose narrow width is 1.07 px."""
    cfg = RunConfig()
    pred = predict(cfg)
    fine = predict(cfg.replace(pixel_pitch=cfg.pixel_pitch / 1000, roi_height=201_000,
                               roi_width=201_000))
    for key, binning_free, detected in (("d_pos", 3050, 0.950), ("d_mom", 3380, 0.873)):
        reference = getattr(fine, key)
        assert reference == pytest.approx(binning_free, rel=0.01)
        assert getattr(pred, key) == pytest.approx(detected * reference, rel=0.005)
    # the broad width as detected: M sigma_+ with the binning of a pair coordinate
    assert pred.sigma_broad_image_um == pytest.approx(
        math.hypot(cfg.magnification * pred.sigma_plus_um,
                   math.sqrt(PIXEL_VAR_PAIR) * cfg.pixel_pitch), rel=1e-12)


@pytest.mark.parametrize("key", ["d_pos", "d_mom"])
def test_coverage_follows_each_axis_extent(key):
    """On a 101 x 61 region the columns' coverage is that of 101 pixels and
    the rows' that of 61, so the count is the geometric mean of the square
    regions' counts, whichever way round the region lies."""
    cfg = RunConfig()

    def count(height, width):
        return getattr(predict(cfg.replace(roi_height=height, roi_width=width)), key)

    wide, tall, large, small = count(61, 101), count(101, 61), count(101, 101), count(61, 61)
    assert small < wide < large
    assert wide == pytest.approx(math.sqrt(large * small), rel=1e-12)
    assert tall == pytest.approx(wide, rel=1e-12)


def test_derived_source_widths():
    src = SourceParams()
    assert src.sigma_plus == src.pump_waist
    assert src.sigma_minus == pytest.approx(
        math.sqrt(src.alpha * src.crystal_length * src.pump_wavelength / (2 * math.pi))
    )
    assert src.dc_wavelength == 2 * src.pump_wavelength
    assert src.wavenumber == pytest.approx(2 * math.pi / src.dc_wavelength)


def test_correlation_lengths_scale_with_optics():
    src = SourceParams()
    image, farfield = default_optics()
    pos1, mom1 = predicted_correlation_lengths(src, image, farfield)
    image2 = OpticalSystem(Plane.IMAGE, magnification=5.0)
    farfield2 = OpticalSystem(Plane.FAR_FIELD, effective_focal=200000.0)
    pos2, mom2 = predicted_correlation_lengths(src, image2, farfield2)
    assert pos2 == pytest.approx(2.0 * pos1)
    assert mom2 == pytest.approx(2.0 * mom1)


def test_predicted_correlation_lengths_rejects_swapped_planes():
    src = SourceParams()
    image, farfield = default_optics()
    with pytest.raises(ParameterError):
        predicted_correlation_lengths(src, farfield, image)


def test_detector_to_source_scale_inverts_the_mapping():
    src = SourceParams()
    image, farfield = default_optics()
    assert image.detector_to_source_scale(src) == pytest.approx(1 / 2.5)
    assert farfield.detector_to_source_scale(src) == pytest.approx(
        src.wavenumber / 100000.0
    )


source_params = st.builds(
    SourceParams,
    pump_wavelength=st.floats(0.2, 1.5),
    pump_waist=st.floats(200.0, 2000.0),
    crystal_length=st.floats(500.0, 20000.0),
    alpha=st.floats(0.1, 1.0),
).filter(lambda s: s.sigma_minus < 0.9 * s.pump_waist)


@given(source_params)
def test_conditional_variance_identity(src):
    """var(x1|x2) (sp^2 + sm^2) = sp^2 sm^2 and var(p1|p2) (sp^2 + sm^2) = 1."""
    var_x, var_p = analytic_conditional_variances(src)
    s2 = src.sigma_plus**2 + src.sigma_minus**2
    assert var_x * s2 == pytest.approx(src.sigma_plus**2 * src.sigma_minus**2, rel=1e-12)
    assert var_p * s2 == pytest.approx(1.0, rel=1e-12)


@given(source_params)
def test_every_valid_source_beats_the_separability_bound(src):
    """sp > sm forces the analytic product strictly below 1/4."""
    var_x, var_p = analytic_conditional_variances(src)
    assert 0.0 < var_x * var_p < HEISENBERG_PRODUCT
    assert predicted_mode_count(src) > 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(pump_waist=-1.0),
        dict(pump_wavelength=0.0),
        dict(crystal_length=float("inf")),
        dict(alpha=0.0),
        # birth zone wider than the pump: not a position-correlated state
        dict(pump_waist=5.0),
    ],
)
def test_source_validation(kwargs):
    with pytest.raises(ParameterError):
        SourceParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(plane=Plane.IMAGE),  # missing magnification
        dict(plane=Plane.IMAGE, magnification=-2.0),
        dict(plane=Plane.IMAGE, magnification=2.5, effective_focal=1e5),
        dict(plane=Plane.FAR_FIELD),  # missing focal length
        dict(plane=Plane.FAR_FIELD, effective_focal=0.0),
        dict(plane=Plane.FAR_FIELD, effective_focal=1e5, magnification=2.5),
    ],
)
def test_optics_validation(kwargs):
    with pytest.raises(ParameterError):
        OpticalSystem(**kwargs)


def test_optics_accepts_plane_strings():
    assert OpticalSystem("image", magnification=2.5).plane is Plane.IMAGE
    assert OpticalSystem("farfield", effective_focal=1e5).plane is Plane.FAR_FIELD
