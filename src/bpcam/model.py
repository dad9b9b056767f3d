"""Double-Gaussian model of a collinear degenerate down-conversion source.

The transverse two-photon amplitude at the crystal output face is modelled as
a product of Gaussians in the pair centroid and separation,

    psi(r1, r2) ~ exp(-|r1 + r2|^2 / (4 sigma_plus^2))
                * exp(-|r1 - r2|^2 / (4 sigma_minus^2)),

where sigma_plus is the pump spot size (field std dev) and sigma_minus is the
birth-zone width set by the phase-matching bandwidth of a thin crystal,
sigma_minus = sqrt(alpha * L * lambda_pump / 2pi).  Everything downstream —
sampling laws, predicted correlation widths on the detector, width-ratio mode
counts, conditional variances and their product against the hbar^2/4 bound —
derives from these two widths, so this module is the single source of truth.

Units: lengths in micrometres, transverse momenta in hbar/um with hbar = 1,
so phase space products are dimensionless multiples of hbar^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:
    from .config import RunConfig

TWO_PI = 2.0 * math.pi

#: EPR bound on the product of inferred variances: separable states satisfy
#: var(x1|x2) * var(p1|p2) >= 1/4 (hbar = 1).
HEISENBERG_PRODUCT = 0.25

#: variance (px^2) that pixel binning adds to one photon's detected coordinate
PIXEL_VAR_PHOTON = 1.0 / 12.0
#: variance (px^2) added to a pair coordinate (sum or difference of two binned values)
PIXEL_VAR_PAIR = 1.0 / 6.0


class Plane(str, enum.Enum):
    """Which transverse plane of the source the optics map onto the camera."""

    IMAGE = "image"
    FAR_FIELD = "farfield"


@dataclass(frozen=True)
class SourceParams:
    """Pump/crystal parameters of the pair source (lengths in um).

    pump_waist is the std dev of the pump *field* envelope and equals
    sigma_plus of the centroid Gaussian directly.
    """

    pump_wavelength: float = 0.355
    pump_waist: float = 660.0
    crystal_length: float = 5000.0
    alpha: float = 0.455

    def __post_init__(self):
        for name in ("pump_wavelength", "pump_waist", "crystal_length", "alpha"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"SourceParams.{name} must be finite and > 0, got {v!r}")
        if self.sigma_minus >= self.pump_waist:
            # the sum width must dominate the difference width, otherwise the
            # state is not position-correlated and the mode count is <= 1
            raise ParameterError(
                "sigma_minus = {:.4g} um >= sigma_plus = {:.4g} um; "
                "pump waist must exceed the birth-zone width".format(
                    self.sigma_minus, self.pump_waist
                )
            )

    @property
    def dc_wavelength(self) -> float:
        """Wavelength of one degenerate down-converted photon (um)."""
        return 2.0 * self.pump_wavelength

    @property
    def wavenumber(self) -> float:
        """Magnitude of the down-converted photon wavevector k = 2pi/lambda (rad/um)."""
        return TWO_PI / self.dc_wavelength

    @property
    def sigma_plus(self) -> float:
        """Std dev of the pair-centroid Gaussian (= pump waist, um)."""
        return self.pump_waist

    @property
    def sigma_minus(self) -> float:
        """Std dev of the pair-separation Gaussian: the birth-zone width
        sqrt(alpha * L * lambda_p / 2pi) in um."""
        return math.sqrt(self.alpha * self.crystal_length * self.pump_wavelength / TWO_PI)


@dataclass(frozen=True)
class OpticalSystem:
    """Mapping from a source-plane coordinate to the detector coordinate.

    Image plane:     x' = magnification * x          (needs magnification)
    Far field:       x' = effective_focal * p / k    (needs effective_focal, um)

    `detector_to_source_scale` gives gamma such that the source variable
    (position in um, or momentum in hbar/um) is gamma * x'.
    """

    plane: Plane
    magnification: float | None = None
    effective_focal: float | None = None

    def __post_init__(self):
        plane = Plane(self.plane)
        object.__setattr__(self, "plane", plane)
        if plane is Plane.IMAGE:
            if self.magnification is None or not self.magnification > 0:
                raise ParameterError("image-plane optics need magnification > 0")
            if self.effective_focal is not None:
                raise ParameterError("image-plane optics must not set effective_focal")
        else:
            if self.effective_focal is None or not self.effective_focal > 0:
                raise ParameterError("far-field optics need effective_focal > 0 (um)")
            if self.magnification is not None:
                raise ParameterError("far-field optics must not set magnification")

    def detector_to_source_scale(self, source: SourceParams) -> float:
        """gamma: multiply a detector coordinate (um) to recover the source variable."""
        if self.plane is Plane.IMAGE:
            return 1.0 / self.magnification
        return source.wavenumber / self.effective_focal


def predicted_correlation_lengths(
    source: SourceParams, image: OpticalSystem, farfield: OpticalSystem
) -> tuple[float, float]:
    """Expected detector-plane correlation widths (um).

    Returns (sigma_pos, sigma_mom): the std dev of the pair-separation peak in
    the image plane, M * sigma_minus, and of the pair-sum peak in the far
    field, f_e / (k * sigma_plus).
    """
    if image.plane is not Plane.IMAGE or farfield.plane is not Plane.FAR_FIELD:
        raise ParameterError(
            f"expected (image, farfield) optics, got ({image.plane.value}, {farfield.plane.value})"
        )
    sigma_pos = image.magnification * source.sigma_minus
    sigma_mom = farfield.effective_focal / (source.wavenumber * source.sigma_plus)
    return sigma_pos, sigma_mom


def predicted_mode_count(source: SourceParams) -> float:
    """Width-ratio mode count per transverse plane, (sigma_plus/sigma_minus)^2.

    Binning-free and without coverage (`predict`'s d_pos and d_mom are as
    detected).  Neither the Fedorov ratio (Fedorov et al., PRA 69, 052117
    (2004)) nor the Schmidt number (Law & Eberly, PRL 92, 127903 (2004)).
    """
    return (source.sigma_plus / source.sigma_minus) ** 2


def coverage(extent_um: float, marginal_um: float) -> float:
    """Chance that a photon of single-photon width `marginal_um` lands on
    `extent_um` of sensor centred on the optical axis, along one axis."""
    return math.erf(extent_um / (2.0 * math.sqrt(2.0) * marginal_um))


def analytic_conditional_variances(source: SourceParams) -> tuple[float, float]:
    """Minimum inferred variances of the double-Gaussian state.

    For jointly Gaussian (x1, x2) with var(x1 + x2) = sigma_plus^2 and
    var(x1 - x2) = sigma_minus^2,

        var(x1 | x2) = sigma_plus^2 sigma_minus^2 / (sigma_plus^2 + sigma_minus^2)

    and the Fourier-conjugate momenta obey the same formula with widths
    1/sigma^2, giving

        var(p1 | p2) = 1 / (sigma_plus^2 + sigma_minus^2)     [hbar^2/um^2].

    Returns (var_x, var_p) in (um^2, hbar^2/um^2).
    """
    sp2 = source.sigma_plus**2
    sm2 = source.sigma_minus**2
    return sp2 * sm2 / (sp2 + sm2), 1.0 / (sp2 + sm2)


@dataclass(frozen=True)
class AnalyticPrediction:
    """Closed-form expectations for a run configuration (`predict`)."""

    sigma_minus_um: float
    sigma_plus_um: float
    sigma_pos_um: float
    sigma_mom_um: float
    mode_count: float
    cond_var_x_um2: float
    cond_var_p_hbar2_per_um2: float
    epr_product_hbar2: float
    sigma_broad_image_um: float
    sigma_marginal_image_um: float
    sigma_broad_farfield_um: float
    sigma_marginal_farfield_um: float
    d_pos: float
    d_mom: float

    def as_dict(self) -> dict:
        return {**asdict(self), "heisenberg_bound_hbar2": HEISENBERG_PRODUCT}


def predict(config: RunConfig) -> AnalyticPrediction:
    """Every closed-form quantity the report measures, as it measures it.

    The narrow widths and variances are binning-free, as reported.  Each
    plane's broad width (sigma_+ / sigma_- times the narrow one) and
    single-photon marginal are as detected: binning adds PIXEL_VAR_PAIR
    px^2 to a pair coordinate and PIXEL_VAR_PHOTON px^2 to one photon.
    `d_pos` and `d_mom` are the product over the two axes of `coverage`
    times broad / narrow, all as detected, the columns spanning roi_width
    pixels and the rows roi_height.  On a smeared image plane the report's
    `d_pos` squares the column's estimate (`inference.dimensionality`), so
    on a non-square region the two differ.
    """
    source = config.source()
    sigma_pos, sigma_mom = predicted_correlation_lengths(
        source, config.optics(Plane.IMAGE), config.optics(Plane.FAR_FIELD))
    var_x, var_p = analytic_conditional_variances(source)
    pitch = config.pixel_pitch
    detected = {}
    for plane, coord, narrow in (("image", "pos", sigma_pos), ("farfield", "mom", sigma_mom)):
        # both planes' broad / narrow is sigma_+ / sigma_-
        broad = narrow * source.sigma_plus / source.sigma_minus
        marginal = math.sqrt(0.25 * (narrow ** 2 + broad ** 2) + PIXEL_VAR_PHOTON * pitch ** 2)
        narrow, broad = (math.sqrt(w ** 2 + PIXEL_VAR_PAIR * pitch ** 2) for w in (narrow, broad))
        detected[f"sigma_broad_{plane}_um"] = broad
        detected[f"sigma_marginal_{plane}_um"] = marginal
        detected[f"d_{coord}"] = math.prod(coverage(extent_px * pitch, marginal) * broad / narrow
                                           for extent_px in (config.roi_width, config.roi_height))
    return AnalyticPrediction(
        sigma_minus_um=source.sigma_minus,
        sigma_plus_um=source.sigma_plus,
        sigma_pos_um=sigma_pos,
        sigma_mom_um=sigma_mom,
        mode_count=predicted_mode_count(source),
        cond_var_x_um2=var_x,
        cond_var_p_hbar2_per_um2=var_p,
        epr_product_hbar2=var_x * var_p,
        **detected,
    )
