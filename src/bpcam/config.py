"""One flat run configuration: source, optics, camera, flux, acquisition.

`RunConfig` collects every knob of a simulated acquisition with defaults
matching the desk-scale reference run (collinear type-I down-conversion of a
355 nm pump, 201 x 201 EMCCD regions in both an image plane at M = 2.5 and a
far field with a 10 cm effective focal length).  Configurations load from
JSON with per-field validation; length-like fields accept unit strings
("16 um", "0.355um", "100 mm").  The sha256 digest of the canonical form is
stamped into every stack file a run produces, so analysis can refuse to mix
stacks from different configurations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .emccd import CameraParams
from .errors import ParameterError
from .model import OpticalSystem, Plane, SourceParams
from .sampler import AttenuationMode, FluxConfig
from .units import parse_length

#: fields that accept "value unit" strings and are stored in micrometres
_LENGTH_FIELDS = frozenset(
    {"pump_wavelength", "pump_waist", "crystal_length", "effective_focal", "pixel_pitch"}
)


@dataclass(frozen=True)
class RunConfig:
    # down-conversion source (um)
    pump_wavelength: float = 0.355
    pump_waist: float = 660.0
    crystal_length: float = 5000.0
    alpha: float = 0.455
    # imaging systems
    magnification: float = 2.5
    effective_focal: float = 100000.0
    # camera
    pixel_pitch: float = 16.0
    roi_height: int = 201
    roi_width: int = 201
    qe: float = 1.0
    readout_mean: float = 390.0
    readout_sigma: float = 6.0
    em_gain: float = 1000.0
    gain_dispersion: bool = True
    cic_prob: float = 0.005
    tail_prob: float = 0.005
    tail_scale: float = 30.0
    smear_prob_image: float = 0.1
    smear_prob_farfield: float = 0.0
    full_well: float = 500000.0
    # photon flux
    photons_per_pixel: float = 0.02
    heralding_efficiency: float = 0.8
    attenuation_mode: str = AttenuationMode.AFTER_CRYSTAL.value
    # acquisition
    n_frames: int = 20000
    n_dark_frames: int = 2000
    seed: int = 7
    # thresholding: k is calibrated on the darks so that they fire at this occupancy
    target_occupancy: float = 0.02
    # analysis
    n_bootstrap: int = 100
    n_blocks: int = 20
    sparse_threshold: int = 256
    snr_gate: float = 5.0

    def __post_init__(self):
        if self.roi_height < 1 or self.roi_width < 1:
            raise ParameterError("roi dimensions must be >= 1")
        if not (0.0 < self.heralding_efficiency <= 1.0):
            raise ParameterError("heralding_efficiency must be in (0, 1]")
        if self.photons_per_pixel <= 0:
            raise ParameterError("photons_per_pixel must be > 0")
        if self.n_frames < 2:
            raise ParameterError("n_frames must be >= 2")
        if self.n_dark_frames < 2:
            raise ParameterError("n_dark_frames must be >= 2")
        if not (0.0 < self.target_occupancy < 1.0):
            raise ParameterError("target_occupancy must be in (0, 1)")
        AttenuationMode(self.attenuation_mode)  # raises ValueError on junk
        # constructing the derived objects validates everything else
        self.source()
        self.optics(Plane.IMAGE)
        self.optics(Plane.FAR_FIELD)
        self.camera(Plane.IMAGE)

    # -- derived parameter objects ------------------------------------------

    def source(self) -> SourceParams:
        return SourceParams(
            pump_wavelength=self.pump_wavelength,
            pump_waist=self.pump_waist,
            crystal_length=self.crystal_length,
            alpha=self.alpha,
        )

    def optics(self, plane: Plane | str) -> OpticalSystem:
        plane = Plane(plane)
        if plane is Plane.IMAGE:
            return OpticalSystem(plane=plane, magnification=self.magnification)
        return OpticalSystem(plane=plane, effective_focal=self.effective_focal)

    @property
    def roi(self) -> tuple[int, int]:
        return (self.roi_height, self.roi_width)

    def smear_prob(self, plane: Plane | str) -> float:
        return self.smear_prob_image if Plane(plane) is Plane.IMAGE else self.smear_prob_farfield

    def camera(self, plane: Plane | str | None = None) -> CameraParams:
        smear = 0.0 if plane is None else self.smear_prob(plane)
        return CameraParams(
            pixel_pitch=self.pixel_pitch,
            roi=self.roi,
            qe=self.qe,
            readout_mean=self.readout_mean,
            readout_sigma=self.readout_sigma,
            em_gain=self.em_gain,
            gain_dispersion=self.gain_dispersion,
            cic_prob=self.cic_prob,
            tail_prob=self.tail_prob,
            tail_scale=self.tail_scale,
            smear_prob=smear,
            full_well=self.full_well,
        )

    @property
    def mean_pairs_per_frame(self) -> float:
        """Pair rate giving the requested photon flux on the sensor.

        Each generated pair contributes 2 * heralding_efficiency surviving
        photons on average, so equal photons_per_pixel at different
        efficiencies automatically compares equal photon flux.
        """
        n_pixels = self.roi_height * self.roi_width
        return self.photons_per_pixel * n_pixels / (2.0 * self.heralding_efficiency)

    def flux(self) -> FluxConfig:
        return FluxConfig(
            mean_pairs_per_frame=self.mean_pairs_per_frame,
            heralding_efficiency=self.heralding_efficiency,
            attenuation_mode=AttenuationMode(self.attenuation_mode),
        )

    # -- serialisation -------------------------------------------------------

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_json().encode("ascii")).digest()

    def sim_digest(self) -> bytes:
        """Digest over the fields that determine simulated frame content.

        Frame i is a pure function of the physics/camera/flux parameters,
        the seed, and the dark-stack-derived threshold; the total frame
        count and the analysis knobs (bootstrap size, block count, SNR
        gate, sparse/FFT switch point) are not part of it.  Stacks are
        stamped with this digest so re-analysing the same data with
        different statistics settings is not flagged as a mismatch.
        """
        data = self.as_dict()
        for key in ("n_frames", "n_bootstrap", "n_blocks", "sparse_threshold", "snr_gate"):
            del data[key]
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).digest()

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ParameterError(f"configuration must be a JSON object, got {type(data).__name__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in fields:
                known = ", ".join(sorted(fields))
                raise ParameterError(f"unknown configuration field {key!r} (known: {known})")
            if key in _LENGTH_FIELDS:
                kwargs[key] = parse_length(value, field=key)
                continue
            kwargs[key] = _coerce(key, value, fields[key].type)
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data)


def _coerce(key: str, value, annotation) -> object:
    """Validate a JSON value against the (stringified) field annotation."""
    ann = str(annotation)
    if "bool" in ann:
        if not isinstance(value, bool):
            raise ParameterError(f"field {key!r} must be true/false, got {value!r}")
        return value
    if ann.startswith("int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"field {key!r} must be an integer, got {value!r}")
        return value
    if ann.startswith("str"):
        if not isinstance(value, str):
            raise ParameterError(f"field {key!r} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"field {key!r} must be a number, got {value!r}")
    return float(value)
