"""One flat run configuration: source, optics, camera, flux, acquisition.

`RunConfig` collects every knob of a simulated acquisition with defaults
matching the desk-scale reference run (collinear type-I down-conversion of a
355 nm pump, 201 x 201 EMCCD regions in both an image plane at M = 2.5 and a
far field with a 10 cm effective focal length).  Every configuration, however
it is made (`RunConfig(...)`, `replace`, `from_dict`/`load`), is checked by
the constructor alone and refused with a `ParameterError`.  All lengths are
micrometres; in JSON, length-like fields also accept unit strings ("16 um",
"0.355um", "100 mm").  The sha256 digest of the canonical form is stamped
into every stack file a run produces, so analysis can refuse to mix stacks
from different configurations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass

from .emccd import CameraParams
from .errors import ParameterError
from .inference import MIN_BOOTSTRAP_BLOCKS
from .model import OpticalSystem, Plane, SourceParams
from .sampler import AttenuationMode, FluxConfig

#: fields that accept "value unit" strings and are stored in micrometres
_LENGTH_FIELDS = frozenset(
    {"pump_wavelength", "pump_waist", "crystal_length", "effective_focal", "pixel_pitch"}
)

# "µm" is the micro sign, "μm" the greek mu
_TO_UM = {"nm": 1e-3, "um": 1.0, "µm": 1.0, "μm": 1.0, "mm": 1e3, "cm": 1e4, "m": 1e6}
_NUM_UNIT = re.compile(r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*([a-zµμ]+)\s*$")

#: per annotation: the accepted types and how a refusal names them (a bool
#: is an int to Python, so only bool fields take one)
_FIELD_TYPES = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def parse_length(value: str, field: str = "length") -> float:
    """Return a length string such as "355 nm", "0.66 mm" or "16 um" in micrometres."""
    m = _NUM_UNIT.match(value) if isinstance(value, str) else None
    if not m:
        raise ParameterError(
            f"{field}: cannot parse {value!r} (expected e.g. '355 nm', '0.66 mm', '16 um')"
        )
    num, unit = m.groups()
    try:
        scale = _TO_UM[unit]
    except KeyError:
        raise ParameterError(f"{field}: unknown length unit {unit!r} in {value!r}") from None
    return float(num) * scale


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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            types, name = _FIELD_TYPES[f.type]
            if not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool"):
                raise ParameterError(f"field {f.name!r} must be {name}, got {value!r}")
            if f.type == "float":
                object.__setattr__(self, f.name, float(value))
        for name in ("n_frames", "n_dark_frames"):
            if getattr(self, name) < 2:
                raise ParameterError(f"{name} must be >= 2, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.n_bootstrap < 0:
            raise ParameterError(f"n_bootstrap must be >= 0, got {self.n_bootstrap}")
        min_blocks = MIN_BOOTSTRAP_BLOCKS if self.n_bootstrap > 0 else 1
        if self.n_blocks < min_blocks:
            raise ParameterError(
                f"n_blocks must be >= {min_blocks} with n_bootstrap = {self.n_bootstrap}, "
                f"got {self.n_blocks}"
            )
        if not self.photons_per_pixel > 0:
            raise ParameterError(f"photons_per_pixel must be > 0, got {self.photons_per_pixel}")
        if not 0.0 < self.target_occupancy < 1.0:
            raise ParameterError(f"target_occupancy must be in (0, 1), got {self.target_occupancy}")
        if not math.isfinite(self.snr_gate):
            raise ParameterError(f"snr_gate must be finite, got {self.snr_gate}")
        if self.sparse_threshold < 0:
            raise ParameterError(f"sparse_threshold must be >= 0, got {self.sparse_threshold}")
        # the derived objects check the physics ranges
        self.source()
        for plane in Plane:
            self.optics(plane)
            self.camera(plane)
        self.flux()

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
        efficiencies automatically compares equal photon flux.  A zero
        efficiency, which `FluxConfig` refuses, gives an infinite rate.
        """
        n_photons = self.photons_per_pixel * self.roi_height * self.roi_width
        if self.heralding_efficiency == 0:
            return math.inf
        return n_photons / (2.0 * self.heralding_efficiency)

    def flux(self) -> FluxConfig:
        return FluxConfig(
            mean_pairs_per_frame=self.mean_pairs_per_frame,
            heralding_efficiency=self.heralding_efficiency,
            attenuation_mode=self.attenuation_mode,
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
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in fields:
                known = ", ".join(sorted(fields))
                raise ParameterError(f"unknown configuration field {key!r} (known: {known})")
            if key in _LENGTH_FIELDS and isinstance(value, str):
                value = parse_length(value, field=key)
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data)

