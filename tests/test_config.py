"""Run configuration: validation, serialisation, digests, unit parsing."""

import json

import pytest

from bpcam import AttenuationMode, Plane, RunConfig
from bpcam.config import parse_length
from bpcam.errors import ParameterError


def test_defaults_are_self_consistent():
    cfg = RunConfig()
    assert cfg.roi == (201, 201)
    assert cfg.source().sigma_plus == cfg.pump_waist
    assert cfg.optics(Plane.IMAGE).magnification == 2.5
    assert cfg.optics(Plane.FAR_FIELD).effective_focal == 100000.0
    assert cfg.flux().attenuation_mode is AttenuationMode.AFTER_CRYSTAL
    # flux 0.02 photons/pixel over 201^2 pixels at eta = 0.8
    assert cfg.mean_pairs_per_frame == pytest.approx(505.0125)


def test_camera_smear_is_per_plane():
    cfg = RunConfig()
    assert cfg.camera(Plane.IMAGE).smear_prob == cfg.smear_prob_image
    assert cfg.camera(Plane.FAR_FIELD).smear_prob == cfg.smear_prob_farfield
    assert cfg.camera(None).smear_prob == 0.0  # darks never see photons


def test_equal_flux_across_heralding_efficiencies():
    """Lower heralding pumps harder: the photon rate on the camera matches."""
    a = RunConfig()
    b = a.replace(heralding_efficiency=0.02)
    photons = lambda cfg: 2 * cfg.mean_pairs_per_frame * cfg.heralding_efficiency
    assert photons(a) == pytest.approx(photons(b))
    assert b.mean_pairs_per_frame == pytest.approx(a.mean_pairs_per_frame * 40.0)


def test_round_trip_through_dict():
    cfg = RunConfig().replace(seed=123, smear_prob_image=0.0, n_frames=50)
    again = RunConfig.from_dict(cfg.as_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_unknown_field_is_rejected():
    with pytest.raises(ParameterError, match="unknown configuration field"):
        RunConfig.from_dict({"pixel_size": 16.0})


def test_length_fields_accept_unit_strings():
    cfg = RunConfig.from_dict({
        "pump_wavelength": "355 nm",
        "pixel_pitch": "16 um",
        "effective_focal": "10 cm",
        "crystal_length": "5 mm",
    })
    assert cfg.pump_wavelength == pytest.approx(0.355)
    assert cfg.pixel_pitch == pytest.approx(16.0)
    assert cfg.effective_focal == pytest.approx(100000.0)
    assert cfg.crystal_length == pytest.approx(5000.0)


def test_parse_length_forms():
    assert parse_length("0.66 mm") == pytest.approx(660.0)
    assert parse_length("355nm") == pytest.approx(0.355)
    assert parse_length("1e-1 m") == pytest.approx(100000.0)
    for bad in ("sixteen", "16 lightyears", True, [16], 2.5):
        with pytest.raises(ParameterError):
            parse_length(bad)
    # a bare number is micrometres already: the constructor takes it as it is
    assert RunConfig.from_dict({"pump_waist": 660}).pump_waist == 660.0


def test_field_type_coercion_errors():
    base = RunConfig().as_dict()
    for key, value in [
        ("n_frames", 10.5),
        ("n_frames", True),
        ("gain_dispersion", 1),
        ("attenuation_mode", 3),
        ("qe", "high"),
        ("seed", None),
        ("qe", None),
        ("attenuation_mode", "junk"),
        ("seed", -1),
        ("seed", 2**64),
        ("n_bootstrap", -1),
        ("n_blocks", 0),
    ]:
        data = dict(base)
        data[key] = value
        with pytest.raises(ParameterError):
            RunConfig.from_dict(data)
    # the block bootstrap needs at least 10 blocks
    with pytest.raises(ParameterError, match="n_blocks"):
        RunConfig.from_dict(dict(base, n_blocks=5, n_bootstrap=5))


def test_constructor_and_replace_check_types_and_ranges():
    """`RunConfig(...)` and `replace` are checked as JSON loading is."""
    with pytest.raises(ParameterError, match="qe"):
        RunConfig(qe="high")
    with pytest.raises(ParameterError, match="n_frames"):
        RunConfig(n_frames="20")
    with pytest.raises(ParameterError, match="seed"):
        RunConfig().replace(seed=-1)


def test_int_for_a_float_field_is_stored_as_float():
    """An identical run given a length as an int is the same run."""
    cfg = RunConfig(pixel_pitch=16)
    assert type(cfg.pixel_pitch) is float
    assert cfg.sim_digest() == RunConfig().sim_digest()


@pytest.mark.parametrize(
    "changes",
    [
        dict(roi_height=0),
        dict(heralding_efficiency=0.0),
        dict(heralding_efficiency=1.5),
        dict(photons_per_pixel=0.0),
        dict(n_frames=1),
        dict(n_dark_frames=1),
        dict(target_occupancy=1.0),
        dict(attenuation_mode="sideways"),
        dict(pump_waist=-10.0),
        dict(magnification=0.0),
        dict(qe=2.0),
        dict(smear_prob_farfield=1.5),
        dict(readout_mean=float("nan")),
        dict(snr_gate=float("nan")),  # would turn the verdict off silently
        dict(sparse_threshold=-3),
    ],
)
def test_validation_rejects_bad_values(changes):
    with pytest.raises(ParameterError):
        RunConfig().replace(**changes)


def test_digest_tracks_every_field():
    a = RunConfig()
    b = a.replace(seed=8)
    assert a.digest() != b.digest()
    assert a.canonical_json() == RunConfig().canonical_json()


def test_sim_digest_ignores_analysis_knobs():
    """Re-analysing the same frames with different statistics settings must
    not look like a configuration mismatch."""
    a = RunConfig()
    for changes in (
        dict(n_frames=50),
        dict(n_bootstrap=0),
        dict(n_blocks=10),
        dict(sparse_threshold=1),
        dict(snr_gate=3.0),
    ):
        assert a.replace(**changes).sim_digest() == a.sim_digest()
    for changes in (
        dict(seed=8),
        dict(photons_per_pixel=0.03),
        dict(target_occupancy=0.03),
        dict(smear_prob_image=0.0),
    ):
        assert a.replace(**changes).sim_digest() != a.sim_digest()


def test_load_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 42, "pump_waist": "0.66 mm"}))
    cfg = RunConfig.load(path)
    assert cfg.seed == 42
    assert cfg.pump_waist == pytest.approx(660.0)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParameterError, match="not valid JSON"):
        RunConfig.load(bad)
