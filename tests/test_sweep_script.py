"""scripts/sweep_mode_counts.py's closed forms and summary, on hand-made rows.

The sweep takes minutes per seed; this runs no simulation, so a report key
that the script reads and the analysis no longer writes fails here.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

from bpcam import EprReport, Plane, RunConfig, predict
from bpcam.inference import AxisDimensionality

PATH = Path(__file__).resolve().parents[1] / "scripts" / "sweep_mode_counts.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("bpcam_sweep_mode_counts", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hand_made_report(cfg, prediction, forms, scale, rel_err):
    """Every narrow figure and mode count at `scale` times its closed form,
    each with an error of `rel_err` of it."""
    narrow = {key: scale * prediction[key] for key in forms["narrow"]}
    modes = {f"d_{coord}": scale * forms[plane][f"d_{coord}"]
             for plane, coord in (("image", "pos"), ("farfield", "mom"))}
    detail = {}
    for plane in ("image", "farfield"):
        want = forms[plane]
        axis = AxisDimensionality(ratio=1.0, coverage=1.0, d_axis=1.0, sigma_narrow_um=1.0,
                                  sigma_broad_um=scale * want["sigma_broad_um"],
                                  sigma_marginal_um=scale * want["sigma_marginal_um"])
        detail[f"dimensionality_{plane}"] = {ax: dataclasses.asdict(axis)
                                             for ax in ("col", "row")}
        detail[f"bootstrap_{plane}"] = {"resamples_ok": 99, "resamples_failed": 1}
    figures = narrow | modes
    return EprReport(prediction=prediction, n_frames={"image": 2000, "farfield": 2000},
                     occupancy={"image": 0.03, "farfield": 0.03}, snr_pos=50.0, snr_mom=50.0,
                     heisenberg_bound_hbar2=0.25, epr_violated=True, snr_gate=5.0,
                     detail=detail, errors={k: rel_err * v for k, v in figures.items()},
                     **figures)


def test_closed_forms_and_summary_of_hand_made_rows(sweep):
    cfg = RunConfig().replace(seed=1)
    prediction = predict(cfg.source(), cfg.optics(Plane.IMAGE),
                         cfg.optics(Plane.FAR_FIELD)).as_dict()
    forms = sweep.closed_forms(cfg, prediction)
    assert set(forms["narrow"]) == set(sweep.NARROW)
    assert forms["narrow"]["epr_product_hbar2"] == prediction["epr_product_hbar2"]
    # criterion 7's coverage-corrected mode counts and the broad widths
    assert forms["image"]["d_pos"] == pytest.approx(3050, rel=0.01)
    assert forms["farfield"]["d_mom"] == pytest.approx(3380, rel=0.01)
    assert forms["image"]["sigma_broad_um"] == pytest.approx(
        cfg.magnification * prediction["sigma_plus_um"])

    # seeds 1 and 2 read 10 % high with 4 % errors, seed 3 reads exact
    rows = []
    for seed, scale in ((1, 1.1), (2, 1.1), (3, 1.0)):
        seeded = cfg.replace(seed=seed)
        report = hand_made_report(seeded, prediction, forms, scale, 0.04)
        rows.append(sweep.row_of(seeded, report.as_dict(), wall_s=1.0))
    assert [row["seed"] for row in rows] == [1, 2, 3]
    summary = sweep.summarise(rows)
    for key in (*sweep.NARROW, "d_pos", "d_mom", "image.col.sigma_marginal_um",
                "farfield.row.sigma_broad_um"):
        assert summary[key]["median"] == pytest.approx(1.1)
        assert (summary[key]["min"], summary[key]["max"]) == pytest.approx((1.0, 1.1))
        assert summary[key]["median_abs_dev"] == pytest.approx(0.1)
        assert summary[key]["n_finite"] == 3
    # the closed form lies 10 % / 4.4 % = 2.3 errors from seeds 1 and 2
    assert summary["cond_var_x_um2"]["within_2se"] == pytest.approx(1 / 3)
    assert summary["epr_product_hbar2"]["err_median"] == pytest.approx(
        0.044 * prediction["epr_product_hbar2"])
    assert summary["d_pos_err"]["median"] == pytest.approx(0.044 * forms["image"]["d_pos"])
    assert summary["farfield.resamples_failed"] == {"total": 3, "max": 1}
    assert not any(math.isnan(v["median"]) for v in summary.values() if "median" in v)
